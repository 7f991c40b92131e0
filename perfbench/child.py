"""One timed run in a fresh interpreter: call ``motionpipe.cli.main`` per command line.

Usage: python3 child.py SPEC.json RESULT.json

SPEC holds ``src`` (the checkout's source directory), ``calls`` (argv
lists), ``wrap`` (dotted names of the functions to record spans for) and
``run_id``.  Imports happen before the clock starts, so the reported
seconds cover ``cli.main`` alone.  RESULT gets the exit code and seconds
of each call, ``ready`` (``time.monotonic()`` once the imports are done,
so the parent can time the start-up), the process's peak resident
memory, and the recorded spans.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    import motionpipe.cli
    from tracing import Tracer

    if not os.path.abspath(motionpipe.__file__).startswith(src + os.sep):
        raise SystemExit(f"motionpipe imported from {motionpipe.__file__}, not {src}")
    tracer = Tracer()
    tracer.run_id = spec["run_id"]
    tracer.install(spec["wrap"])

    ready = time.monotonic()
    calls = []
    for argv in spec["calls"]:
        start = time.perf_counter()
        try:
            code = motionpipe.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # reported as a failed call, never as a crash of the harness
            traceback.print_exc()
            code = -1
        calls.append({"code": code, "seconds": time.perf_counter() - start})

    result = {
        "calls": calls,
        "ready": ready,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
