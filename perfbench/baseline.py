"""Record the benchmark baseline in ``perfbench/baseline.json``.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py

For each workload in ``BENCHMARK.json``, runs ``run.py`` untraced once per
seed (seeds 1..SEEDS) and reports every end-to-end metric's median,
quartiles and spread (quartile distance over median, as in
``statistics.quantiles(values, n=4)``).  Then
one traced run on seed 1 gives the per-layer metrics, each layer's share
of the traced cold and warm time, and the tracing overhead (traced
``cold_s`` minus the untraced median).  Runs go one at a time.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = 10

NOTES = [
    "setup_s is the median input-generation time plus the median child start-up "
    "(interpreter start and imports): both are kept out of cold_s and warm_s.",
    "No metric was dropped for being unsteady: warm_s on frames-fixed (about 30 ms) is "
    "the median of fifteen warm runs over three cold rounds.",
    "frames-fixed renders 32 x 32 frames so that three cold rounds fit in one run: its "
    "cost is two Jacobi PCA fits at n = 176, which do not depend on the frame size.",
    "BLAS keeps its default thread setting; machine.blas records the thread count.",
    "failed_frac is not a metric: it is 0 on a correct run and an end-to-end metric may "
    "never be 0, so it is reported as the result's attempted and failed counts and "
    "printed as a line with the metrics.  Refits in a warm run are a check, not a metric.",
    "Per-layer metrics of a layer a workload does not run read 0 on that workload; none "
    "reads 0 on every workload.",
    "warm_s on svm-kfold is the five predict calls rerun over the stored models, the "
    "CLI's analogue of a warm pipeline run.",
    "Same-seed byte identity is checked in every --trace 1 run (untraced cold vs traced "
    "cold) and whenever a run makes more than one round; a second 45 s cold run in every "
    "untraced loocv-acceptance run would not fit the time budget.",
    "run_wall_s is the wall time of each whole run.py invocation, for the time budget.",
]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run.py invocation; its metric values plus ``run_wall_s``."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run\n{proc.stderr}")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    values["run_wall_s"] = time.perf_counter() - start
    return values


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version()}
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        info["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                            if line.startswith("model name")), "unknown")
    cache = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache)) if os.path.isdir(cache) else ():
        try:
            with open(os.path.join(cache, index, "level"), encoding="utf-8") as fh:
                level = fh.read().strip()
            with open(os.path.join(cache, index, "size"), encoding="utf-8") as fh:
                info[f"l{level}"] = fh.read().strip()
        except OSError:
            continue
    import numpy

    from run import blas_info

    info.update(numpy=numpy.__version__, blas=blas_info())
    return info


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    record = {"machine": machine(), "seeds": SEEDS, "notes": NOTES, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        values: dict = {}
        for seed in range(1, SEEDS + 1):
            for name, value in run(workload, seed, bench["run_seconds"], 0).items():
                values.setdefault(name, []).append(value)
            print(f"{workload} seed {seed} done", file=sys.stderr)
        end_to_end = {}
        for metric in bench["end_to_end"]:
            v = values[metric["name"]]
            median = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            end_to_end[metric["name"]] = {
                "median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
                "bound": metric["bound"], "values": v}
        layers = run(workload, 1, bench["run_seconds"], 1)
        traced_wall_s = layers.pop("run_wall_s")
        shares = {phase: {name.split(".")[1]: value / layers[f"trace.{phase}_s"]
                          for name, value in layers.items()
                          if name.startswith("layer.") and name.endswith(f".{phase}_self_s")}
                  for phase in ("cold", "warm")}
        record["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": layers,
            "layer_share": shares,
            "trace_overhead_s": layers["trace.cold_s"] - end_to_end["cold_s"]["median"],
            "run_wall_s": values["run_wall_s"] + [traced_wall_s],
        }
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
