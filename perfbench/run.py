"""motionpipe benchmark: time the pipeline's protocols from outside, cold and warm.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``workloads.py``.  Inputs are generated from the
seed, then each timed run is a fresh child interpreter that calls
``motionpipe.cli.main`` (``child.py``), one child at a time.  ``setup_s``
is what the timed runs leave out: the median time to generate the inputs
plus the median start-up of a child (interpreter start and imports), so
work moved into either shows.  A round is one cold run into an empty output directory
followed by the workload's ``warm_reps`` warm reruns over the populated
cache; rounds repeat, with the same seed, until ``--seconds`` have been
measured and the workload's ``min_rounds`` are done.

Every run is checked: exit codes, warm reports byte-identical to cold,
reports byte-identical across same-seed cold runs, the workload's
accuracy floor, and zero model fits during a warm run.  ``--trace 1``
makes one untraced cold run, then a traced cold and a traced warm run,
and reports per-layer metrics computed from the spans.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  BLAS keeps the thread setting
it is given; the line before the metrics records the library, the
thread-setting variables and the thread count the library reports.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# The inputs are generated SETUP_REPS times before the first run and once more
# after each warm run, so the set-up median samples the whole run: on a shared
# machine, speed drifts over seconds.
SETUP_REPS = 3
DEADLINE_S = 170.0  # the whole invocation must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The functions --trace 1 wraps, and the statistics it reports for each.
SPAN_STATS = (
    ("flow.estimate_flow", ("calls", "self_s", "ms_p50", "ms_p95")),
    ("flow.describe_flow", ("self_s",)),
    ("flow.read_pgm", ("calls", "self_s")),
    ("corpus.read_sequence", ("calls", "self_s")),
    ("corpus.write_sequence", ("calls", "self_s")),
    ("corpus.align_lengths", ("self_s",)),
    ("pca.fit", ("calls", "self_s")),
    ("pca.jacobi_eigh", ("self_s", "ms_p50")),
    ("pca.transform", ("calls", "self_s")),
    ("pca.load_model", ("calls",)),
    ("cnn.batch_gradients", ("calls", "self_s", "ms_p50", "ms_p99")),
    ("cnn.train", ("self_s",)),
    ("cnn.extract_features", ("calls", "self_s", "ms_p99")),
    ("cnn.save_model", ("self_s",)),
    ("svm.chi2_gram", ("calls", "self_s")),
    ("svm.fit", ("self_s",)),
    ("svm.default_gamma", ("self_s",)),
    ("svm.predict_batch", ("self_s",)),
    ("svm.predict", ("calls",)),
    ("pipeline.run_pipeline", ("self_s",)),
    ("pipeline.frames_to_sequence", ("self_s",)),
    ("cli.main", ("self_s",)),
    ("cli.read_features_csv", ("calls", "self_s")),
)
STAT_UNITS = {"calls": "count", "self_s": "s", "ms_p50": "ms", "ms_p95": "ms", "ms_p99": "ms"}
END_TO_END_UNITS = {"setup_s": "s", "cold_s": "s", "warm_s": "s",
                    "peak_rss_mb": "MB", "accuracy": "ratio"}


def blas_info() -> str:
    """numpy's BLAS, the thread variables set, and the thread count OpenBLAS reports."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_get_num_threads64_"):
            threads = lib.scipy_openblas_get_num_threads64_()
    env = ", ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS if v in os.environ)
    return (f"{blas.get('name')} {blas.get('version')}, {threads} threads "
            f"({env or 'no thread variable set'})")


def _percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


class Checks:
    """Counts attempted and failed runs; prints why a run failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, label: str, problems: list) -> bool:
        self.attempted += 1
        for problem in problems:
            print(f"check failed: {label}: {problem}", file=sys.stderr)
        self.failed += bool(problems)
        return not problems


class Bench:
    def __init__(self, workload, seed: int, work: str, started: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.started = started
        self.checks = Checks()
        self.children = 0
        self.inputs = os.path.join(work, "inputs")
        self.setup_times: list = []
        self.startup_times: list = []
        self.setup_same = True

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    # -- set-up ------------------------------------------------------------

    def generate(self) -> None:
        """Generate the inputs once more, timed; the first copy is kept as the inputs."""
        dest = os.path.join(self.work, "again") if self.setup_times else self.inputs
        start = time.perf_counter()
        self.workload.generate(self.seed, dest)
        self.setup_times.append(time.perf_counter() - start)
        if dest != self.inputs:
            self.setup_same = self.setup_same and _tree_bytes(dest) == _tree_bytes(self.inputs)
            shutil.rmtree(dest)

    def setup_s(self) -> float:
        """Median generation plus median child start-up seconds.

        Also checks that every generation gave the same bytes.
        """
        self.checks.run("setup", [] if self.setup_same
                        else ["same seed generated different inputs"])
        generate = statistics.median(self.setup_times)
        startup = statistics.median(self.startup_times)
        print(f"setup_s parts: generate {generate} s, child start-up {startup} s")
        return generate + startup

    # -- children ----------------------------------------------------------

    def child(self, calls: list, run_id: str, wrap) -> dict | None:
        """Run the calls in a fresh interpreter; None if it could not finish."""
        self.children += 1
        base = os.path.join(self.work, f"child{self.children:03d}")
        spec = {"src": SRC, "calls": calls, "wrap": list(wrap),
                "run_id": f"{self.workload.name}:{self.seed}:{run_id}"}
        with open(base + ".spec.json", "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        spawned = time.monotonic()
        with open(base + ".log", "wb") as log:
            try:
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "child.py"),
                     base + ".spec.json", base + ".result.json"],
                    stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                    timeout=max(1.0, self.remaining()),
                )
            except subprocess.TimeoutExpired:
                print(f"{run_id}: child timed out", file=sys.stderr)
                return None
        if proc.returncode != 0:
            with open(base + ".log", "r", encoding="utf-8", errors="replace") as fh:
                sys.stderr.write(fh.read()[-4000:])
            return None
        with open(base + ".result.json", "r", encoding="utf-8") as fh:
            result = json.load(fh)
        self.startup_times.append(result["ready"] - spawned)
        return result

    def _call_problems(self, result) -> list:
        if result is None:
            return ["child process failed"]
        return [f"call {i} exited {c['code']}" for i, c in enumerate(result["calls"])
                if c["code"] != 0]

    def cold(self, out: str, run_id: str, wrap=(), expect=None):
        """One cold run; (result, reports, accuracy), or None if it wrote no reports.

        ``expect`` holds the reports of an earlier same-seed cold run.  A run
        that fails a check still returns its timing; the check counts it failed.
        """
        result = self.child(self.workload.cold_calls(self.inputs, out, self.seed), run_id, wrap)
        problems = self._call_problems(result)
        reports = accuracy = None
        if not problems:
            try:
                reports = self.workload.reports(out)
                accuracy = self.workload.accuracy(reports)
            except (OSError, ValueError) as exc:
                problems.append(f"unreadable reports: {exc}")
        if reports is not None:
            if accuracy < self.workload.floor:
                problems.append(f"accuracy {accuracy} below floor {self.workload.floor}")
            if expect is not None and reports != expect:
                problems.append("reports differ from an earlier same-seed cold run")
        self.checks.run(run_id, problems)
        return None if reports is None else (result, reports, accuracy)

    def warm(self, out: str, cold_reports: dict, run_id: str, wrap=()):
        """One warm rerun over the cold run's cache; its result, or None if a call failed.

        The fit entry points are always wrapped, so a refit shows as a span.
        """
        refit_names = self.workload.refit_names
        result = self.child(self.workload.warm_calls(self.inputs, out, self.seed), run_id,
                            set(wrap) | set(refit_names))
        problems = self._call_problems(result)
        completed = not problems
        if completed:
            try:
                same = self.workload.reports(out) == cold_reports
            except OSError as exc:
                same = False
                problems.append(f"unreadable reports: {exc}")
            if not same:
                problems.append("warm reports differ from cold reports")
            refits = sum(1 for s in result["spans"] if s[0] in refit_names)
            if refits:
                problems.append(f"{refits} model fits during a warm run")
        self.checks.run(run_id, problems)
        return result if completed else None


def _tree_bytes(path: str) -> list:
    out = []
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                out.append((os.path.relpath(full, path), fh.read()))
    return out


def _seconds(result) -> float:
    return sum(c["seconds"] for c in result["calls"])


def measure(bench: Bench, seconds: float) -> dict:
    """Rounds of cold + warm runs until ``seconds`` have been measured.

    A workload whose cold run takes most of ``seconds`` asks for at least
    ``min_rounds`` rounds, so ``cold_s`` is a median too.
    """
    cold_s, warm_s, rss, accuracy = [], [], [], []
    first_reports = None
    measured = 0.0
    rounds = 0
    while True:
        round_start = time.perf_counter()
        out = os.path.join(bench.work, f"out{rounds}")
        cold = bench.cold(out, f"cold{rounds}", expect=first_reports)
        if cold is not None:
            result, reports, acc = cold
            cold_s.append(_seconds(result))
            rss.append(result["peak_rss_mb"])
            accuracy.append(acc)
            first_reports = first_reports or reports
            for rep in range(bench.workload.warm_reps):
                warm = bench.warm(out, reports, f"warm{rounds}.{rep}")
                if warm is not None:
                    warm_s.append(_seconds(warm))
                bench.generate()
        rounds += 1
        round_s = time.perf_counter() - round_start
        measured += round_s
        if bench.remaining() < 1.5 * round_s:
            break
        if measured >= seconds and rounds >= bench.workload.min_rounds:
            break
    if not cold_s or not warm_s:
        return {}
    return {
        "cold_s": statistics.median(cold_s),
        "warm_s": statistics.median(warm_s),
        "peak_rss_mb": statistics.median(rss),
        "accuracy": statistics.median(accuracy),
    }


def traced(bench: Bench) -> dict:
    """Untraced cold, then traced cold and warm runs; per-layer metrics from spans."""
    plain = bench.cold(os.path.join(bench.work, "plain"), "untraced cold")
    if plain is None:
        return {}
    out = os.path.join(bench.work, "traced")
    traced_names = [name for name, _ in SPAN_STATS]
    cold = bench.cold(out, "traced cold", traced_names, expect=plain[1])
    if cold is None:
        return {}
    warm = bench.warm(out, cold[1], "traced warm", traced_names)
    if warm is None:
        return {}
    _write_spans(f"{bench.work}.spans.jsonl", (cold[0]["spans"], warm["spans"]))
    return layer_metrics(plain[0], cold[0], warm)


def _write_spans(path: str, runs) -> None:
    """One JSON object per span, numbered across runs; a root's ``parent`` is null."""
    with open(path, "w", encoding="utf-8") as fh:
        base = 0
        for spans in runs:
            for i, (name, start, end, parent, run, attr) in enumerate(spans):
                fh.write(json.dumps({
                    "id": base + i, "name": name, "start": start, "end": end,
                    "parent": base + parent if parent >= 0 else None, "run": run,
                    "attr": attr}) + "\n")
            base += len(spans)


def layer_metrics(plain: dict, cold: dict, warm: dict) -> dict:
    from tracing import LAYERS, self_times

    spans = cold["spans"] + warm["spans"]
    own = self_times(cold["spans"]) + self_times(warm["spans"])
    by_name: dict = {}
    for span, self_s in zip(spans, own):
        entry = by_name.setdefault(span[0], {"self_s": 0.0, "ms": [], "attrs": []})
        entry["self_s"] += self_s
        entry["ms"].append((span[2] - span[1]) * 1e3)
        if span[5] is not None:
            entry["attrs"].append(span[5])

    metrics = {}
    empty = {"self_s": 0.0, "ms": [], "attrs": []}
    for name, stats in SPAN_STATS:
        entry = by_name.get(name, empty)
        ms = sorted(entry["ms"])
        values = {"calls": len(ms), "self_s": entry["self_s"],
                  "ms_p50": _percentile(ms, 50), "ms_p95": _percentile(ms, 95),
                  "ms_p99": _percentile(ms, 99)}
        for stat in stats:
            metrics[f"{name}.{stat}"] = (values[stat], STAT_UNITS[stat])

    def attrs(name):
        return by_name.get(name, empty)["attrs"]

    flow_s = by_name.get("flow.estimate_flow", empty)["self_s"]
    metrics["flow.estimate_flow.mpix_iter_per_s"] = (
        sum(attrs("flow.estimate_flow")) / 1e6 / flow_s if flow_s else 0.0, "Mpix/s")
    metrics["pca.fit.input_dim"] = (max(attrs("pca.fit"), default=0), "count")
    metrics["svm.chi2_gram.computed_temp_mb"] = (
        max(attrs("svm.chi2_gram"), default=0.0), "MB")
    metrics["svm.fit.support_vectors"] = (sum(attrs("svm.fit")), "count")

    # Flow never runs warm: a descriptor recomputed in a warm run is a refit,
    # which fails the run, so its warm self time would always read 0.
    for phase, result, phase_own, layers in (
            ("cold", cold, own[:len(cold["spans"])], LAYERS),
            ("warm", warm, own[len(cold["spans"]):], [x for x in LAYERS if x != "flow"])):
        for layer in layers:
            total = sum(s for span, s in zip(result["spans"], phase_own)
                        if span[0].split(".", 1)[0] == layer)
            metrics[f"layer.{layer}.{phase}_self_s"] = (total, "s")
    metrics["trace.cold_s"] = (_seconds(cold), "s")
    metrics["trace.warm_s"] = (_seconds(warm), "s")
    metrics["trace.overhead_s"] = (_seconds(cold) - _seconds(plain), "s")
    metrics["trace.spans"] = (len(spans), "count")
    _print_top(cold["spans"], own[:len(cold["spans"])], "traced cold")
    return metrics


def _print_top(spans, own, title: str, top: int = 5) -> None:
    totals: dict = {}
    for span, s in zip(spans, own):
        totals[span[0]] = totals.get(span[0], 0.0) + s
    ranked = sorted(totals.items(), key=lambda kv: -kv[1])[:top]
    print(f"{title}: largest self times: "
          + ", ".join(f"{name} {s:.3f}s" for name, s in ranked))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "motionpipe", "cli.py")):
        print(f"error: no motionpipe sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    work = os.path.join(WORK, f"{args.workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    bench = Bench(WORKLOADS[args.workload], args.seed, work, started)
    try:
        for _ in range(SETUP_REPS):
            bench.generate()
        if args.trace:
            metrics = traced(bench)
            bench.setup_s()
        else:
            metrics = measure(bench, args.seconds)
            if metrics:
                metrics["setup_s"] = bench.setup_s()
                metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not metrics:
        print("error: no run completed; see the check failures above", file=sys.stderr)
        return 1

    import numpy

    print(f"machine: nproc {os.cpu_count()}, python {sys.version.split()[0]}, "
          f"numpy {numpy.__version__}, blas {blas_info()}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    checks = bench.checks
    print(f"checked runs: attempted {checks.attempted}, failed {checks.failed}, "
          f"failed_frac {checks.failed / max(1, checks.attempted)} (exit codes, warm vs cold "
          f"report bytes, same-seed report bytes, accuracy floor {bench.workload.floor}, "
          f"no fits in warm runs, same-seed input bytes)")
    print(json.dumps({
        "correct": bench.checks.failed == 0,
        "attempted": bench.checks.attempted,
        "failed": bench.checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
