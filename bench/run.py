"""Layered benchmark for predprey.

    python3 bench/run.py --workload {sweep,separatrix,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from
./src, never from an installed copy.  One client drives a closed loop of
seeded tasks (one process, one thread) for S seconds and checks every
output.  Task and set-up times are rescaled by a host-speed reference
kernel (see REF_NOMINAL_S).  With --trace 0 the last line of stdout is a
JSON object with the end-to-end metrics; with --trace 1 the same tasks run
untraced, then again under the trace shim (bench/tracing.py), and the JSON
carries the per-layer metrics.  Spans are written to .bench_out/.  See
bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from time import perf_counter

import layers
import workloads
from layers import metric
from tracing import Tracer
from workloads import Miss, Outcome

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 9
# Host-speed reference.  The shared host's speed drifts by up to 2x over
# minutes (contention, not waiting: CPU time drifts with wall time), far more
# than any bound a regression check can use.  Before each task the loop
# times a fixed interpreter kernel that no change to predprey can move, and
# task times are rescaled to the speed at which that kernel takes
# REF_NOMINAL_S (about the fastest state seen on the reference host).
REF_CALLS = 1000
REF_NOMINAL_S = 2.5e-4
REF_WINDOW = 9  # tasks whose kernel times estimate the speed for one task


def _ref_field(x1: float, x2: float) -> tuple[float, float]:
    g = (x1 / (x1 + 2.0)) ** 0.8
    return x1 * (0.6 - 0.063 * x1) - g * x2, -x2 + 2.0 * g * x2


def reference_seconds() -> float:
    """Time of the fixed reference kernel: interpreter float work shaped
    like a field evaluation, independent of predprey."""
    t0 = perf_counter()
    x1 = x2 = 1.0
    for _ in range(REF_CALLS):
        d1, d2 = _ref_field(x1, x2)
        x1 += 1e-3 * d1
        x2 += 1e-3 * d2
    return perf_counter() - t0


def import_package(with_cli: bool):
    """Import predprey from this checkout's src/ or exit without a result.
    predprey.cli (argparse, config, csvio) only where it is used."""
    if not os.path.isfile(os.path.join(SRC, "predprey", "__init__.py")):
        sys.exit(f"bench: no predprey sources under {SRC}")
    sys.path.insert(0, SRC)
    import predprey
    if os.path.dirname(os.path.dirname(os.path.abspath(predprey.__file__))) != SRC:
        sys.exit(f"bench: predprey imported from {predprey.__file__}, not {SRC}")
    if with_cli:
        import predprey.cli  # noqa: F401


def environment() -> dict[str, str]:
    return {
        "python": platform.python_version(),
        "nproc": str(os.cpu_count()),
        "loadavg": " ".join(f"{v:.2f}" for v in os.getloadavg()),
        "TOOL_THREADS": "unset (geometry takes its serial path)",
    }


def percentile(sorted_xs: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = q / 100.0 * (len(sorted_xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (pos - lo) * (sorted_xs[hi] - sorted_xs[lo])


def tail_quantile(n: int) -> int:
    """p90 when at least 10 samples lie beyond it, else the highest of
    p75 / p50 that has 10 beyond (or p50)."""
    for q in (90, 75):
        if n * (100 - q) / 100.0 >= 10:
            return q
    return 50


def workdir(workload: str, seed: int, tag: str) -> str:
    d = os.path.join(OUT, f"{workload}-seed{seed}-{tag}-{os.getpid()}")
    os.makedirs(d, exist_ok=True)
    return d


class Loop:
    """Closed loop over a task list, stopped after `seconds` of loop time or
    after `count` tasks; the pool repeats if the loop outruns it."""

    def __init__(self, tasks):
        self.tasks = tasks
        self.times: list[float] = []
        self.refs: list[float] = []
        self.outcomes = []

    def run(self, seconds: float | None = None, count: int | None = None, tracer=None):
        start = perf_counter()
        i = 0
        while True:
            if count is not None and i >= count:
                break
            if seconds is not None and perf_counter() - start >= seconds:
                break
            task = self.tasks[i % len(self.tasks)]
            if tracer is not None:
                tracer.task = i
            if task.prepare is not None:
                task.prepare()
            self.refs.append(reference_seconds())
            t0 = perf_counter()
            try:
                res, err = task.run(), None
            except Exception as exc:  # a raising task is a failed task, not a crash
                res, err = None, exc
            self.times.append(perf_counter() - t0)
            if err is None:
                try:
                    out = task.check(res)
                except Exception as exc:
                    out = Outcome(misses=[Miss("check", f"{type(exc).__name__}: {exc}")])
            else:
                out = Outcome(misses=[Miss("raised", f"{type(err).__name__}: {err}")])
            out.task = f"{task.kind}/{task.label}"
            self.outcomes.append(out)
            i += 1
        return self

    def summary(self) -> tuple[int, int, int, bool, list[str]]:
        """attempted, failed, known-defect tasks, correct, report lines.

        A task fails when it raised or missed a check outside the known
        defects (which also makes the run incorrect).  A task whose only
        misses are known defects is counted apart, in ok_frac, not as a
        failure."""
        failed = sum(1 for o in self.outcomes if any(not m.known for m in o.misses))
        defective = sum(1 for o in self.outcomes if o.misses)
        unexpected = [(o.task, m) for o in self.outcomes for m in o.misses if not m.known]
        known: dict[str, int] = {}
        for o in self.outcomes:
            for m in o.misses:
                if m.known:
                    key = f"{m.known} [{m.check}]"
                    known[key] = known.get(key, 0) + 1
        lines = [f"known defect: {k}: {n} misses" for k, n in sorted(known.items())]
        lines.append(f"tasks: {len(self.outcomes)} attempted, {failed} failed, "
                     f"{defective - failed} more with only known-defect misses")
        seen = set()
        for task, m in unexpected:
            if (task, m.check) not in seen:
                seen.add((task, m.check))
                lines.append(f"FAILED {task} {m.check}: {m.detail}")
        return len(self.outcomes), failed, defective, not unexpected, lines


def setup_probe(workload: str, seed: int) -> None:
    """Child of the setup measurement: import, generate inputs, report when
    ready on the system-wide monotonic clock."""
    import_package(with_cli=workload == "cli")
    d = workdir(workload, seed, "setup")
    try:
        workloads.make_tasks(workload, seed, d)
        print(repr(time.monotonic()), flush=True)
    finally:
        shutil.rmtree(d, ignore_errors=True)


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh interpreters of start + import + input generation,
    each rescaled by the reference kernel timed just before it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    env = {k: v for k, v in os.environ.items() if k != "TOOL_THREADS"}
    vals = []
    for _ in range(SETUP_REPEATS):
        scale = REF_NOMINAL_S / statistics.median(reference_seconds() for _ in range(5))
        t0 = time.monotonic()
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        vals.append(scale * (float(done.stdout.strip().splitlines()[-1]) - t0))
    return statistics.median(vals)


def normalized(times: list[float], refs: list[float]) -> list[float]:
    """Task times rescaled to the host speed at which the reference kernel
    takes REF_NOMINAL_S; the speed for task i is the median reference time
    over the REF_WINDOW tasks around it."""
    h = REF_WINDOW // 2
    return [t * REF_NOMINAL_S / statistics.median(refs[max(0, i - h):i + h + 1])
            for i, t in enumerate(times)]


def end_to_end(args) -> tuple[dict, Loop]:
    setup_s = measure_setup(args.workload, args.seed)
    d = workdir(args.workload, args.seed, "e2e")
    try:
        loop = Loop(workloads.make_tasks(args.workload, args.seed, d)).run(seconds=args.seconds)
    finally:
        shutil.rmtree(d, ignore_errors=True)
    raw = sorted(loop.times)
    xs = sorted(normalized(loop.times, loop.refs))
    q = tail_quantile(len(xs))
    attempted, _, defective, _, _ = loop.summary()
    print(f"task latency: p50 and p{q} of {len(xs)} tasks "
          f"(task_tail_ms is p{q}; {len(xs) - round(len(xs) * q / 100)} samples beyond it)")
    print(f"host speed: reference kernel median {1e3 * statistics.median(loop.refs):.4f} ms "
          f"(nominal {1e3 * REF_NOMINAL_S} ms); unscaled p50 {1e3 * percentile(raw, 50):.4f} ms, "
          f"p{q} {1e3 * percentile(raw, q):.4f} ms, {len(raw) / sum(raw):.4f} tasks/s")
    return {
        "setup_s": metric(setup_s, "s"),
        "task_p50_ms": metric(1e3 * percentile(xs, 50), "ms"),
        "task_tail_ms": metric(1e3 * percentile(xs, q), "ms"),
        "tasks_per_s": metric(len(xs) / sum(xs), "1/s"),
        "ok_frac": metric((attempted - defective) / attempted, "frac"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, loop


def traced(args) -> tuple[dict, Loop]:
    d = workdir(args.workload, args.seed, "trace")
    try:
        plain = Loop(workloads.make_tasks(args.workload, args.seed, d)).run(
            seconds=args.seconds / 2.0)
        tracer = Tracer()
        try:
            loop = Loop(workloads.make_tasks(args.workload, args.seed, d)).run(
                count=len(plain.times), tracer=tracer)
        finally:
            tracer.uninstall()
    finally:
        shutil.rmtree(d, ignore_errors=True)
    for a, b in zip(plain.outcomes, loop.outcomes):
        if a.digest != b.digest:
            b.misses.append(Miss("trace_changed_output", "traced output differs from untraced"))
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.csv"),
                 {**environment(), "workload": args.workload, "seed": str(args.seed)})
    metrics = layers.layer_metrics(tracer, loop)
    metrics["trace.overhead_frac"] = metric(
        sum(normalized(loop.times, loop.refs)) / sum(normalized(plain.times, plain.refs)) - 1.0,
        "frac")
    metrics.update(layers.calibration(ROOT))
    return metrics, loop


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "separatrix", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    os.environ.pop("TOOL_THREADS", None)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    import_package(with_cli=args.workload == "cli" or bool(args.trace))
    env = environment()
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    metrics, loop = (traced if args.trace else end_to_end)(args)
    attempted, failed, _, correct, lines = loop.summary()
    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
