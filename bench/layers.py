"""Per-layer metrics of a traced run, and the fixed calibration cases.

layer_metrics() reads the spans and counters of the traced pass over the
workload's tasks.  calibration() re-measures ROADMAP's "Baseline to beat"
cases (layers L0-L5 on the bundled OSC set) the same way in every traced
run: wall times untraced, as medians of repeats; work counts under a
separate tracer, so they repeat exactly.
"""
from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

from tracing import Tracer

OSC = dict(a1=0.6, a2=1.0, b1=0.063, w0=1.0, w1=2.0, d=2.0, m1=0.8, m2=1.0)
BISTABLE = dict(a1=0.5, a2=0.7, b1=0.05, w0=0.2, w1=4.0, d=0.2, m1=0.5, m2=0.5)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tr: Tracer, loop) -> dict[str, dict]:
    self_t, n = tr.self_times()
    c = tr.counts

    def busy(prefix: str) -> float:
        return sum(v for k, v in self_t.items() if k.startswith(prefix))

    steps = c["steps"]
    integrations = n["integrate.integrate"] + n["integrate.u_system"]
    ref_errs = [o.ref_err for o in loop.outcomes if o.ref_err is not None]
    touchdown = [o.touchdown_err for o in loop.outcomes if o.touchdown_err is not None]
    return {
        "model.rhs_calls": metric(sum(v for k, v in c.items() if k.startswith("rhs.")), "count"),
        "model.audit_busy_s": metric(busy("model."), "s"),
        "integrate.calls": metric(integrations, "count"),
        "integrate.busy_s": metric(busy("integrate."), "s"),
        "integrate.accepted_steps": metric(steps, "count"),
        "integrate.rhs_per_step": metric(_ratio(c["rhs.integrate"], steps), "ratio"),
        "integrate.us_per_step": metric(1e6 * _ratio(busy("integrate."), steps), "us"),
        "equilibria.calls": metric(n["equilibria.interior"], "count"),
        "equilibria.busy_s": metric(busy("equilibria."), "s"),
        "equilibria.F_calls": metric(c["F"], "count"),
        "equilibria.F_per_root": metric(_ratio(c["roots"], c["F"]), "ratio"),
        "bifurcation.sweep_busy_s": metric(self_t["bifurcation.sweep"], "s"),
        "bifurcation.detect_busy_s": metric(self_t["bifurcation.detect"], "s"),
        "bifurcation.rescans_per_event": metric(
            _ratio(tr.children_named("bifurcation.", "equilibria.interior"), c["events"]), "ratio"),
        "bifurcation.max_ref_err": metric(max(ref_errs, default=0.0), "frac"),
        "geometry.launches": metric(tr.children_named("geometry.", "integrate.integrate"), "count"),
        "geometry.launches_per_probe": metric(
            _ratio(tr.children_named("geometry.probe", "integrate.integrate"),
                   n["geometry.probe"]), "ratio"),
        "geometry.probe_busy_s": metric(self_t["geometry.probe"], "s"),
        "geometry.manifold_busy_s": metric(self_t["geometry.manifold"], "s"),
        "extinction.busy_s": metric(busy("extinction."), "s"),
        "extinction.touchdown_rel_err": metric(max(touchdown, default=0.0), "frac"),
        "config.parse_busy_s": metric(busy("config."), "s"),
        "csvio.bytes_written": metric(c["bytes"], "B"),
        "csvio.write_busy_s": metric(busy("csvio."), "s"),
        "cli.self_s": metric(self_t["cli.main"], "s"),
    }


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _cli_seconds(root: str, command: str, ini: str, repeats: int = 3) -> float:
    """L5: one CLI command in a fresh interpreter, process start included."""
    work = os.path.join(root, ".bench_out", f"calib-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    cfg = os.path.join(work, "scenario.ini")
    with open(cfg, "w") as fh:
        fh.write(ini)
    env = {k: v for k, v in os.environ.items() if k != "TOOL_THREADS"}
    env["PYTHONPATH"] = os.path.join(root, "src")
    cmd = [sys.executable, "-m", "predprey", command, "--config", cfg,
           "--out", os.path.join(work, "out")]
    try:
        return _median_time(
            lambda: subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                                   timeout=120, check=True), repeats)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def calibration(root: str) -> dict[str, dict]:
    from dataclasses import replace

    import predprey as pp

    osc = pp.ModelParams(**OSC)
    out = {}

    # L0: one field evaluation, both make_rhs branches.
    pts = [(0.1 + 0.01 * i, 0.5 + 0.02 * i) for i in range(1000)]
    for name, p in (("model.rhs_ns_per_call", osc),
                    ("model.rhs_ns_per_call_m1m2_1", replace(osc, m1=1.0, m2=1.0))):
        f = pp.make_rhs(p)

        def calls(f=f):
            for _ in range(20):
                for x1, x2 in pts:
                    f(x1, x2)
        out[name] = metric(1e9 * _median_time(calls, 5) / (20 * len(pts)), "ns")

    # L1: one accepted step of a long stored run.
    opts = pp.IntegratorOptions(horizon=2000.0)
    steps = len(pp.integrate(osc, pp.State(1.0, 1.0), opts)) - 1
    t = _median_time(lambda: pp.integrate(osc, pp.State(1.0, 1.0), opts), 3)
    out["calib.L1_us_per_step"] = metric(1e6 * t / steps, "us")
    out["calib.L1_steps"] = metric(steps, "count")

    # L3: one interior_equilibria solve at the default 2000 scan points.
    bistable = pp.ModelParams(**BISTABLE)
    out["calib.L3_equilibria_osc_ms"] = metric(
        1e3 * _median_time(lambda: pp.interior_equilibria(osc), 5), "ms")
    out["calib.L3_equilibria_bistable_ms"] = metric(
        1e3 * _median_time(lambda: pp.interior_equilibria(bistable), 5), "ms")

    # L4: the OSC refuge sweep with Hopf detection, the OSC separatrix and
    # the a1 Hopf point; wall time untraced, work counts traced.
    def sweep():
        return pp.detect_hopf(pp.branch_sweep(osc, "r", 0.35, 0.55))

    out["calib.L4_osc_r_sweep_hopf_s"] = metric(_median_time(sweep, 3), "s")
    out["calib.L4_osc_separatrix_s"] = metric(
        _median_time(lambda: pp.trace_stable_separatrix_E0(osc), 3), "s")
    out["calib.L4_hopf_a1_osc_s"] = metric(
        _median_time(lambda: pp.hopf_a1_fixed_point(osc), 3), "s")
    geo, bif = sys.modules["predprey.geometry"], sys.modules["predprey.bifurcation"]
    tr = Tracer()
    try:
        bif.detect_hopf(bif.branch_sweep(osc, "r", 0.35, 0.55))
        f_calls = tr.counts["F"]
        rescans = tr.children_named("bifurcation.", "equilibria.interior")
        steps0 = tr.counts["steps"]
        geo.trace_stable_separatrix_E0(osc)
        _, n = tr.self_times()
        launches = tr.children_named("geometry.probe", "integrate.integrate")
        sep_steps = tr.counts["steps"] - steps0
    finally:
        tr.uninstall()
    out["calib.osc_r_sweep_hopf_F_calls"] = metric(f_calls, "count")
    out["calib.osc_r_sweep_hopf_rescans"] = metric(rescans, "count")
    out["calib.osc_separatrix_launches"] = metric(launches, "count")
    out["calib.osc_separatrix_launches_per_probe"] = metric(launches / n["geometry.probe"], "ratio")
    out["calib.osc_separatrix_accepted_steps"] = metric(sep_steps, "count")

    # L5: CLI commands in a fresh interpreter.
    ini = "[model]\n" + "".join(f"{k} = {v}\n" for k, v in OSC.items())
    out["calib.L5_cli_sweep_s"] = metric(_cli_seconds(
        root, "sweep", ini + "[sweep]\nparam = r\nlo = 0.35\nhi = 0.55\n"), "s")
    out["calib.L5_cli_separatrix_s"] = metric(_cli_seconds(root, "separatrix", ini), "s")
    out["calib.L5_cli_equilibria_s"] = metric(_cli_seconds(root, "equilibria", ini), "s")
    return out
