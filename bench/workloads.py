"""The three benchmark workloads: seeded task lists and their checks.

A task is one closed-loop call into predprey's public API.  `run()` makes the
call and returns its raw result; `check(result)` compares the result with an
independent reference (oracle.py, references.json) or an invariant and
returns an Outcome.  Inputs come only from the seed, and the package sees
only the generated inputs; every package function is looked up on its module
at call time, so the trace shim sees the calls.

Misses of a known defect name the ROADMAP item that owns it.  They lower
ok_frac but are not failures and leave the run correct; any other miss is a
failure and makes the run incorrect.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
import sys
from dataclasses import dataclass, field
from typing import Callable

import oracle as o

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "references.json")) as _fh:
    REFS = json.load(_fh)

OSC = o.params(a1=0.6, a2=1.0, b1=0.063, w0=1.0, w1=2.0, d=2.0, m1=0.8, m2=1.0)
BISTABLE = o.params(a1=0.5, a2=0.7, b1=0.05, w0=0.2, w1=4.0, d=0.2, m1=0.5, m2=0.5)
ENRICHED = o.replaced(OSC, a1=2.0, b1=0.21)

# Known defects: the miss lowers ok_frac, the run stays correct.
X_CHART = "ROADMAP item 3: x-chart touchdown time off (abs_tol = extinction threshold)"
AUDIT = "ROADMAP item 4: verify_assumptions verdict differs from theory"
GRID_END = ("separatrix_relative_position raises when its last grid abscissa "
            "rounds past the shared x1 range (geometry.py, found by this benchmark)")

TOL_BIFURCATION = 1e-6   # detected critical values against the references
TOL_PROBE = 1e-3         # separatrix boundary against the scipy bisection
TOL_TOUCHDOWN = 1e-4     # extinction times against the scipy touchdown
TOL_POINT = 1e-9         # interior equilibria against closed form / brentq
TOL_FORMULA = 1e-12      # quantities the package evaluates in closed form


def mod(name: str):
    return sys.modules["predprey." + name]


def pkg_params(p):
    return mod("model").ModelParams(**o.as_dict(p))


@dataclass
class Miss:
    check: str
    detail: str
    known: str | None = None


@dataclass
class Outcome:
    misses: list[Miss] = field(default_factory=list)
    digest: str = ""
    ref_err: float | None = None        # bifurcation tasks with a reference
    touchdown_err: float | None = None  # cli extinction tasks (x-chart)
    task: str = ""                      # "<kind>/<label>", set by the loop

    def need(self, ok: bool, check: str, detail: str, known: str | None = None) -> None:
        if not ok:
            self.misses.append(Miss(check, detail, known))


@dataclass
class Task:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    prepare: Callable[[], None] | None = None  # untimed, before each run


def perturbed(rng: random.Random, p, names, delta: float, **fixed):
    """Multiply each named parameter by exp(U(-delta, delta))."""
    return o.replaced(p, **{n: getattr(p, n) * math.exp(rng.uniform(-delta, delta))
                            for n in names}, **fixed)


def digest_of(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _event_rows(events) -> tuple:
    return tuple((e.kind.value, e.critical_value, e.point.x1, e.point.x2,
                  tuple(sorted(e.diagnostics.items()))) for e in events)


# --------------------------------------------------------------------------
# sweep: branch_sweep + detectors, and hopf_a1_fixed_point.

FOLD_SEEDS = {  # param: (fold value, x1) near the bundled bistable folds
    "a1": (0.468, 4.6), "a2": (0.615, 4.9), "w0": (0.2276, 4.9),
    "w1": (4.55, 4.9), "b1": (0.0572, 4.3),
}
SWEEP_N, SWEEP_SCAN = 41, 800
FOLD_N = 101


def _check_events(out: Outcome, p, name: str, events) -> None:
    """Invariants every detected event must meet, from the oracle's own
    field and Jacobian at the reported point and parameter value."""
    for e in events:
        q = o.replaced(p, **{name: e.critical_value})
        if e.kind.value == "transcritical":
            continue
        x1, x2 = e.point.x1, e.point.x2
        f1, f2 = o.field(q, x1, x2)
        out.need(max(abs(f1), abs(f2)) <= 1e-8 * max(1.0, x1 + x2), "event_residual",
                 f"{e.kind.value} at {name}={e.critical_value!r}: field ({f1!r}, {f2!r})")
        tr, det = o.trace_det(q, x1, x2)
        if e.kind.value == "hopf":
            out.need(abs(tr) <= 1e-7 and det > 0.0, "hopf_invariant",
                     f"{name}={e.critical_value!r}: tr={tr!r} det={det!r}")
        else:
            out.need(abs(det) <= 1e-7 and tr < 0.0, "fold_invariant",
                     f"{name}={e.critical_value!r}: tr={tr!r} det={det!r}")


def _sweep_task(kind: str, label: str, p, name: str, lo: float, hi: float, n: int,
                want: dict[str, float | None]) -> Task:
    """One branch_sweep plus all three detectors.  `want` maps an event kind
    to its reference critical value (None: that kind must not appear)."""
    P = pkg_params(p)

    def run():
        bif = mod("bifurcation")
        br = bif.branch_sweep(P, name, lo, hi, n=n, scan_points=SWEEP_SCAN)
        return (bif.detect_saddle_node(br) + bif.detect_hopf(br, scan_points=SWEEP_SCAN)
                + bif.detect_transcritical(br))

    def check(events) -> Outcome:
        out = Outcome(digest=digest_of(_event_rows(events)))
        _check_events(out, p, name, events)
        errs = []
        for ev_kind, ref in want.items():
            got = [e for e in events if e.kind.value == ev_kind]
            if ref is None:
                out.need(not got, f"{ev_kind}_count", f"expected none, got {len(got)}")
                continue
            out.need(len(got) == 1, f"{ev_kind}_count", f"expected 1, got {len(got)}")
            if got:
                err = o.rel_err(got[0].critical_value, ref)
                errs.append(err)
                out.need(err <= TOL_BIFURCATION, f"{ev_kind}_value",
                         f"{name}={got[0].critical_value!r}, reference {ref!r}")
        out.ref_err = max(errs) if errs else None
        return out

    return Task(kind, label, run, check)


def _hopf_a1_task(label: str, p) -> Task:
    P = pkg_params(p)
    a1, x1, x2 = o.hopf_a1(p)

    def run():
        return mod("bifurcation").hopf_a1_fixed_point(P)

    def check(res) -> Outcome:
        a1_got, eq = res
        out = Outcome(digest=digest_of(a1_got, eq.point.x1, eq.point.x2))
        out.ref_err = max(o.rel_err(a1_got, a1), o.rel_err(eq.point.x1, x1),
                          o.rel_err(eq.point.x2, x2))
        out.need(out.ref_err <= TOL_BIFURCATION, "hopf_a1",
                 f"a1*={a1_got!r} at ({eq.point.x1!r}, {eq.point.x2!r}); "
                 f"closed form {a1!r} at ({x1!r}, {x2!r})")
        return out

    return Task("hopf_a1", label, run, check)


def sweep_tasks(rng: random.Random, rounds: int) -> list[Task]:
    """Rounds of four tasks (Hopf r-sweep, fold sweep, a1 Hopf point,
    transcritical r-sweep); even rounds use the bundled sets, odd rounds
    seeded perturbations of them."""
    tasks = []
    fold_names = list(FOLD_SEEDS)
    for k in range(rounds):
        bundled = k % 2 == 0
        osc = OSC if bundled else perturbed(rng, OSC, ("a1", "a2", "b1", "w1", "d", "m1"), 0.05)
        tag = "bundled" if bundled else "perturbed"
        refuge = (k // 2) % 2 == 1  # plain and r = 0.3 alternate every two rounds

        r_h = o.hopf_r(osc, 0.2, 0.9)[0]
        lo, hi = r_h * rng.uniform(0.8, 0.9), r_h * rng.uniform(1.1, 1.2)
        tasks.append(_sweep_task("hopf_r", f"osc-{tag}", osc, "r", lo, hi, SWEEP_N,
                                 {"hopf": r_h, "saddle_node": None, "transcritical": None}))

        name = fold_names[k % len(fold_names)]
        bi = o.replaced(BISTABLE, r=0.3) if refuge else BISTABLE
        if not bundled:
            bi = perturbed(rng, bi, ("a1", "a2", "b1", "w0", "w1", "d", "m1", "m2"), 0.03)
        v, _, _ = o.fold(bi, name, FOLD_SEEDS[name][1], FOLD_SEEDS[name][0])
        w = 0.15 * v
        lo, hi = v - w * rng.uniform(0.5, 1.0), v + w * rng.uniform(0.5, 1.0)
        tasks.append(_sweep_task("fold", f"bistable-{tag}-{name}", bi, name, lo, hi, FOLD_N,
                                 {"saddle_node": v, "transcritical": None}))

        a1_set = o.replaced(osc, r=0.3) if refuge else osc
        tasks.append(_hopf_a1_task(f"osc-{tag}", a1_set))

        r1 = o.transcritical_r(osc)
        lo, hi = r1 * rng.uniform(0.6, 0.8), r1 * rng.uniform(1.5, 2.0)
        tasks.append(_sweep_task("transcritical", f"osc-{tag}", osc, "r", lo, hi, SWEEP_N,
                                 {"transcritical": r1, "hopf": None, "saddle_node": None}))
    return tasks


# --------------------------------------------------------------------------
# separatrix: fan probes, then manifold + relative position per scenario.

VERDICTS = {"osc": "ws_above_wu", "enriched": "wu_above_ws", "enriched_r_0.3": "ws_above_wu"}


def _scenario_tasks(label: str, p, refs: list[float] | None) -> list[Task]:
    P = pkg_params(p)
    xs = o.fan(p)
    found: dict[int, float] = {}
    k2 = o.K2(p)
    tasks = []

    for i, x in enumerate(xs):
        def run(i=i, x=x):
            y = mod("geometry").separatrix_boundary_x2(P, x)
            found[i] = y
            return y

        def check(y, i=i, x=x) -> Outcome:
            out = Outcome(digest=digest_of(y))
            lo = o.psi(x, p) * (1.0 - 2e-8)
            out.need(math.isfinite(y) and lo <= y <= 1e3 * max(k2, 1.0), "probe_range",
                     f"x1={x!r}: boundary {y!r} outside [psi, 1e3*K2] = [{lo!r}, {1e3 * k2!r}]")
            if refs is not None:
                out.need(o.rel_err(y, refs[i]) <= TOL_PROBE, "probe_value",
                         f"x1={x!r}: boundary {y!r}, reference {refs[i]!r}")
            return out

        tasks.append(Task("probe", label, run, check))

    def run_manifold():
        geo, model = mod("geometry"), mod("model")
        pts = tuple(model.State(xs[i], found[i]) for i in sorted(found))
        ws = geo.PlanarCurve(geo.CurveLabel.STABLE_SEPARATRIX_E0, pts)
        wu = geo.trace_unstable_manifold_E1(P)
        try:
            return wu, geo.separatrix_relative_position(ws, wu)
        except model.DomainError as exc:
            if not _grid_end_overshoot(str(exc)):
                raise
            return wu, exc

    def check_manifold(res) -> Outcome:
        wu, cmp_ = res
        if isinstance(cmp_, Exception):
            out = Outcome(digest=digest_of(tuple(wu.points), str(cmp_)))
            out.need(False, "grid_end", str(cmp_), GRID_END)
            return out
        out = Outcome(digest=digest_of(tuple(wu.points), cmp_.verdict.value, cmp_.margin))
        cap = o.carrying_capacity(p)
        first = wu.points[0]
        out.need(abs(first.x1 - cap) <= 1e-5 * cap and 0.0 < first.x2 <= 1e-5 * cap,
                 "manifold_seed", f"starts at {first!r}, E1 = ({cap!r}, 0)")
        out.need(all(s.x1 >= 0.0 and s.x2 >= 0.0 for s in wu.points), "manifold_sign",
                 "negative state on the manifold")
        out.need(cmp_.margin > 0.0, "margin", f"margin {cmp_.margin!r}")
        if label in VERDICTS:
            out.need(cmp_.verdict.value == VERDICTS[label], "verdict",
                     f"{cmp_.verdict.value}, expected {VERDICTS[label]}")
        return out

    tasks.append(Task("manifold", label, run_manifold, check_manifold))
    return tasks


def _grid_end_overshoot(message: str) -> bool:
    """True for "interpolation point X outside [A, B]" with X above B by
    rounding only."""
    head = "interpolation point "
    if not message.startswith(head):
        return False
    x, _, rest = message[len(head):].partition(" outside [")
    b = rest.rstrip("]").split(", ")[-1]
    try:
        x, b = float(x), float(b)
    except ValueError:
        return False
    return 0.0 < x - b <= 1e-12 * abs(b)


def separatrix_tasks(rng: random.Random, scenarios: int) -> list[Task]:
    """Bundled scenarios (scipy references) alternate with seeded m1 < 1
    perturbations of them (invariants only).  Launch cost depends mostly on
    m1, so each bundled set's perturbations take m1 from equal strata of
    [0.6, 0.95] in seeded order: the cost mix barely depends on the seed."""
    bundled = {s["label"]: (o.params(**s["params"]), s["boundary_x2"])
               for s in REFS["separatrix"]}
    labels = list(bundled)
    per_label = -(-scenarios // (2 * len(labels)))
    strata = {}
    for label in labels:
        shift = rng.random()
        order = rng.sample(range(per_label), per_label)
        strata[label] = [0.6 + 0.35 * (j + shift) / per_label for j in order]
    tasks = []
    for k in range(scenarios):
        label = labels[(k // 2) % len(labels)]
        p, refs = bundled[label]
        if k % 2:
            p = perturbed(rng, p, ("a1", "a2", "b1", "w0", "w1", "d"), 0.05,
                          m1=strata[label].pop())
            tasks += _scenario_tasks(label + "-perturbed", p, None)
        else:
            tasks += _scenario_tasks(label, p, refs)
    return tasks


# --------------------------------------------------------------------------
# cli: in-process predprey.cli.main on generated INI files.

SIM_HORIZON = 2000.0
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def _halton(i: int, base: int) -> float:
    f, r = 1.0, 0.0
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def audit_draws(rng: random.Random, count: int) -> list:
    """Parameter sets for the audit: rates log-uniform on [0.1, 10] and
    m1, m2, r log-uniform on [0.01, 1].  A Halton sequence with a seeded
    random shift (one shift per dimension) stratifies the draws, so the
    share of sets in any region barely depends on the seed."""
    shift = [rng.random() for _ in o.NAMES]
    start = rng.randrange(1, 10_000)
    out = []
    for i in range(start, start + count):
        u = [(_halton(i, b) + s) % 1.0 for b, s in zip(PRIMES, shift)]
        vals = {}
        for name, ui in zip(o.NAMES, u):
            lo, hi = (0.01, 1.0) if name in ("m1", "m2", "r") else (0.1, 10.0)
            vals[name] = lo * (hi / lo) ** ui
        out.append(o.params(**vals))
    return out


def _ini(p, **sections) -> str:
    lines = ["[model]"] + [f"{k} = {v!r}" for k, v in o.as_dict(p).items()]
    for name, kv in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{k} = {v!r}" for k, v in kv.items()]
    return "\n".join(lines) + "\n"


def _report(path: str) -> dict[str, str]:
    out = {}
    with open(os.path.join(path, "report.txt")) as fh:
        for line in fh:
            k, _, v = line.rstrip("\n").partition(": ")
            out.setdefault(k, v)
    return out


def _rows(path: str) -> list[list[str]]:
    with open(path) as fh:
        return [line.rstrip("\n").split(",") for line in fh][1:]


def _outputs_digest(path: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _check_simulate(out: Outcome, d: str, p, ic) -> None:
    rep = _report(d)
    rows = [[float(v) for v in r] for r in _rows(os.path.join(d, "trajectory.csv"))]
    out.need(rep.get("termination") == "horizon_reached", "termination",
             f"{rep.get('termination')}; OSC orbits from near the repeller reach the cycle")
    out.need(len(rows) == int(rep["steps"]) + 1, "rows", f"{len(rows)} rows, {rep['steps']} steps")
    out.need(all(b[0] > a[0] for a, b in zip(rows, rows[1:])), "times", "times not increasing")
    x1_lim = max(ic[0], o.carrying_capacity(p)) * (1 + 1e-9) + 1e-12
    x2_lim = 1.5 * max(ic[1], o.K2(p))
    out.need(all(0.0 <= r[1] <= x1_lim and 0.0 <= r[2] <= x2_lim for r in rows), "bounds",
             "state left [0, max(x1_0, a1/b1)] x [0, 1.5 max(x2_0, K2)]")
    out.need(rows[-1][1:] == [float(rep["final_x1"]), float(rep["final_x2"])], "final",
             "report and CSV disagree on the final state")


def _check_extinction(out: Outcome, d: str, p, case: dict) -> None:
    rep = _report(d)
    lhs = case["ic"][0] ** (1 - p.m1) * (case["ic"][0] + p.d) ** p.m1
    out.need(o.isclose(float(rep["criterion_lhs"]), lhs, TOL_FORMULA), "criterion",
             f"lhs {rep['criterion_lhs']}, formula {lhs!r}")
    out.need(rep.get("termination") == "prey_extinct", "termination", rep.get("termination", ""))
    out.need(rep.get("u_termination") == "blowup", "u_termination", rep.get("u_termination", ""))
    t_x, t_u = float(rep["termination_time"]), float(rep.get("u_termination_time", "nan"))
    out.touchdown_err = o.rel_err(t_x, case["T_x1_1e-9"])
    out.need(out.touchdown_err <= TOL_TOUCHDOWN, "touchdown_x_chart",
             f"T(x1=1e-9) = {t_x!r}, reference {case['T_x1_1e-9']!r}", X_CHART)
    out.need(o.isclose(t_u, case["T_x1_1e-12"], TOL_TOUCHDOWN), "touchdown_u_chart",
             f"T(x1=1e-12) = {t_u!r}, reference {case['T_x1_1e-12']!r}")
    last = _rows(os.path.join(d, "trajectory.csv"))[-1]
    out.need(float(last[0]) == t_x, "rows", "CSV does not end at the touchdown")


def _check_equilibria(out: Outcome, d: str, p, points) -> None:
    rows = _rows(os.path.join(d, "equilibria.csv"))
    interior = [r for r in rows if r[0] == "interior"]
    cap = o.carrying_capacity(p)
    out.need([r[0] for r in rows[:2]] == ["trivial", "predator_free"]
             and float(rows[1][1]) == cap, "axis_points", f"rows {rows[:2]!r}")
    out.need(len(interior) == len(points), "interior_count",
             f"{len(interior)} interior points, expected {len(points)}")
    for r, (x1, x2) in zip(interior, points):
        g1, g2 = float(r[1]), float(r[2])
        out.need(o.isclose(g1, x1, TOL_POINT) and o.isclose(g2, x2, TOL_POINT), "interior_point",
                 f"({g1!r}, {g2!r}), reference ({x1!r}, {x2!r})")
        tr, det = o.trace_det(p, x1, x2)
        out.need(o.isclose(float(r[4]), tr, 1e-6) and o.isclose(float(r[5]), det, 1e-6),
                 "jacobian", f"tr, det = {r[4]}, {r[5]}; oracle {tr!r}, {det!r}")


def _check_refuge(out: Outcome, d: str, p, x1_0: float) -> None:
    rep = _report(d)
    clamped, raw = o.refuge_r_star(x1_0, p)
    out.need(o.isclose(float(rep["r_star"]), clamped, TOL_FORMULA)
             and o.isclose(float(rep["r_star_unclamped"]), raw, TOL_FORMULA)
             and o.isclose(float(rep["K2"]), o.K2(p), TOL_FORMULA), "r_star",
             f"r_star {rep['r_star']} (unclamped {rep['r_star_unclamped']}), "
             f"formula {clamped!r} ({raw!r})")


def _check_audit(out: Outcome, d: str, p) -> None:
    with open(os.path.join(d, "report.txt")) as fh:
        lines = fh.read().splitlines()[1:]
    got = [line.split(" -- ")[0].rsplit(": ", 1)[-1] for line in lines]
    want = o.audit_theory(p)
    out.need(len(got) == 7, "audit_format", f"{len(got)} checks reported")
    for line, g, w in zip(lines, got, want):
        check = line.split(":")[0]
        out.need(g == w, f"audit_{check}", f"{check}: {g}, theory {w} (m1={p.m1!r})", AUDIT)


def cli_tasks(rng: random.Random, rounds: int, workdir: str) -> list[Task]:
    """Rounds of five commands (simulate, extinction, equilibria,
    refuge-threshold, verify-assumptions); each config runs twice and the
    second run must write byte-identical files."""
    cfg_dir = os.path.join(workdir, "cfg")
    os.makedirs(cfg_dir, exist_ok=True)
    cases = REFS["extinction"]
    eq_refs = {e["label"]: e["points"] for e in REFS["interior_equilibria"]}
    bundled_eq = [(BISTABLE, eq_refs["bistable"]),
                  (o.replaced(BISTABLE, r=0.3), eq_refs["bistable_r_0.3"]),
                  (OSC, eq_refs["osc"])]
    audits = audit_draws(rng, rounds)
    order = list(range(len(cases)))
    rng.shuffle(order)
    tasks = []

    def osc_like():
        return perturbed(rng, OSC, ("a1", "a2", "b1", "w0", "w1", "d", "m1"), 0.03)

    for k in range(rounds):
        plan = []
        p = OSC  # perturbed OSC cycles often collapse into prey extinction
        x1s, x2s = o.interior_m2_one(p)
        ic = (x1s * rng.uniform(0.8, 1.2), x2s * rng.uniform(0.8, 1.2))
        plan.append(("simulate", p, {"simulate": {"x1": ic[0], "x2": ic[1],
                                                  "horizon": SIM_HORIZON}},
                     lambda out, d, p=p, ic=ic: _check_simulate(out, d, p, ic)))
        case = cases[order[k % len(cases)]]
        p = o.params(**case["params"])
        plan.append(("extinction", p, {"extinction": {"x1": case["ic"][0], "x2": case["ic"][1]}},
                     lambda out, d, p=p, case=case: _check_extinction(out, d, p, case)))
        if k % 2:
            p = osc_like()
            pts = [o.interior_m2_one(p)]
        else:
            p, pts = bundled_eq[(k // 2) % len(bundled_eq)]
        plan.append(("equilibria", p, {},
                     lambda out, d, p=p, pts=pts: _check_equilibria(out, d, p, pts)))
        p = osc_like()
        x1_0 = o.carrying_capacity(p) * rng.uniform(0.02, 0.9)
        plan.append(("refuge-threshold", p, {"refuge": {"x1": x1_0}},
                     lambda out, d, p=p, x=x1_0: _check_refuge(out, d, p, x)))
        p = audits[k]
        plan.append(("verify-assumptions", p, {},
                     lambda out, d, p=p: _check_audit(out, d, p)))

        for j, (command, p, sections, checker) in enumerate(plan):
            cfg = os.path.join(cfg_dir, f"{k:04d}-{j}.ini")
            text = _ini(p, **sections)
            first: dict[str, str] = {}
            for rep in ("a", "b"):
                tasks.append(_cli_task(command, cfg, text,
                                       os.path.join(workdir, f"out-{k:04d}-{j}{rep}"),
                                       checker, first))
    return tasks


def _cli_task(command: str, cfg: str, text: str, out_dir: str, checker, first: dict) -> Task:
    """The INI file is written before the task's first run, outside the
    timed call, so set-up does not pay for hundreds of small files."""
    def prepare():
        if not os.path.exists(cfg):
            with open(cfg, "w") as fh:
                fh.write(text)

    def run():
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = mod("cli").main([command, "--config", cfg, "--out", out_dir])
        return code, sink.getvalue()

    def check(res) -> Outcome:
        code, text = res
        out = Outcome()
        try:
            out.need(code == 0, "exit_code", f"exit {code}: {text.strip()}")
            if code == 0:
                out.digest = _outputs_digest(out_dir)
                first.setdefault("digest", out.digest)
                out.need(out.digest == first["digest"], "determinism",
                         "second run wrote different bytes")
                checker(out, out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return out

    return Task(command, os.path.basename(cfg), run, check, prepare)


# Pool sizes: a 30 s run cycles the sweep pool (192 tasks) two or three
# times and the separatrix pool (312) about five times; the cli pool (1200,
# 120 audit draws) about once, so the audit's failure share is averaged
# over many draws.  Why each workload exists: bench/README.md.
WORKLOADS = {
    "sweep": lambda rng, wd: sweep_tasks(rng, 48),
    "separatrix": lambda rng, wd: separatrix_tasks(rng, 24),
    "cli": lambda rng, wd: cli_tasks(rng, 120, wd),
}


def make_tasks(workload: str, seed: int, workdir: str) -> list[Task]:
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng, workdir)
