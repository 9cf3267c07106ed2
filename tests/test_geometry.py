from __future__ import annotations

import math
import random
import sys

import pytest

from predprey import (
    CurveLabel,
    DomainError,
    IntegratorOptions,
    ModelParams,
    PlanarCurve,
    SeparatrixOptions,
    State,
    TerminationKind,
    Verdict,
    integrate,
    predator_nullcline,
    prey_nullcline,
    psi,
    separatrix_boundary_x2,
    separatrix_relative_position,
    trace_stable_separatrix_E0,
    trace_unstable_manifold_E1,
    with_params,
)
from predprey.model import make_rhs


def test_psi_domain_and_values(osc_params):
    cap = osc_params.carrying_capacity
    assert psi(cap, osc_params) == pytest.approx(0.0, abs=1e-12)
    assert psi(1.0, osc_params) > 0.0
    for bad in (0.0, -1.0, cap * 1.001):
        with pytest.raises(DomainError):
            psi(bad, osc_params)


def test_prey_nullcline_samples_psi(osc_params):
    curve = prey_nullcline(osc_params, n=64)
    assert curve.label is CurveLabel.PREY_NULLCLINE
    xs = [s.x1 for s in curve.points]
    assert all(b > a for a, b in zip(xs, xs[1:]))
    mid = curve.points[32]
    assert mid.x2 == pytest.approx(psi(mid.x1, osc_params))


def test_prey_nullcline_takes_the_1_over_m2_power(bistable_params):
    curve = prey_nullcline(bistable_params, n=16)
    s = curve.points[8]
    assert s.x2 == pytest.approx(psi(s.x1, bistable_params) ** 2.0)
    # the field's prey component vanishes on it
    dx1, _ = make_rhs(bistable_params)(s.x1, s.x2)
    assert abs(dx1) < 1e-12 * s.x1


def test_predator_nullcline_is_vertical(osc_params):
    curve = predator_nullcline(osc_params, x2_max=5.0, n=4)
    assert curve.label is CurveLabel.PREDATOR_NULLCLINE
    assert len({s.x1 for s in curve.points}) == 1
    assert curve.points[-1].x2 == 5.0


def test_unstable_manifold_descends_from_e1(osc_params):
    wu = trace_unstable_manifold_E1(osc_params)
    assert wu.label is CurveLabel.UNSTABLE_MANIFOLD_E1
    cap = osc_params.carrying_capacity
    first = wu.points[0]
    assert first.x1 == pytest.approx(cap, rel=1e-4)
    assert 0.0 < first.x2 < 1e-3


def test_unstable_manifold_needs_a_saddle(osc_params, bistable_params):
    with pytest.raises(DomainError):
        trace_unstable_manifold_E1(bistable_params)  # m2 < 1: not linearizable
    below = with_params(osc_params, r=0.1)  # below the invasion threshold
    with pytest.raises(DomainError):
        trace_unstable_manifold_E1(below)


@pytest.mark.parametrize("name", ["osc", "enriched", "enriched_r_0.3"])
def test_manifold_is_the_descending_prefix_of_the_long_trace(osc_params, name):
    # the manifold ends at its leg's first turn: state for state the
    # descending prefix of a run from the same seed to the horizon that
    # stops only at the guard cap, plus the state that turns it
    p = _fan_sets(osc_params)[name]
    geo = sys.modules["predprey.geometry"]
    wu = trace_unstable_manifold_E1(p)
    guard_cap = 1e6 * max(1.0, p.carrying_capacity)
    full = integrate(p, wu.points[0], IntegratorOptions(horizon=500.0),
                     stop_when=lambda t, x1, x2, dx1, dx2: x1 + x2 > guard_cap)
    leg = geo._descending_prefix(tuple(full.states))
    if name == "enriched":
        # the leg runs into prey extinction, which ends both runs
        assert full.termination.kind is TerminationKind.PREY_EXTINCT
        assert repr(wu.points) == repr(tuple(leg)) == repr(tuple(full.states))
    else:
        # the first state not left of its predecessor ends the curve
        assert len(full) > len(leg) + 1
        turn = full.states[len(leg)]
        assert not turn.x1 < leg[-1].x1
        assert repr(wu.points) == repr(tuple(leg) + (turn,))
    ws = trace_stable_separatrix_E0(p)
    old = separatrix_relative_position(
        ws, PlanarCurve(CurveLabel.UNSTABLE_MANIFOLD_E1, tuple(full.states)))
    assert repr(separatrix_relative_position(ws, wu)) == repr(old)


def test_boundary_bisection_separates_fates(osc_params):
    b = separatrix_boundary_x2(osc_params, 5.0)
    assert b > psi(5.0, osc_params)  # boundary sits above the nullcline

    up = integrate(osc_params, State(5.0, b * 1.01),
                   IntegratorOptions(horizon=500.0))
    assert up.termination.kind is TerminationKind.PREY_EXTINCT

    down = integrate(osc_params, State(5.0, b * 0.99),
                     IntegratorOptions(horizon=500.0),
                     stop_when=lambda t, x1, x2, dx1, dx2: x1 > 5.0)
    assert down.termination.kind is not TerminationKind.PREY_EXTINCT


@pytest.mark.parametrize("horizon", [3.0, 500.0])
def test_launches_run_to_the_integrator_horizon(osc_params, monkeypatch, horizon):
    # the integrator options are the launches' only home: the first launch
    # runs to their horizon, and a section launch to what is left of it
    mod = sys.modules["predprey.geometry"]
    seen = []

    def recording(p, ic, opts=None, **kw):
        if not kw.get("backward"):
            seen.append(opts.horizon)
        return integrate(p, ic, opts, **kw)

    monkeypatch.setattr(mod, "integrate", recording)
    separatrix_boundary_x2(osc_params, 1.389, IntegratorOptions(horizon=horizon))
    assert seen[0] == horizon
    assert all(0.0 < h <= horizon for h in seen)


def test_probe_makes_only_the_steps_field_calls(osc_params, monkeypatch):
    # Wrap the make_rhs products where the integrator and this module look
    # them up, as the bench trace shim does.  The turnaround test reads the
    # derivative the step already holds, so a probe costs the DP5 step's 6
    # field calls per accepted step plus its rejections; re-evaluating the
    # field at each accepted state made it 7.0.
    calls, steps = [], []

    def counting(factory):
        def make(p):
            f = factory(p)

            def field(x1, x2):
                calls.append(1)
                return f(x1, x2)
            return field
        return make

    for name in ("predprey.integrate", "predprey.geometry"):
        mod = sys.modules[name]
        monkeypatch.setattr(mod, "make_rhs", counting(mod.make_rhs))
    geo = sys.modules["predprey.geometry"]
    monkeypatch.setattr(geo, "make_y_rhs", counting(geo.make_y_rhs))
    launch, run = geo.integrate, geo._run

    def counted_launch(*args, **kwargs):
        traj = launch(*args, **kwargs)
        steps.append(len(traj) - 1)
        return traj

    def counted_run(*args):
        traj = run(*args)
        steps.append(len(traj) - 1)
        return traj

    monkeypatch.setattr(geo, "integrate", counted_launch)
    monkeypatch.setattr(geo, "_run", counted_run)
    separatrix_boundary_x2(osc_params, 1.389)  # a station of the default fan
    # one backward trace from the threshold, in the y-chart, and the two
    # launches that certify it: 251 accepted steps (64 of them the trace),
    # against 308 when the trace ran in the x-chart at abs_tol 1e-3 * thr,
    # and 31 launches and 681 steps when the probe was bisected on a ladder
    # of sections
    assert len(steps) == 3
    assert len(calls) <= 6.1 * sum(steps)
    assert sum(steps) <= 1.25 * 251


def _fan_sets(osc):
    enriched = with_params(osc, a1=2.0, b1=0.21)
    return {"osc": osc, "enriched": enriched, "enriched_r_0.3": with_params(enriched, r=0.3)}


@pytest.mark.parametrize("name", ["osc", "enriched", "enriched_r_0.3"])
def test_section_bisection_matches_the_probe_loop(osc_params, name):
    # the traced and nullcline routes agree with the plain bisection of
    # launch fates at the probe on every bundled fan probe
    p = _fan_sets(osc_params)[name]
    ws = trace_stable_separatrix_E0(p)
    geo = sys.modules["predprey.geometry"]
    opts = IntegratorOptions(horizon=500.0)
    plain = [geo._bisect_probe(p, x, psi(x, p), opts) for x in ws.x1s()]
    assert ws.x2s() == pytest.approx(plain, rel=1e-4)
    if name == "enriched":
        # right of x1 = 4 the traced orbit has turned back into the focus:
        # those four probes return the nullcline, which the bisection
        # brackets to its width
        assert ws.x2s()[8:] == [psi(x, p) for x in ws.x1s()[8:]]
        assert ws.x2s()[8:] == pytest.approx(plain[8:], rel=1e-8, abs=0.0)


def _scipy_backward_trace(p, probes, thr):
    """x2 where the orbit through (thr, psi(thr)**(1/m2)) crosses each probe
    abscissa backward in time, by scipy's DOP853 at rtol 1e-12 on the field
    written out here; NaN for the probes right of where x1 turns back."""
    from scipy.integrate import solve_ivp

    a1, a2, b1, w0, w1, d, m1, m2, r = (p.a1, p.a2, p.b1, p.w0, p.w1, p.d,
                                        p.m1, p.m2, p.r)

    def back(t, y):
        x1, x2 = max(y[0], 0.0), max(y[1], 0.0)
        inter = (r * x1 / (r * x1 + d)) ** m1 * x2 ** m2
        return [w0 * inter - x1 * (a1 - b1 * x1), a2 * x2 - w1 * inter]

    def turned(t, y):
        return back(t, y)[0]
    turned.terminal, turned.direction = True, -1.0
    events = []
    for x in probes:
        def crossed(t, y, x=x):
            return y[0] - x
        crossed.direction = 1.0
        events.append(crossed)
    events[-1].terminal = True
    seed = (thr * (a1 - b1 * thr) / (w0 * (r * thr / (r * thr + d)) ** m1)) ** (1.0 / m2)
    sol = solve_ivp(back, (0.0, 500.0), [thr, seed], method="DOP853", rtol=1e-12,
                    atol=1e-21, events=events + [turned])
    return [float(ys[0][1]) if len(ys) else math.nan for ys in sol.y_events[:-1]]


@pytest.mark.parametrize("name", ["osc", "enriched", "enriched_r_0.3"])
def test_fan_probes_match_the_scipy_backward_trace(osc_params, name):
    # the curve is the orbit that meets the prey nullcline at the extinction
    # threshold; every fan probe it reaches lies within 5e-6 of an
    # independent tight trace of it (worst 1.1e-6, OSC x1 = 9.05), and the
    # rest (ENRICHED x1 >= 4.05) are the ones scipy's trace turns back from
    p = _fan_sets(osc_params)[name]
    ws = trace_stable_separatrix_E0(p)
    oracle = _scipy_backward_trace(p, ws.x1s(), 1e-9)
    reached = [i for i, y in enumerate(oracle) if not math.isnan(y)]
    assert reached == list(range(8 if name == "enriched" else 12))
    for i in reached:
        assert ws.x2s()[i] == pytest.approx(oracle[i], rel=5e-6)


def test_every_traced_fan_probe_returns_its_trace(osc_params, monkeypatch):
    # the backward trace reaches every bundled fan probe but the four
    # ENRICHED ones right of x1 = 4, and launches 1e-4 either side of it
    # certify it there, so each of those 32 probes returns its trace
    geo = sys.modules["predprey.geometry"]
    trace = geo._trace_to_probe
    traced = []

    def recording(*args):
        traced.append(trace(*args))
        return traced[-1]

    monkeypatch.setattr(geo, "_trace_to_probe", recording)
    returned = []
    for p in _fan_sets(osc_params).values():
        for x in geo._probe_stations(p, SeparatrixOptions()):
            traced.clear()
            y = separatrix_boundary_x2(p, x)
            assert len(traced) == 1
            if not math.isnan(traced[0]):
                returned.append(y == traced[0])
    assert len(returned) == 32
    assert all(returned)


def test_nullcline_route_returns_psi(osc_params, monkeypatch):
    # ENRICHED probes 8-11: the traced orbit spirals into the focus before
    # x1 = 4.05, every launch above the nullcline dies monotonically and
    # every launch below it turns at t = 0, so each probe returns psi itself
    # after the trace and two launches
    p = _fan_sets(osc_params)["enriched"]
    geo = sys.modules["predprey.geometry"]
    stations = geo._probe_stations(p, SeparatrixOptions())[8:]
    launch, run = geo.integrate, geo._run
    runs = []

    def counted(*args, **kwargs):
        runs.append(kwargs.get("backward", False))
        return launch(*args, **kwargs)

    def counted_run(f, ic, opts, watch, stop_when, ceiling, sign=1.0):
        runs.append(sign < 0.0)
        return run(f, ic, opts, watch, stop_when, ceiling, sign)

    monkeypatch.setattr(geo, "integrate", counted)
    monkeypatch.setattr(geo, "_run", counted_run)
    for x in stations:
        runs.clear()
        assert separatrix_boundary_x2(p, x) == psi(x, p)
        assert runs == [True, False, False]


@pytest.mark.parametrize("landing", [-1.0, math.nan, 5.0, 9.0])
def test_trace_outside_the_bracket_resumes_at_the_probe(osc_params, monkeypatch, landing):
    # a traced ordinate that launches 1e-4 either side of it do not
    # certify (5.0 and 9.0 straddle the boundary, 8.23, from below and
    # above), a negative one, or a backward run that never gets back (NaN)
    # is never returned: the nullcline launches fail there too, and the
    # plain bisection at the probe gives the answer, bit for bit
    geo = sys.modules["predprey.geometry"]
    traces = []

    def missing(*args):
        traces.append(args)
        return landing

    monkeypatch.setattr(geo, "_trace_to_probe", missing)
    got = separatrix_boundary_x2(osc_params, 1.389)
    assert len(traces) == 1
    opts = IntegratorOptions(horizon=500.0)
    assert repr(got) == repr(geo._bisect_probe(osc_params, 1.389, psi(1.389, osc_params), opts))


def test_separatrix_requires_fractional_m1(osc_params):
    with pytest.raises(DomainError):
        trace_stable_separatrix_E0(with_params(osc_params, m1=1.0, m2=1.0))


def test_probe_refuses_unit_m1_as_the_fan_does(osc_params):
    # at m1 = 1 the origin attracts no open set and the chart y = x1**(1-m1)
    # does not exist; the probe returned 45.1223 at x1 = 0.5, an artifact of
    # the threshold, before it refused
    p = with_params(osc_params, m1=1.0)
    message = "the origin attracts no open set for m1 = 1"
    with pytest.raises(DomainError, match=message):
        separatrix_boundary_x2(p, 0.5)
    with pytest.raises(DomainError, match=message):
        trace_stable_separatrix_E0(p)


def _perturbed_sets(osc, m1s, seed, per):
    """per sets for each m1 and each of OSC and ENRICHED, with the six rates
    scaled by exp(U(-0.2, 0.2)) each from random.Random(seed)."""
    rng = random.Random(seed)
    out = []
    for m1 in m1s:
        for base in (osc, _fan_sets(osc)["enriched"]):
            for _ in range(per):
                rates = {k: getattr(base, k) * math.exp(rng.uniform(-0.2, 0.2))
                         for k in ("a1", "a2", "b1", "w0", "w1", "d")}
                out.append(with_params(base, m1=m1, **rates))
    return out


def test_traced_probes_match_the_scipy_backward_trace_over_the_domain(osc_params):
    # the y-chart trace reaches exactly the fan probes scipy's x-chart trace
    # reaches (241 of 288), each within 5e-6 of it (worst 1.7e-7)
    geo = sys.modules["predprey.geometry"]
    opts = IntegratorOptions(horizon=500.0)
    reached = 0
    for p in _perturbed_sets(osc_params, (0.6, 0.9, 0.95, 0.99), seed=1, per=3):
        stations = geo._probe_stations(p, SeparatrixOptions())
        oracle = _scipy_backward_trace(p, stations, 1e-9)
        for x, want in zip(stations, oracle):
            got = geo._trace_to_probe(p, x, opts)
            assert math.isnan(got) == math.isnan(want), (p, x)
            if not math.isnan(want):
                reached += 1
                assert got == pytest.approx(want, rel=5e-6, abs=0.0), (p, x)
    assert reached == 241


def test_probes_near_unit_m1_are_certified_as_before(osc_params, monkeypatch):
    # near m1 = 1, x1 = y**(1/(1-m1)) amplifies the trace's error in y a
    # thousandfold; the launches still certify the trace on 64 of the 72
    # probes, as they did when the trace ran in the x-chart
    geo = sys.modules["predprey.geometry"]
    trace = geo._trace_to_probe
    traced = []

    def recording(*args):
        traced.append(trace(*args))
        return traced[-1]

    monkeypatch.setattr(geo, "_trace_to_probe", recording)
    certified = 0
    for p in _perturbed_sets(osc_params, (0.999,), seed=1, per=3):
        for x in geo._probe_stations(p, SeparatrixOptions()):
            traced.clear()
            certified += separatrix_boundary_x2(p, x) == traced[0]
    assert certified == 64


def test_separatrix_explicit_probe_list(osc_params):
    ws = trace_stable_separatrix_E0(osc_params, probe_x1=[5.0, 4.0])
    assert ws.label is CurveLabel.STABLE_SEPARATRIX_E0
    assert [s.x1 for s in ws.points] == [4.0, 5.0]  # sorted by abscissa
    assert ws.points[1].x2 == separatrix_boundary_x2(osc_params, 5.0)


def test_relative_position_verdicts():
    ws = PlanarCurve(CurveLabel.STABLE_SEPARATRIX_E0,
                     (State(1.0, 5.0), State(4.0, 5.0), State(8.0, 5.0)))
    wu = PlanarCurve(CurveLabel.UNSTABLE_MANIFOLD_E1,
                     (State(9.0, 2.0), State(5.0, 2.0), State(1.0, 2.0)))
    cmp_ = separatrix_relative_position(ws, wu)
    assert cmp_.verdict is Verdict.WS_ABOVE_WU
    assert cmp_.margin == pytest.approx(3.0)

    wu_hi = PlanarCurve(CurveLabel.UNSTABLE_MANIFOLD_E1,
                        (State(9.0, 9.0), State(5.0, 9.0), State(1.0, 9.0)))
    assert separatrix_relative_position(ws, wu_hi).verdict is Verdict.WU_ABOVE_WS

    wu_x = PlanarCurve(CurveLabel.UNSTABLE_MANIFOLD_E1,
                       (State(9.0, 0.0), State(5.0, 5.0), State(1.0, 10.0)))
    assert separatrix_relative_position(ws, wu_x).verdict is Verdict.CROSSING

    # lo + (hi - lo) * 199 / 199 rounds one ulp past hi on this shared range;
    # the last station must be hi itself, or the interpolation raises.
    lo, hi = 0.11388236146134381, 0.4809941328089724
    ws_r = PlanarCurve(CurveLabel.STABLE_SEPARATRIX_E0, (State(lo, 3.0), State(hi, 4.0)))
    wu_r = PlanarCurve(CurveLabel.UNSTABLE_MANIFOLD_E1, (State(hi, 1.0), State(lo, 2.0)))
    assert separatrix_relative_position(ws_r, wu_r).x1_range == (lo, hi)


def test_relative_position_checks_labels_and_overlap():
    a = PlanarCurve(CurveLabel.STABLE_SEPARATRIX_E0,
                    (State(1.0, 5.0), State(2.0, 5.0)))
    b = PlanarCurve(CurveLabel.UNSTABLE_MANIFOLD_E1,
                    (State(9.0, 2.0), State(8.0, 2.0)))
    with pytest.raises(DomainError):
        separatrix_relative_position(b, a)  # swapped roles
    with pytest.raises(DomainError):
        separatrix_relative_position(a, b)  # no shared x1 range


@pytest.mark.parametrize("rel_tol", [1e-5, 1e-7])
def test_bisection_width_follows_the_launch_tolerance(osc_params, monkeypatch, rel_tol):
    # with no trace to certify the probe falls through to the bisection:
    # its final bracket is the tightest BELOW and ABOVE launch, at most
    # rel_tol / 10 wide relative and, one halving earlier, wider than that
    geo = sys.modules["predprey.geometry"]
    classify = geo._classify_launch
    fates = {geo._ABOVE: [], geo._BELOW: []}

    def recording(p, x1_0, x2_0, iopts):
        fate = classify(p, x1_0, x2_0, iopts)
        fates[fate].append(x2_0)
        return fate

    monkeypatch.setattr(geo, "_trace_to_probe", lambda *args: math.nan)
    monkeypatch.setattr(geo, "_classify_launch", recording)
    opts = IntegratorOptions(rel_tol=rel_tol, horizon=500.0)
    got = separatrix_boundary_x2(osc_params, 1.389, opts)
    lo, hi = max(fates[geo._BELOW]), min(fates[geo._ABOVE])
    assert got == 0.5 * (lo + hi)
    assert 0.5 * rel_tol / 10 < (hi - lo) / hi <= rel_tol / 10


@pytest.mark.parametrize("m2", [1e-30, 1e-3])
def test_bisection_ends_where_the_boundary_rounds_to_the_prey_axis(monkeypatch, m2):
    # x2**m2 rounds to 1 for every launch above the axis (m2 = 1e-30), or
    # psi**(1/m2) underflows to 0 (m2 = 1e-3): every such launch dies
    # monotonically, so the bracket [0, hi] halves until no float lies
    # between its ends, where hi - 0 > width * hi still holds
    geo = sys.modules["predprey.geometry"]
    classify = geo._classify_launch
    launches = []

    def counted(p, x1_0, x2_0, iopts):
        launches.append(x2_0)
        assert len(launches) <= 1100, "the bisection does not end"
        return classify(p, x1_0, x2_0, iopts)

    monkeypatch.setattr(geo, "_classify_launch", counted)
    p = ModelParams(a1=0.1, a2=0.1, b1=0.1, w0=0.1, w1=0.1, d=0.1, m1=0.5, m2=m2)
    assert separatrix_boundary_x2(p, 0.5) == 0.0
    assert min(x for x in launches if x > 0.0) == 5e-324


def test_separatrix_needs_two_probes(osc_params):
    # one probe made a curve by inventing a second point at x1*(1 + 1e-9)
    with pytest.raises(DomainError, match="at least 2 probes"):
        SeparatrixOptions(probes=1)
    for probes in ([], [5.0]):
        with pytest.raises(DomainError, match="at least 2 probes"):
            trace_stable_separatrix_E0(osc_params, probe_x1=probes)
