from __future__ import annotations

import bisect
import math
import random
import sys
from dataclasses import replace

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
    boundedness_bound,
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
from predprey.integrate import Termination, _fate_run, _in_x1, _y_chart
from predprey.model import make_rhs, make_y_rhs


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
    with pytest.raises(DomainError, match="E1 is not linearizable"):
        trace_unstable_manifold_E1(bistable_params)  # m2 < 1
    below = with_params(osc_params, r=0.1)  # below the invasion threshold
    with pytest.raises(DomainError, match="E1 is not a saddle"):
        trace_unstable_manifold_E1(below)


def test_a_weak_prey_response_turns_far_up_and_stays_bounded(osc_params):
    # with w0 = 1e-7 the leg climbs to x2 = 8.1e7 before it turns, past the
    # old escape guard x1 + x2 > 1e6*max(1, a1/b1), which refused it; no guard
    # is needed, as Q = x1 + (w0/w1)*x2 keeps x2 <= (w1/w0)*max(Q(0), W1/a2)
    p = with_params(osc_params, w0=1e-7)
    wu = trace_unstable_manifold_E1(p)
    assert wu.end.kind is TerminationKind.STOPPED
    seed = wu.points[0]
    q0 = seed.x1 + p.w0 / p.w1 * seed.x2
    top = max(wu.x2s())
    assert 1e6 * max(1.0, p.carrying_capacity) < top
    assert top <= p.w1 / p.w0 * max(q0, boundedness_bound(p).W1 / p.a2)


def test_a_leg_that_wobbles_within_its_error_falls_into_extinction():
    # a random.Random(3) draw of the fan's domain: x1 at the leg's 8th state
    # lies 1.3e-6 above the 7th (the 9th 1.4e-5 above the 8th), inside the
    # step's error in x1 of the run in y = x1**(1-m1), (rel_tol/2)/(1-m1)*x1
    # = 4.0e-5, while dx1 < 0 at every state.  A scipy DOP853 trace (rtol
    # 1e-12) takes the leg into x1 = 1e-9 at t = 125.43.  Read as a turn,
    # the wobble made an 8-state leg that met no probe.  The margin is
    # scipy's, 2.614877: the fan against a DOP853 leg in the y-chart
    # (rtol 1e-13, atol 1e-15) from the same seed, read at each probe's
    # first crossing.
    p = ModelParams(a1=4.690836839063927, a2=0.25812671445466695, b1=0.027299362652590364,
                    w0=0.4189956899292203, w1=0.3807242239567352, d=0.7835784905542477,
                    m1=0.7829623770787273, m2=1.0, r=0.7048934926904875)
    wu = trace_unstable_manifold_E1(p)
    assert wu.end.kind is TerminationKind.PREY_EXTINCT
    assert not wu.points[7].x1 < wu.points[6].x1
    cmp_ = separatrix_relative_position(trace_stable_separatrix_E0(p), wu)
    assert cmp_.verdict is Verdict.WU_ABOVE_WS
    assert cmp_.contradicted == 0
    assert cmp_.margin == pytest.approx(2.614877, rel=1e-4)
    assert cmp_.gap_at[0] == pytest.approx(163.238, rel=1e-5)


@pytest.mark.parametrize("w1,end,verdict", [
    (2.00906, TerminationKind.STOPPED, Verdict.WS_ABOVE_WU),
    (2.00908, TerminationKind.PREY_EXTINCT, Verdict.WU_ABOVE_WS),
])
def test_osc_verdict_flips_just_above_w1_2(osc_params, w1, end, verdict):
    # E1's leaving orbit runs into the origin's stable set near w1 =
    # 2.0090693507 (bisected on the leg's fate at the default options):
    # below it the leg turns, above it the prey dies out.  OSC's w1 = 2.0
    # lies 0.45% below; the verdict follows the fate whatever the probes
    wu = trace_unstable_manifold_E1(with_params(osc_params, w1=w1))
    assert wu.end.kind is end
    leg = [s.x1 for s in wu.points[:-1]]
    ws = PlanarCurve(CurveLabel.STABLE_SEPARATRIX_E0,
                     (State(min(leg), 1.0), State(max(leg), 1.0)))
    assert separatrix_relative_position(ws, wu).verdict is verdict


def test_osc_fate_flip_matches_the_scipy_bisection(osc_params):
    # scipy's DOP853 leg in the y-chart (rtol 1e-13, atol 1e-18) from the
    # same seed, bisected on its fate, flips at w1 = 2.0090693428,
    # 2.0090693460 and 2.0090693412 with max_step 0.02, 0.01 and 0.005, a
    # spread of 2.4e-9 relative (with no max_step, grazes of the turn event
    # inside one step move its flip over 2.0090694-2.0090754)
    lo, hi = 2.00906, 2.00908
    while hi - lo > 1e-11:
        mid = 0.5 * (lo + hi)
        wu = trace_unstable_manifold_E1(with_params(osc_params, w1=mid))
        if wu.end.kind is TerminationKind.PREY_EXTINCT:
            hi = mid
        else:
            lo = mid
    for scipy_flip in (2.0090693428, 2.0090693460, 2.0090693412):
        assert 0.5 * (lo + hi) == pytest.approx(scipy_flip, rel=1e-8)


# The least gap of the fan against scipy's DOP853 leg in the y-chart (rtol
# 1e-13, atol 1e-15) from the same seed, read at each probe's first
# crossing, and the probe it lies at.
_SCIPY_MARGINS = {"osc": (0.09431066696894774, 1.3892551477725805),
                  "enriched": (0.40486534997092916, 9.04761904761905),
                  "enriched_r_0.3": (24.541367367216502, 5.297044866882048)}


@pytest.mark.parametrize("name", sorted(_SCIPY_MARGINS))
def test_the_margin_is_scipys_at_the_probe_scipy_names(osc_params, name):
    p = _fan_sets(osc_params)[name]
    margin, x1 = _SCIPY_MARGINS[name]
    cmp_ = separatrix_relative_position(trace_stable_separatrix_E0(p),
                                        trace_unstable_manifold_E1(p))
    assert cmp_.margin == pytest.approx(margin, rel=1e-6)
    assert cmp_.gap_at[0] == x1


@pytest.mark.parametrize("name", ["osc", "enriched", "enriched_r_0.3"])
def test_manifold_is_the_descending_prefix_of_the_long_trace(osc_params, monkeypatch, name):
    # the manifold ends at its leg's first turn: state for state the prefix
    # of a fate run from the same seed to the horizon, through its first
    # state with dy/dt > 0, y = x1**(1-m1) the run's chart
    p = _fan_sets(osc_params)[name]
    geo = sys.modules["predprey.geometry"]
    seeds = []
    monkeypatch.setattr(geo, "_fate_run",
                        lambda p, ic, *args: seeds.append(ic) or _fate_run(p, ic, *args))
    wu = trace_unstable_manifold_E1(p)
    full = _fate_run(p, seeds[0], IntegratorOptions(horizon=500.0))
    f = make_y_rhs(p)
    turns = [i for i, s in enumerate(full.states) if f(*s)[0] > 0.0]
    _in_x1(p, full)
    if name == "enriched":
        # the leg runs into prey extinction, which ends both runs
        assert full.termination.kind is TerminationKind.PREY_EXTINCT
        assert not turns
        assert repr(wu.points) == repr(tuple(full.states))
    else:
        assert len(full) > turns[0] + 1
        assert repr(wu.points) == repr(tuple(full.states[:turns[0] + 1]))
        # x1 still falls into the turning state, and climbs only after it;
        # on enriched_r_0.3 the turn falls inside the step into the turning
        # state (the first accepted one with dy/dt > 0), which lies 6.7e-4
        # relative above the state before
        x1, t = full.x1, turns[0]
        if name == "enriched_r_0.3":
            assert all(b < a for a, b in zip(x1[:t - 1], x1[1:t]))
            assert 0.0 < x1[t] - x1[t - 1] <= 1e-3 * x1[t - 1]
        else:
            assert all(b < a for a, b in zip(x1[:t], x1[1:t + 1]))
        assert not x1[t + 1] < x1[t]
    # the long run's fate agrees with the leg's: a turn and the horizon
    # both mean the leg did not run monotonically into extinction
    ws = trace_stable_separatrix_E0(p)
    long = PlanarCurve(CurveLabel.UNSTABLE_MANIFOLD_E1, tuple(full.states), full.termination)
    assert (separatrix_relative_position(ws, long).verdict
            is separatrix_relative_position(ws, wu).verdict)


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
    # the integrator options are the launches' only home: the trace (a
    # geometry._run) and the launches (integrate._fate_run's _run), all
    # y-chart runs, run to their horizon
    run = sys.modules["predprey.integrate"]._run
    seen = []

    def recording(f, ic, opts, *args, **kwargs):
        seen.append(opts.horizon)
        return run(f, ic, opts, *args, **kwargs)

    for name in ("predprey.integrate", "predprey.geometry"):
        monkeypatch.setattr(sys.modules[name], "_run", recording)
    separatrix_boundary_x2(osc_params, 1.389, IntegratorOptions(horizon=horizon))
    assert len(seen) >= 3
    assert all(h == horizon for h in seen)


def test_probe_makes_only_the_steps_field_calls(osc_params, monkeypatch):
    # Wrap the make_rhs products where the integrator and this module look
    # them up, as the bench trace shim does, and the make_y_rhs products
    # where the integrator's _y_chart looks them up.  The turnaround test reads the
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
    integ = sys.modules["predprey.integrate"]
    monkeypatch.setattr(integ, "make_y_rhs", counting(integ.make_y_rhs))
    run = integ._run

    def counted_run(*args, **kwargs):
        traj = run(*args, **kwargs)
        steps.append(len(traj) - 1)
        return traj

    for name in ("predprey.integrate", "predprey.geometry"):
        monkeypatch.setattr(sys.modules[name], "_run", counted_run)
    separatrix_boundary_x2(osc_params, 1.389)  # a station of the default fan
    # one backward trace from the threshold and the two launches that
    # certify it, all three in the y-chart: 192 accepted steps (64 + 66 +
    # 62), against 251 (64 + 95 + 92) when the launches ran in the x-chart,
    # 308 when the trace did too, at abs_tol 1e-3 * thr, and 31 launches
    # and 681 steps when the probe was bisected on a ladder of sections
    assert len(steps) == 3
    assert len(calls) <= 6.1 * sum(steps)
    assert sum(steps) <= 1.25 * 192


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
    plain = [geo._bisect_probe(p, x, psi(x, p), opts, _y_chart(p, opts)) for x in ws.x1s()]
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
    run = geo._run
    runs = []

    def counted_run(*args, sign=1.0, **kwargs):
        runs.append(sign < 0.0)
        return run(*args, sign=sign, **kwargs)

    for name in ("predprey.integrate", "predprey.geometry"):
        monkeypatch.setattr(sys.modules[name], "_run", counted_run)
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
    chart = _y_chart(osc_params, opts)
    assert repr(got) == repr(geo._bisect_probe(osc_params, 1.389, psi(1.389, osc_params), opts,
                                               chart))


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
            got = geo._trace_to_probe(p, x, opts, _y_chart(p, opts))
            assert math.isnan(got) == math.isnan(want), (p, x)
            if not math.isnan(want):
                reached += 1
                assert got == pytest.approx(want, rel=5e-6, abs=0.0), (p, x)
    assert reached == 241


def test_probes_near_unit_m1_are_certified_as_before(osc_params, monkeypatch):
    # near m1 = 1, x1 = y**(1/(1-m1)) amplifies the trace's error in y a
    # thousandfold; the launches still certify the trace on 65 of the 72
    # probes (64 when they ran in the x-chart, as did the trace)
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
    assert certified == 65


def _scipy_launch_fate(p, x1_0, x2_0, thr):
    """The launch classifier's fate of (x1_0, x2_0) by scipy's DOP853 at rtol
    1e-12, atol 1e-22 on the x-chart field written out here: "above" if x1
    falls through thr before dx1/dt turns positive, "below" if it turns
    first (at t = 0 included) or the run reaches t = 500."""
    from scipy.integrate import solve_ivp

    a1, a2, b1, w0, w1, d, m1, m2, r = (p.a1, p.a2, p.b1, p.w0, p.w1, p.d,
                                        p.m1, p.m2, p.r)

    def field(t, y):
        x1, x2 = max(y[0], 0.0), max(y[1], 0.0)
        inter = (r * x1 / (r * x1 + d)) ** m1 * x2 ** m2
        return [x1 * (a1 - b1 * x1) - w0 * inter, -a2 * x2 + w1 * inter]

    def extinct(t, y):
        return y[0] - thr

    def turned(t, y):
        return field(t, y)[0]
    extinct.terminal, extinct.direction = True, -1.0
    turned.terminal, turned.direction = True, 1.0
    if field(0.0, [x1_0, x2_0])[0] > 0.0:
        return "below"
    sol = solve_ivp(field, (0.0, 500.0), [x1_0, x2_0], method="DOP853", rtol=1e-12,
                    atol=1e-22, events=[extinct, turned])
    return "above" if len(sol.t_events[0]) else "below"


# Launches at trace*(1 -+ 1e-4) on _perturbed_sets(OSC, (m1,), seed=1, per=1)
# whose fate agreed with scipy's when the launches were x-chart `integrate`
# runs of the same options (abs_tol at the threshold, stop_when=_turned), of
# 48 at each m1; measured once on that code, which is gone.
_X_CHART_LAUNCH_AGREEMENT = {0.95: 48, 0.99: 47, 0.999: 44}


@pytest.mark.parametrize("m1, agree", [(0.95, 48), (0.99, 48), (0.999, 47)])
def test_launch_fates_match_scipy_near_unit_m1(osc_params, m1, agree):
    # the y-chart launches, at the trace's half rel_tol, give scipy's fate
    # 1e-4 either side of each trace at least as often as the x-chart
    # launches did
    geo = sys.modules["predprey.geometry"]
    opts = IntegratorOptions(horizon=500.0)
    agree_y = 0
    for p in _perturbed_sets(osc_params, (m1,), seed=1, per=1):
        chart = _y_chart(p, opts)
        for x in geo._probe_stations(p, SeparatrixOptions()):
            y = geo._trace_to_probe(p, x, opts, chart)
            if math.isnan(y):
                continue
            for x2 in (y * (1.0 - geo._CERTIFY_MARGIN), y * (1.0 + geo._CERTIFY_MARGIN)):
                want = _scipy_launch_fate(p, x, x2, opts.extinction_threshold)
                agree_y += geo._classify_launch(p, x, x2, opts, chart) == (want == "above")
    assert agree_y == agree
    assert agree_y >= _X_CHART_LAUNCH_AGREEMENT[m1]


def test_separatrix_explicit_probe_list(osc_params):
    ws = trace_stable_separatrix_E0(osc_params, probe_x1=[5.0, 4.0])
    assert ws.label is CurveLabel.STABLE_SEPARATRIX_E0
    assert [s.x1 for s in ws.points] == [4.0, 5.0]  # sorted by abscissa
    assert ws.points[1].x2 == separatrix_boundary_x2(osc_params, 5.0)


def _end(kind: TerminationKind) -> Termination:
    """A hand-built curve's end: a run that ended `kind`."""
    return Termination(kind, 0.0)


def test_relative_position_verdicts():
    # the verdict is the manifold run's fate; the probes only measure it
    ws = PlanarCurve(CurveLabel.STABLE_SEPARATRIX_E0,
                     (State(1.0, 5.0), State(4.0, 5.0), State(8.0, 5.0)))
    wu = PlanarCurve(CurveLabel.UNSTABLE_MANIFOLD_E1,
                     (State(9.0, 2.0), State(5.0, 2.0), State(1.0, 2.0)),
                     _end(TerminationKind.STOPPED))
    cmp_ = separatrix_relative_position(ws, wu)
    assert cmp_.verdict is Verdict.WS_ABOVE_WU
    assert cmp_.margin == pytest.approx(3.0)
    assert cmp_.contradicted == 0

    wu_hi = PlanarCurve(CurveLabel.UNSTABLE_MANIFOLD_E1,
                        (State(9.0, 9.0), State(5.0, 9.0), State(1.0, 9.0)),
                        _end(TerminationKind.PREY_EXTINCT))
    hi = separatrix_relative_position(ws, wu_hi)
    assert hi.verdict is Verdict.WU_ABOVE_WS and hi.contradicted == 0
    horizon = replace(wu_hi, end=_end(TerminationKind.HORIZON_REACHED))
    assert separatrix_relative_position(ws, horizon).verdict is Verdict.WS_ABOVE_WU
    assert separatrix_relative_position(ws, horizon).contradicted == 3

    # gaps -5, -1.25 and 3.75 at the probes x1 = 1, 4 and 8: the fate
    # decides, and the probes of the other sign are counted against it
    wu_x = PlanarCurve(CurveLabel.UNSTABLE_MANIFOLD_E1,
                       (State(9.0, 0.0), State(5.0, 5.0), State(1.0, 10.0)),
                       _end(TerminationKind.STOPPED))
    turned = separatrix_relative_position(ws, wu_x)
    assert (turned.verdict, turned.contradicted) == (Verdict.WS_ABOVE_WU, 2)
    assert turned.gap_at == (4.0, -1.25) and turned.margin == 1.25
    died = replace(wu_x, end=_end(TerminationKind.PREY_EXTINCT))
    extinct = separatrix_relative_position(ws, died)
    assert (extinct.verdict, extinct.contradicted) == (Verdict.WU_ABOVE_WS, 1)

    # a curve that no single run traced has no fate to read
    for end in (None, _end(TerminationKind.BLOWUP)):
        with pytest.raises(DomainError, match="no fate"):
            separatrix_relative_position(ws, replace(wu, end=end))

    # probes on both ends of the shared range are compared, and nothing
    # between them is sampled
    lo, hi = 0.11388236146134381, 0.4809941328089724
    ws_r = PlanarCurve(CurveLabel.STABLE_SEPARATRIX_E0, (State(lo, 3.0), State(hi, 4.0)))
    wu_r = PlanarCurve(CurveLabel.UNSTABLE_MANIFOLD_E1, (State(hi, 1.0), State(lo, 2.0)),
                       _end(TerminationKind.STOPPED))
    cmp_r = separatrix_relative_position(ws_r, wu_r)
    assert cmp_r.x1_range == (lo, hi)
    assert cmp_r.gap_at == (lo, 1.0)

    # the leg is read in run order: where its x1 climbs back (5 -> 6), the
    # probe at 5.5 is read on the first segment that brackets it, 9 -> 5,
    # not on 5 -> 6 (x2 = 2.5) or 6 -> 1 (x2 = 3.1)
    wob = PlanarCurve(CurveLabel.UNSTABLE_MANIFOLD_E1,
                      (State(9.0, 1.0), State(5.0, 2.0), State(6.0, 3.0), State(1.0, 4.0)),
                      _end(TerminationKind.PREY_EXTINCT))
    ws_w = PlanarCurve(CurveLabel.STABLE_SEPARATRIX_E0, (State(5.5, 3.0), State(8.0, 3.0)))
    cmp_w = separatrix_relative_position(ws_w, wob)
    assert cmp_w.gap_at == (5.5, 1.125)
    assert (cmp_w.verdict, cmp_w.contradicted) == (Verdict.WU_ABOVE_WS, 2)
    assert cmp_w.x1_range == (5.5, 8.0)


def test_relative_position_checks_labels_and_overlap():
    a = PlanarCurve(CurveLabel.STABLE_SEPARATRIX_E0,
                    (State(1.0, 5.0), State(2.0, 5.0)))
    b = PlanarCurve(CurveLabel.UNSTABLE_MANIFOLD_E1,
                    (State(9.0, 2.0), State(8.0, 2.0)), _end(TerminationKind.STOPPED))
    with pytest.raises(DomainError):
        separatrix_relative_position(b, a)  # swapped roles
    with pytest.raises(DomainError):
        separatrix_relative_position(a, b)  # no shared x1 range
    # ranges that overlap between two probes share no probe to compare at
    c = PlanarCurve(CurveLabel.STABLE_SEPARATRIX_E0, (State(7.0, 5.0), State(10.0, 5.0)))
    with pytest.raises(DomainError, match="no probe"):
        separatrix_relative_position(c, b)


# Perturbed OSC and ENRICHED sets (m2 = r = 1) on which the fan, compared
# with the leg on 200 interpolated stations, changed sign: the comparison
# read the interpolation error of two close curves as a crossing.  The leg
# read by chords still gave osc_118 and enriched_121 one probe of the wrong
# sign; read at each probe's crossing none has, as on scipy's DOP853 leg in
# the y-chart (rtol 1e-13), whose 12 gaps on each set are all negative.
_CLOSE_SETS = {
    "osc_100": (dict(a1=0.5986303975777371, a2=1.0134769541427935, b1=0.06048433786895544,
                     w0=0.972880678668507, w1=2.036565036798035, d=2.028885560447717,
                     m1=0.8043059254642961),
                TerminationKind.STOPPED, Verdict.WS_ABOVE_WU, 0),
    "osc_118": (dict(a1=0.6121927204616904, a2=0.997419141548853, b1=0.062210468322573306,
                     w0=1.0488850384888118, w1=2.03362475712885, d=2.0120017055565897,
                     m1=0.8109207850986225),
                TerminationKind.PREY_EXTINCT, Verdict.WU_ABOVE_WS, 0),
    "enriched_121": (dict(a1=1.9807886066905247, a2=0.9932984423583074,
                          b1=0.20559014509618556, w0=1.0140024605946736,
                          w1=1.937781211049312, d=2.0482869946019036,
                          m1=0.8393501617002028),
                     TerminationKind.PREY_EXTINCT, Verdict.WU_ABOVE_WS, 0),
}


@pytest.mark.parametrize("name", sorted(_CLOSE_SETS))
def test_close_curves_get_the_fate_of_the_leg(name):
    rates, end, verdict, contradicted = _CLOSE_SETS[name]
    p = ModelParams(**rates, m2=1.0, r=1.0)
    wu = trace_unstable_manifold_E1(p)
    cmp_ = separatrix_relative_position(trace_stable_separatrix_E0(p), wu)
    assert wu.end.kind is end
    assert cmp_.verdict is verdict
    assert cmp_.contradicted == contradicted
    assert cmp_.margin > 0.0


def _descending_prefix(points):
    """Longest prefix of points along which x1 strictly decreases."""
    out = [points[0]]
    for s in points[1:]:
        if not s.x1 < out[-1].x1:
            break
        out.append(s)
    return out


def _interp(xs, ys, x):
    """Piecewise-linear interpolation on ascending xs, x inside them."""
    lo = min(bisect.bisect_right(xs, x), len(xs) - 1) - 1
    t = (x - xs[lo]) / (xs[lo + 1] - xs[lo]) if xs[lo + 1] > xs[lo] else 0.0
    return ys[lo] + t * (ys[lo + 1] - ys[lo])


def _station_comparison(ws, wu):
    """The comparison the verdict came from before it was read off the
    leg's fate: the fan and the leg, both linearly interpolated, on 200
    even stations of their shared x1 range.  Returns (verdict, least
    |gap|), the verdict None where the gap changes sign, or None where
    the curves share no range."""
    leg = _descending_prefix(wu.points)[::-1]
    wu_x, wu_y = [s.x1 for s in leg], [s.x2 for s in leg]
    pts = sorted(ws.points, key=lambda s: s.x1)
    ws_x, ws_y = [s.x1 for s in pts], [s.x2 for s in pts]
    lo, hi = max(ws_x[0], wu_x[0]), min(ws_x[-1], wu_x[-1])
    if not lo < hi:
        return None
    gaps = [_interp(ws_x, ws_y, x) - _interp(wu_x, wu_y, x)
            for x in [lo + (hi - lo) * i / 199 for i in range(199)] + [hi]]
    margin = min(abs(g) for g in gaps)
    if all(g > 0.0 for g in gaps):
        return Verdict.WS_ABOVE_WU, margin
    if all(g < 0.0 for g in gaps):
        return Verdict.WU_ABOVE_WS, margin
    return None, margin


def test_fate_verdict_agrees_with_the_station_comparison_on_a_random_draw():
    # rates a1, a2, w0, w1 log-uniform on [0.2, 5], b1 on [0.02, 1] and d
    # on [0.1, 5]; m1 uniform on [0.3, 0.95], m2 = 1, r either 1 or uniform
    # on [0.2, 1].  Wherever the stations see one sign by more than 1e-3 of
    # the leg's height, the fate gives that sign.  20 of the 40 sets have E1
    # a saddle; the fan traces all of them and all 20 are compared
    rng = random.Random(3)

    def log_uniform(lo, hi):
        return lo * (hi / lo) ** rng.random()

    skipped, compared = 0, 0
    for _ in range(40):
        a1, a2, w0, w1 = (log_uniform(0.2, 5.0) for _ in range(4))
        b1, d = log_uniform(0.02, 1.0), log_uniform(0.1, 5.0)
        m1 = rng.uniform(0.3, 0.95)
        r = 1.0 if rng.random() < 0.5 else rng.uniform(0.2, 1.0)
        p = ModelParams(a1=a1, a2=a2, b1=b1, w0=w0, w1=w1, d=d, m1=m1, m2=1.0, r=r)
        try:
            wu = trace_unstable_manifold_E1(p)
            ws = trace_stable_separatrix_E0(p)
        except DomainError:  # E1 not a saddle, or no ABOVE launch at a probe
            skipped += 1
            continue
        ref = _station_comparison(ws, wu)
        if ref is None or ref[0] is None or not ref[1] > 1e-3 * max(wu.x2s()):
            continue
        compared += 1
        assert separatrix_relative_position(ws, wu).verdict is ref[0], p
    assert (skipped, compared) == (20, 20)


@pytest.mark.parametrize("rel_tol", [1e-5, 1e-7])
def test_bisection_width_follows_the_launch_tolerance(osc_params, monkeypatch, rel_tol):
    # with no trace to certify the probe falls through to the bisection:
    # its final bracket is the tightest BELOW and ABOVE launch, at most
    # rel_tol / 10 wide relative and, one halving earlier, wider than that
    geo = sys.modules["predprey.geometry"]
    classify = geo._classify_launch
    fates = {True: [], False: []}  # ABOVE and BELOW launches

    def recording(p, x1_0, x2_0, iopts, chart):
        fate = classify(p, x1_0, x2_0, iopts, chart)
        fates[fate].append(x2_0)
        return fate

    monkeypatch.setattr(geo, "_trace_to_probe", lambda *args: math.nan)
    monkeypatch.setattr(geo, "_classify_launch", recording)
    opts = IntegratorOptions(rel_tol=rel_tol, horizon=500.0)
    got = separatrix_boundary_x2(osc_params, 1.389, opts)
    lo, hi = max(fates[False]), min(fates[True])
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

    def counted(p, x1_0, x2_0, iopts, chart):
        launches.append(x2_0)
        assert len(launches) <= 1100, "the bisection does not end"
        return classify(p, x1_0, x2_0, iopts, chart)

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
