from __future__ import annotations

import math
import random
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predprey import (
    DomainError,
    IntegratorOptions,
    ModelParams,
    State,
    TerminationKind,
    integrate,
    integrate_u_system,
    with_params,
)
from predprey.integrate import (
    _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54,
    _A61, _A62, _A63, _A64, _A65, _A71, _A73, _A74, _A75, _A76,
    _BETA1, _BETA2, _D1, _D3, _D4, _D5, _D6, _D7, _E1, _E3, _E4, _E5, _E6, _E7,
    _MAX_FACTOR, _MIN_FACTOR, _SAFETY, U_BLOWUP_CEILING, Termination, _crossing, _dense_value,
    _prey_died, _run,
)
from predprey.geometry import _turned
from predprey.model import make_rhs, make_u_rhs, make_y_rhs


@pytest.mark.parametrize("bad", [
    dict(rel_tol=0.0), dict(abs_tol=-1e-9), dict(min_step=0.0),
    dict(min_step=2.0, max_step=1.0), dict(horizon=0.0),
    dict(horizon=math.inf), dict(extinction_threshold=0.0),
    dict(extinction_threshold=1.0),
    # non-finite tolerances switch error control off
    dict(rel_tol=math.inf), dict(abs_tol=math.inf), dict(rel_tol=math.nan),
    dict(abs_tol=math.nan),
])
def test_options_validation(bad):
    with pytest.raises(DomainError):
        IntegratorOptions(**bad)


def test_horizon_is_landed_exactly(osc_params):
    opts = IntegratorOptions(horizon=7.5)
    traj = integrate(osc_params, State(5.0, 1.0), opts)
    assert traj.termination.kind is TerminationKind.HORIZON_REACHED
    assert traj.final_time == 7.5
    assert traj.times[-1] == 7.5


def test_times_monotone_states_nonnegative(osc_params):
    traj = integrate(osc_params, State(5.0, 1.0), IntegratorOptions(horizon=40.0))
    assert all(b > a for a, b in zip(traj.times, traj.times[1:]))
    for s in traj.states:
        assert s.x1 >= 0.0 and s.x2 >= 0.0
        assert math.isfinite(s.x1) and math.isfinite(s.x2)


def test_trajectory_is_float_columns(osc_params):
    traj = integrate(osc_params, State(5.0, 1.0), IntegratorOptions(horizon=10.0))
    assert len(traj) == len(traj.times) == len(traj.x1) == len(traj.x2) > 2
    assert all(type(v) is float for v in traj.times + traj.x1 + traj.x2)
    assert traj.states == [State(a, b) for a, b in zip(traj.x1, traj.x2)]
    assert traj.final_state == State(traj.x1[-1], traj.x2[-1])
    with pytest.raises(AttributeError):
        traj.states = []  # a view of the columns, not a field


# The documented domain: rates spanning four decades, exponents and refuge
# in (0, 1] with 1 itself drawn often.
RATE = st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e)
UNIT = st.one_of(st.just(1.0), st.floats(1e-2, 1.0))
DOMAIN = st.builds(ModelParams, a1=RATE, a2=RATE, b1=RATE, w0=RATE, w1=RATE, d=RATE,
                   m1=UNIT, m2=UNIT, r=UNIT)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(p=DOMAIN, u1=st.floats(0.0, 2.0), u2=st.floats(0.0, 10.0))
def test_trajectory_invariants(p, u1, u2):
    cap = p.carrying_capacity
    x1_0 = u1 * cap
    traj = integrate(p, State(x1_0, u2 * max(1.0, cap)), IntegratorOptions(horizon=20.0))
    assert len(traj.times) == len(traj.x1) == len(traj.x2)
    assert all(b > a for a, b in zip(traj.times, traj.times[1:]))
    assert min(traj.x1) >= 0.0 and min(traj.x2) >= 0.0
    # dx1/dt < 0 wherever x1 > a1/b1: the prey never climbs above its start
    # or the carrying capacity, up to the local error
    assert max(traj.x1) <= max(x1_0, cap) * (1.0 + 1e-6)


def test_rejects_negative_initial_condition(osc_params):
    with pytest.raises(DomainError):
        integrate(osc_params, State(-0.1, 1.0))


def test_prey_extinction_event(osc_params):
    opts = IntegratorOptions(horizon=100.0)
    traj = integrate(osc_params, State(0.3, 50.0), opts)
    t = traj.termination
    assert t.kind is TerminationKind.PREY_EXTINCT
    assert 0.0 < t.time < 1.0
    # The event should be localized on the crossing, not at a raw step end.
    assert abs(traj.final_state.x1 - opts.extinction_threshold) <= opts.extinction_threshold
    assert traj.final_state.x2 > 1.0


def test_underflowing_refuge_product_keeps_the_run_short():
    # with r = 5e-324, r*x1 underflows to 0 below x1 = 0.5; g taken from it
    # jumped there, and the run slid along the jump: 145 528 states by t = 8
    p = ModelParams(a1=0.1, a2=0.1, b1=0.1, w0=0.1, w1=0.1, d=0.1, m1=1e-10,
                    m2=5e-324, r=5e-324)
    assert len(integrate(p, State(1.0, 0.01), IntegratorOptions(horizon=5.0))) == 17
    traj = integrate(p, State(1.0, 0.01), IntegratorOptions(horizon=200.0))
    assert traj.termination.kind is TerminationKind.PREY_EXTINCT
    assert len(traj) == 41


def test_the_predator_never_dies_in_finite_time(bistable_params):
    # w1*g*x2**m2 >= 0, so dx2/dt >= -a2*x2 and x2(t) >= x2(0)*exp(-a2*t) > 0
    # for m2 = 0.5 as for m2 = 1: each run reaches its horizon, with x2 on
    # or above that bound at every stored state (a threshold on x2 would
    # only report the bound's own decay time, ln(0.5/1e-9)/a2 = 28.6 from
    # the first start).  The prey starts below the threshold and never
    # climbs to it, so no step falls through it.
    p = bistable_params
    assert p.m2 < 1.0
    for ic, horizon in (((1e-12, 0.5), 100.0), ((5e-10, 5e-10), 500.0)):
        traj = integrate(p, State(*ic), IntegratorOptions(horizon=horizon))
        assert traj.termination == Termination(TerminationKind.HORIZON_REACHED, horizon)
        bound = [ic[1] * math.exp(-p.a2 * t) for t in traj.times]
        assert min(x2 / b for x2, b in zip(traj.x2, bound)) >= 1.0, ic

    # With m2 = 1 the predator axis is likewise reached only as t -> inf.
    p1 = with_params(p, m2=1.0)
    traj1 = integrate(p1, State(1e-12, 0.5), IntegratorOptions(horizon=40.0))
    assert traj1.termination.kind is TerminationKind.HORIZON_REACHED
    assert traj1.final_state.x2 < 1e-9


def test_stop_when_checks_initial_state(osc_params):
    traj = integrate(osc_params, State(5.0, 1.0),
                     stop_when=lambda t, x1, x2, dx1, dx2: x1 > 1.0)
    assert traj.termination.kind is TerminationKind.STOPPED
    assert traj.termination.time == 0.0
    assert len(traj) == 1


def test_stop_when_mid_run(osc_params):
    traj = integrate(osc_params, State(5.0, 0.05),
                     stop_when=lambda t, x1, x2, dx1, dx2: x1 > 7.0)
    assert traj.termination.kind is TerminationKind.STOPPED
    assert traj.final_state.x1 > 7.0


def test_step_failure_when_floor_blocks_shrinking(osc_params):
    opts = IntegratorOptions(rel_tol=1e-13, abs_tol=1e-16,
                             min_step=0.4, max_step=0.5, horizon=10.0)
    traj = integrate(osc_params, State(0.3, 50.0), opts)
    assert traj.termination.kind is TerminationKind.STEP_FAILURE
    assert traj.termination.reason


def test_every_end_is_a_fate_or_raises():
    # the one fate rule: the extinction event is a death, a stop or the
    # horizon is not; a step failure or a ceiling decides nothing, and the
    # error names the whole termination
    died = {TerminationKind.PREY_EXTINCT: True, TerminationKind.STOPPED: False,
            TerminationKind.HORIZON_REACHED: False}
    for kind in TerminationKind:
        end = Termination(kind, 2.5, "synthetic reason")
        if kind in died:
            assert _prey_died(end) is died[kind]
            continue
        assert kind in (TerminationKind.BLOWUP, TerminationKind.STEP_FAILURE)
        with pytest.raises(DomainError, match=f"no fate.*{kind.value}.*2.5.*synthetic reason"):
            _prey_died(end)


def test_tolerance_refinement_converges(osc_params):
    ic = State(5.0, 1.0)
    loose = integrate(osc_params, ic,
                      IntegratorOptions(rel_tol=1e-6, abs_tol=1e-9, horizon=20.0))
    tight = integrate(osc_params, ic,
                      IntegratorOptions(rel_tol=1e-12, abs_tol=1e-14, horizon=20.0))
    assert loose.final_state.x1 == pytest.approx(tight.final_state.x1, rel=1e-4)
    assert loose.final_state.x2 == pytest.approx(tight.final_state.x2, rel=1e-4)


def test_u_chart_blowup_at_prey_touchdown(osc_params):
    traj = integrate_u_system(osc_params, State(1.0 / 0.3, 50.0),
                              IntegratorOptions(horizon=100.0))
    assert traj.termination.kind is TerminationKind.BLOWUP
    assert 0.1 < traj.termination.time < 0.2
    assert traj.final_state.x1 > 1e10  # u has left the chart


def test_u_chart_rejects_nonpositive_u(osc_params):
    with pytest.raises(DomainError):
        integrate_u_system(osc_params, State(0.0, 1.0))


@pytest.mark.parametrize("u", [2.0 * U_BLOWUP_CEILING, math.inf, math.nan])
def test_u_chart_rejects_u_past_the_ceiling(osc_params, u):
    # a start past the blowup ceiling has no upward crossing to locate
    with pytest.raises(DomainError, match="u-chart initial condition"):
        integrate_u_system(osc_params, State(u, 1.0))
    # a start on the ceiling blows up at once, at t = 0 on the ceiling
    at = integrate_u_system(osc_params, State(U_BLOWUP_CEILING, 1.0),
                            IntegratorOptions(horizon=1.0))
    assert at.termination == Termination(TerminationKind.BLOWUP, 0.0)
    assert at.x1[-1] == U_BLOWUP_CEILING


# --------------------------------------------------------------------------
# Level crossings located on the step's continuous extension.

def _constant_field(v1, v2):
    def field(x1, x2):
        return v1, v2
    return field


def test_only_the_prey_crossing_is_located():
    # x2 falls through 0.5 at t = 0.1, unwatched; the prey reaches it at
    # t = 0.125, and the run ends there, with x2 read on the same extension
    traj = _run(_constant_field(-2.0, -1.0), (0.75, 0.6), IntegratorOptions(), floor=0.5)
    assert traj.termination.kind is TerminationKind.PREY_EXTINCT
    assert traj.termination.time == pytest.approx(0.125, rel=1e-14)
    assert traj.x1[-1] == pytest.approx(0.5, rel=1e-15)
    assert traj.x2[-1] == pytest.approx(0.475, rel=1e-14)


def test_crossing_is_exact_where_the_solution_is_a_cubic():
    # x2' = 1 and x1' = -3*x2**2 from (1, 0.5): x1 = 1.125 - (0.5 + t)**3,
    # a cubic the continuous extension reproduces, so the prey threshold
    # 0.25 is met at the cube root's time to rounding (the chord of the
    # step misses it by O(h**2))
    def f(x1, x2):
        return -3.0 * x2 * x2, 1.0

    traj = _run(f, (1.0, 0.5), IntegratorOptions(), floor=0.25)
    root = 0.875 ** (1.0 / 3.0) - 0.5
    assert traj.termination.kind is TerminationKind.PREY_EXTINCT
    assert len(traj) > 2  # the crossing lies inside a step, not on the first
    assert traj.termination.time == pytest.approx(root, rel=2e-14)
    assert traj.x1[-1] == pytest.approx(0.25, rel=2e-14)
    assert traj.x2[-1] == pytest.approx(0.5 + root, rel=2e-14)


def test_a_fall_through_the_floor_ends_the_run_whatever_came_before():
    # x1 = 0.5*thr + s*t - t**2/2 with s = sqrt(2*thr) (x2 = t is the clock):
    # from below the floor the prey peaks at 1.5*thr, short of the twice-thr
    # level an arming rule would ask for, and falls through thr at
    # t = sqrt(2*thr) + sqrt(thr), where the run ends
    thr = 1e-9
    s = math.sqrt(2.0 * thr)
    traj = _run(lambda x1, x2: (s - x2, 1.0), (0.5 * thr, 0.0), IntegratorOptions(), floor=thr)
    assert traj.termination.kind is TerminationKind.PREY_EXTINCT
    assert traj.termination.time == pytest.approx(s + math.sqrt(thr), rel=1e-9)
    assert max(traj.x1) < 1.5 * thr
    assert traj.x1[-1] == pytest.approx(thr, rel=1e-9)


def test_a_start_on_a_level_ends_at_t0_only_when_it_crosses():
    opts = IntegratorOptions(horizon=3.0)
    # falling from the floor, or climbing from the ceiling: the crossing is
    # the start itself
    down = _run(_constant_field(-1.0, 0.0), (0.5, 1.0), opts, floor=0.5)
    up = _run(_constant_field(1.0, 0.0), (0.5, 1.0), opts, ceiling=0.5)
    assert down.termination == Termination(TerminationKind.PREY_EXTINCT, 0.0)
    assert up.termination == Termination(TerminationKind.BLOWUP, 0.0)
    assert down.x1[-1] == up.x1[-1] == 0.5
    # a run that passes down through its ceiling, or up through its floor,
    # crosses neither level in the direction watched
    for v, levels in ((-1.0, dict(ceiling=0.5)), (1.0, dict(floor=0.5))):
        traj = _run(_constant_field(v, 0.0), (0.5 - 0.25 * v, 1.0), opts, **levels)
        assert traj.termination == Termination(TerminationKind.HORIZON_REACHED, 3.0), levels


def _exact_extension(th, y0, y1, hf0, hf1, q):
    th, y0, y1, hf0, hf1, q = map(Fraction, (th, y0, y1, hf0, hf1, q))
    w = th * (1 - th)
    return (y0 + th * (hf0 + th * (3 * (y1 - y0) - 2 * hf0 - hf1
                                   + th * (2 * (y0 - y1) + hf0 + hf1))) + w * w * q)


@pytest.mark.parametrize("y0, y1, hf0, hf1, q, level", [
    # downward through the extinction threshold
    (3.7e-9, -4.1e-10, -4.4e-9, -3.6e-9, 2.5e-10, 1e-9),
    (1.3e-9, 2.9e-10, -1.1e-9, -0.9e-9, -4e-11, 1e-9),
    # upward through the u-chart's blowup ceiling
    (9.31e11, 1.77e12, 6.1e11, 1.2e12, -3.3e10, U_BLOWUP_CEILING),
], ids=["prey_down", "predator_down", "u_up"])
def test_locate_level_lands_on_the_level(y0, y1, hf0, hf1, q, level):
    # the located fraction is the extension's exact crossing, to the
    # bisection's 2**-52
    th = _crossing(level, y0, y1, hf0, hf1, q)
    lo, hi = Fraction(0), Fraction(1)
    up = y1 > level
    for _ in range(80):
        mid = (lo + hi) / 2
        past = _exact_extension(mid, y0, y1, hf0, hf1, q) - Fraction(level)
        if (past > 0) if up else (past < 0):
            hi = mid
        else:
            lo = mid
    assert 0.0 <= th < 1.0
    assert abs(Fraction(th) - lo) <= Fraction(2.0 ** -52)
    located = _dense_value(th, y0, y1, hf0, hf1, q)
    assert abs(located - level) <= 4.0 * math.ulp(max(abs(y0), abs(y1)))
    # a start on the level is located there
    assert _crossing(level, level, y1, hf0, hf1, q) == 0.0


# --------------------------------------------------------------------------
# Reference: the integrator loop as it stood with a separate step function
# (`_try_step`) and per-event objects.  The inlined loop must reproduce it
# float for float.

class _RefEvent:
    """A downward level on one component: it fires on a step from on or
    above the threshold to below it, whatever came before."""

    def __init__(self, index, threshold, kind):
        self.index = index
        self.threshold = threshold
        self.kind = kind


def _ref_initial_step(f, y1, y2, opts, direction_cap):
    f1, f2 = f(y1, y2)
    sc1 = opts.abs_tol + opts.rel_tol * abs(y1)
    sc2 = opts.abs_tol + opts.rel_tol * abs(y2)
    d0 = math.sqrt(0.5 * ((y1 / sc1) ** 2 + (y2 / sc2) ** 2))
    d1 = math.sqrt(0.5 * ((f1 / sc1) ** 2 + (f2 / sc2) ** 2))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    return max(opts.min_step, min(h0, opts.max_step, direction_cap))


def _ref_stages(f, y1, y2, k1, k2, h):
    """One step of size h from (y1, y2), where f is (k1, k2): the trial
    state, the field there, the error estimate and the quartic term of the
    step's continuous extension."""
    a1 = y1 + h * _A21 * k1
    a2 = y2 + h * _A21 * k2
    s21, s22 = f(a1, a2)
    a1 = y1 + h * (_A31 * k1 + _A32 * s21)
    a2 = y2 + h * (_A31 * k2 + _A32 * s22)
    s31, s32 = f(a1, a2)
    a1 = y1 + h * (_A41 * k1 + _A42 * s21 + _A43 * s31)
    a2 = y2 + h * (_A41 * k2 + _A42 * s22 + _A43 * s32)
    s41, s42 = f(a1, a2)
    a1 = y1 + h * (_A51 * k1 + _A52 * s21 + _A53 * s31 + _A54 * s41)
    a2 = y2 + h * (_A51 * k2 + _A52 * s22 + _A53 * s32 + _A54 * s42)
    s51, s52 = f(a1, a2)
    a1 = y1 + h * (_A61 * k1 + _A62 * s21 + _A63 * s31 + _A64 * s41 + _A65 * s51)
    a2 = y2 + h * (_A61 * k2 + _A62 * s22 + _A63 * s32 + _A64 * s42 + _A65 * s52)
    s61, s62 = f(a1, a2)
    z1 = y1 + h * (_A71 * k1 + _A73 * s31 + _A74 * s41 + _A75 * s51 + _A76 * s61)
    z2 = y2 + h * (_A71 * k2 + _A73 * s32 + _A74 * s42 + _A75 * s52 + _A76 * s62)
    k1n, k2n = f(z1, z2)
    e1 = h * (_E1 * k1 + _E3 * s31 + _E4 * s41 + _E5 * s51 + _E6 * s61 + _E7 * k1n)
    e2 = h * (_E1 * k2 + _E3 * s32 + _E4 * s42 + _E5 * s52 + _E6 * s62 + _E7 * k2n)
    q1 = h * (_D1 * k1 + _D3 * s31 + _D4 * s41 + _D5 * s51 + _D6 * s61 + _D7 * k1n)
    q2 = h * (_D1 * k2 + _D3 * s32 + _D4 * s42 + _D5 * s52 + _D6 * s62 + _D7 * k2n)
    return z1, z2, k1n, k2n, e1, e2, q1, q2


def _ref_try_step(f, y1, y2, k1, k2, h, opts):
    try:
        z1, z2, k1n, k2n, e1, e2, q1, q2 = _ref_stages(f, y1, y2, k1, k2, h)
    except (OverflowError, ZeroDivisionError, DomainError):
        return False, math.inf
    if not (math.isfinite(z1) and math.isfinite(z2)):
        return False, math.inf
    sc1 = opts.abs_tol + opts.rel_tol * max(abs(y1), abs(z1))
    sc2 = opts.abs_tol + opts.rel_tol * max(abs(y2), abs(z2))
    err = math.sqrt(0.5 * ((e1 / sc1) ** 2 + (e2 / sc2) ** 2))
    if not math.isfinite(err):
        return False, math.inf
    if err > 1.0:
        return False, err
    return True, (z1, z2, err, k1n, k2n, q1, q2)


def _ref_run(f, ic, opts, events, stop_when, ceiling):
    # the predicate gets a fresh field evaluation at each accepted state, so
    # the exact comparison also checks the loop's FSAL derivative
    t = 0.0
    y1, y2 = ic
    traj = SimpleNamespace(times=[], states=[], termination=None)
    traj.times.append(t)
    traj.states.append(State(y1, y2))
    if stop_when is not None and stop_when(t, y1, y2, *f(y1, y2)):
        traj.termination = Termination(TerminationKind.STOPPED, t)
        return traj
    h = _ref_initial_step(f, y1, y2, opts, opts.horizon)
    k1, k2 = f(y1, y2)
    err_prev = 1.0
    while t < opts.horizon:
        h = min(h, opts.horizon - t)
        if h < opts.min_step:
            h = opts.min_step
        ok, out = _ref_try_step(f, y1, y2, k1, k2, h, opts)
        if not ok:
            err = out
            if h <= opts.min_step:
                traj.termination = Termination(
                    TerminationKind.STEP_FAILURE, t,
                    f"step size underflow at t={t!r} (err={err!r})")
                return traj
            if math.isfinite(err) and err > 0.0:
                fac = max(_MIN_FACTOR, _SAFETY * err ** (-0.2))
            else:
                fac = 0.5
            h = max(opts.min_step, h * min(1.0, fac))
            continue
        z1, z2, err, k1n, k2n, q1, q2 = out
        t_new = t + h
        if t_new >= opts.horizon:
            t_new = opts.horizon
        # each level crossed, as (component, level, kind), the events
        # before the ceiling; the earliest crossing on the step's
        # continuous extension wins, the first listed a tie (the package
        # watches one level per run, so at most one is ever crossed)
        crossed = [(ev.index, ev.threshold, ev.kind) for ev in events
                   if (z1, z2)[ev.index] < ev.threshold <= (y1, y2)[ev.index]]
        if ceiling is not None and y1 <= ceiling < z1:
            crossed.append((0, ceiling, TerminationKind.BLOWUP))
        ends = ((y1, z1, h * k1, h * k1n, q1), (y2, z2, h * k2, h * k2n, q2))
        fired = None
        for index, level, kind in crossed:
            v0, v1, hf0, hf1, q = ends[index]
            th = _crossing(level, v0, v1, hf0, hf1, q)
            if fired is None or th < fired[0]:
                fired = (th, kind)
        if fired is not None:
            th, kind = fired
            te = t + th * (t_new - t)
            ye1, ye2 = (_dense_value(th, *end) for end in ends)
            traj.times.append(te)
            traj.states.append(State(max(ye1, 0.0), max(ye2, 0.0)))
            traj.termination = Termination(kind, te)
            return traj
        t, y1, y2, k1, k2 = t_new, max(z1, 0.0), max(z2, 0.0), k1n, k2n
        traj.times.append(t)
        traj.states.append(State(y1, y2))
        if stop_when is not None and stop_when(t, y1, y2, *f(y1, y2)):
            traj.termination = Termination(TerminationKind.STOPPED, t)
            return traj
        if err == 0.0:
            fac = _MAX_FACTOR
        else:
            fac = _SAFETY * err ** (-_BETA1) * err_prev ** _BETA2
            fac = min(_MAX_FACTOR, max(_MIN_FACTOR, fac))
        h = min(opts.max_step, h * fac)
        err_prev = max(err, 1e-10)
    traj.termination = Termination(TerminationKind.HORIZON_REACHED, t)
    return traj


def _ref_integrate(p, ic, opts, stop_when=None):
    thr = opts.extinction_threshold
    events = [_RefEvent(0, thr, TerminationKind.PREY_EXTINCT)]
    return _ref_run(make_rhs(p), (ic.x1, ic.x2), opts, events, stop_when, None)


_OSC = ModelParams(a1=0.6, a2=1.0, b1=0.063, w0=1.0, w1=2.0, d=2.0, m1=0.8, m2=1.0)
_BISTABLE = ModelParams(a1=0.5, a2=0.7, b1=0.05, w0=0.2, w1=4.0, d=0.2, m1=0.5, m2=0.5)
_K = TerminationKind

# (params, initial state, options, stop_when, expected termination)
_REFERENCE_CASES = {
    "osc_horizon_2000": (_OSC, (5.0, 1.0), dict(horizon=2000.0), None, _K.HORIZON_REACHED),
    "osc_touchdown": (_OSC, (0.3, 50.0), dict(horizon=100.0), None, _K.PREY_EXTINCT),
    # prey below the threshold, never climbing to it; the predator decays
    # like exp(-a2 t) with no event to end the run
    "bistable_predator_event": (_BISTABLE, (1e-12, 0.5), dict(horizon=100.0), None,
                                _K.HORIZON_REACHED),
    "bistable_both_armed": (_BISTABLE, (3.0, 2.0), dict(horizon=2000.0), None,
                            _K.HORIZON_REACHED),
    "prey_on_axis": (_OSC, (0.0, 1.0), dict(horizon=50.0), None, _K.HORIZON_REACHED),
    # the prey starts below the threshold, climbs past it, then falls
    # through it
    "prey_rearms": (with_params(_OSC, a1=2.0, b1=0.21), (5e-10, 1e-3), dict(horizon=500.0),
                    None, _K.PREY_EXTINCT),
    # both start scarce, below the threshold; the prey never climbs to it,
    # the predator decays with no event
    "predator_rearms": (_BISTABLE, (5e-10, 5e-10), dict(horizon=500.0), None,
                        _K.HORIZON_REACHED),
    # both components cross 0.5 in the first step; only the prey's is watched
    "both_events_in_one_step": (with_params(_BISTABLE, w0=5.0, a2=5.0), (0.50001, 0.50001),
                                dict(horizon=10.0, extinction_threshold=0.5),
                                None, _K.PREY_EXTINCT),
    "stop_at_t0": (_OSC, (5.0, 1.0), {}, lambda t, x1, x2, dx1, dx2: x1 > 1.0, _K.STOPPED),
    "stop_mid_run": (_OSC, (5.0, 0.05), {}, lambda t, x1, x2, dx1, dx2: x1 > 7.0,
                     _K.STOPPED),
    # predicates on the loop's own derivative, firing mid-run: the
    # separatrix turnaround test (the prey decays from this launch, then
    # turns around at t = 5.48), and the predator's turnaround with m2 < 1
    "stop_on_turnaround": (_OSC, (5.0, 3.0), dict(horizon=500.0),
                           lambda t, x1, x2, dx1, dx2: dx1 > 0.0, _K.STOPPED),
    "stop_on_predator_turnaround": (_BISTABLE, (5.0, 5.0), dict(horizon=500.0),
                                    lambda t, x1, x2, dx1, dx2: dx2 < 0.0, _K.STOPPED),
    "step_failure": (_BISTABLE, (0.3, 50.0), dict(rel_tol=1e-16, min_step=1e-3, horizon=50.0),
                     None, _K.STEP_FAILURE),
}


@pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
def test_loop_matches_reference_exactly(case):
    p, ic, kw, stop_when, kind = _REFERENCE_CASES[case]
    opts = IntegratorOptions(**kw)
    got = integrate(p, State(*ic), opts, stop_when=stop_when)
    ref = _ref_integrate(p, State(*ic), opts, stop_when)
    assert got.termination.kind is kind
    # repr tells every float apart (-0.0 too)
    assert repr(got.termination) == repr(ref.termination)
    assert repr(got.times) == repr(ref.times)
    assert repr(got.states) == repr(ref.states)


def test_u_chart_matches_reference_exactly(osc_params):
    opts = IntegratorOptions(horizon=100.0)
    ic = State(1.0 / 0.3, 50.0)
    got = integrate_u_system(osc_params, ic, opts)
    ref = _ref_run(make_u_rhs(osc_params), (ic.x1, ic.x2), opts, (), None, 1e12)
    assert got.termination.kind is TerminationKind.BLOWUP
    assert repr(got.termination) == repr(ref.termination)
    assert repr(got.times) == repr(ref.times)
    assert repr(got.states) == repr(ref.states)


def test_one_field_call_fewer_than_reference(osc_params, monkeypatch):
    # the field is looked up through the module at call time, so a counting
    # factory sees every evaluation; the initial condition is evaluated once
    calls = []

    def counting(p):
        f = make_rhs(p)

        def field(x1, x2):
            calls.append(1)
            return f(x1, x2)
        return field

    mod = sys.modules["predprey.integrate"]
    monkeypatch.setattr(mod, "make_rhs", counting)
    opts = IntegratorOptions(horizon=100.0)
    integrate(osc_params, State(0.3, 50.0), opts)
    n = len(calls)
    calls.clear()
    _ref_run(counting(osc_params), (0.3, 50.0), opts,
             [_RefEvent(0, opts.extinction_threshold, TerminationKind.PREY_EXTINCT)], None, None)
    assert n == len(calls) - 1


@pytest.mark.parametrize("case, rejected", [
    ("osc_horizon_2000", 54), ("osc_touchdown", 0), ("stop_on_turnaround", 1),
    # the rejected step that ends the run counts too
    ("step_failure", 2),
    ("backward:osc_back_to_probe", 0), ("backward:bistable_predator_drains", 11),
])
def test_field_calls_count_six_per_trial_step(case, rejected, monkeypatch):
    # one field call at the initial condition and one per stage of every
    # trial step, accepted or rejected, backward runs included
    backward = case.startswith("backward:")
    cases = _BACKWARD_CASES if backward else _REFERENCE_CASES
    p, ic, kw, stop_when, kind = cases[case.removeprefix("backward:")]
    opts = IntegratorOptions(**kw)
    calls = []

    def counting(p):
        f = make_rhs(p)

        def field(x1, x2):
            calls.append(1)
            return f(x1, x2)
        return field

    if backward:
        traj = _run(counting(p), ic, opts, stop_when, sign=-1.0)
    else:
        monkeypatch.setattr(sys.modules["predprey.integrate"], "make_rhs", counting)
        traj = integrate(p, State(*ic), opts, stop_when=stop_when)
    assert traj.termination.kind is kind
    assert traj.rejected == rejected
    assert len(calls) == 6 * (len(traj) - 1 + traj.rejected) + 1


def test_field_failure_at_initial_condition_is_a_domain_error():
    run = sys.modules["predprey.integrate"]._run

    def field(x1, x2):
        return 1.0 / 0.0, 0.0

    with pytest.raises(DomainError, match="initial condition"):
        run(field, (1.0, 1.0), IntegratorOptions())
    # the field is evaluated before the predicate, which needs its value
    with pytest.raises(DomainError, match="initial condition"):
        run(field, (1.0, 1.0), IntegratorOptions(), lambda t, x1, x2, dx1, dx2: True)


def test_overflowing_trial_state_is_rejected():
    # the error estimate stays tiny while z1 overflows to inf: only the
    # finiteness test on z rejects the step
    run = sys.modules["predprey.integrate"]._run

    def field(x1, x2):
        return 1e306, 0.0

    opts = IntegratorOptions(horizon=1.0)
    got = run(field, (1.79e308, 1.0), opts)
    ref = _ref_run(field, (1.79e308, 1.0), opts, (), None, None)
    assert got.termination.kind is TerminationKind.STEP_FAILURE
    assert all(math.isfinite(s.x1) for s in got.states)
    assert repr((got.times, got.states, got.termination)) == \
        repr((ref.times, ref.states, ref.termination))


# --------------------------------------------------------------------------
# Backward runs (sign -1): the same loop on the negated field.

@pytest.mark.parametrize("p, ic", [(_OSC, (5.0, 1.0)), (_BISTABLE, (3.0, 2.0))],
                         ids=["osc", "bistable"])
def test_backward_run_retraces_the_forward_run(p, ic):
    opts = IntegratorOptions(horizon=3.0)
    fwd = integrate(p, State(*ic), opts)
    back = _run(make_rhs(p), (fwd.x1[-1], fwd.x2[-1]), opts, sign=-1.0)
    assert back.termination.kind is TerminationKind.HORIZON_REACHED
    assert back.times[-1] == 3.0  # elapsed backward time
    assert all(b > a for a, b in zip(back.times, back.times[1:]))
    assert back.final_state.x1 == pytest.approx(ic[0], rel=1e-6)
    assert back.final_state.x2 == pytest.approx(ic[1], rel=1e-6)


@pytest.mark.parametrize("p, ic, component", [
    # backward in time the prey on the empty predator axis decays like
    # exp(-a1 t), and with m2 < 1 a scarce predator beside plentiful prey
    # drains to zero in finite time (backward, the predator axis is reached
    # as forward it is left): a run handed no floor watches no prey event,
    # and no run watches the predator
    (_OSC, (1e-6, 0.0), 0),
    (_BISTABLE, (8.0, 1e-6), 1),
], ids=["prey", "predator"])
def test_backward_run_ends_in_no_extinction_event(p, ic, component):
    opts = IntegratorOptions(horizon=20.0)
    traj = _run(make_rhs(p), ic, opts, sign=-1.0)
    assert traj.termination.kind is TerminationKind.HORIZON_REACHED
    assert min((traj.x1, traj.x2)[component]) < opts.extinction_threshold


_BACKWARD_CASES = {
    # the separatrix trace: back from near the origin to a probe abscissa
    "osc_back_to_probe": (_OSC, (1e-3, 3.0), dict(horizon=500.0),
                          lambda t, x1, x2, dx1, dx2: x1 >= 1.389, _K.STOPPED),
    "bistable_predator_drains": (_BISTABLE, (8.0, 1e-6), dict(horizon=20.0), None,
                                 _K.HORIZON_REACHED),
}


@pytest.mark.parametrize("case", sorted(_BACKWARD_CASES))
def test_backward_loop_matches_reference_exactly(case):
    p, ic, kw, stop_when, kind = _BACKWARD_CASES[case]
    opts = IntegratorOptions(**kw)
    f = make_rhs(p)

    def negated(x1, x2):
        d1, d2 = f(x1, x2)
        return -d1, -d2

    got = _run(f, ic, opts, stop_when, sign=-1.0)
    ref = _ref_run(negated, ic, opts, (), stop_when, None)
    assert got.termination.kind is kind
    assert repr(got.termination) == repr(ref.termination)
    assert repr(got.times) == repr(ref.times)
    assert repr(got.states) == repr(ref.states)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_continuous_extension_is_an_order_above_the_cubic(sign):
    # on x1' = -x1, x2' = -3*x2 (exact: exp(-t), exp(-3t) forward) the
    # step's continuous extension stays within 1.1e-6 relative of the
    # solution inside every step, the cubic Hermite on the same ends within
    # 9.3e-6 only; backward runs (the separatrix trace) take the step as -h
    def f(x1, x2):
        return -x1, -3.0 * x2

    traj = sys.modules["predprey.integrate"]._run(
        f, (1.0, 1.0), IntegratorOptions(rel_tol=1e-6, horizon=3.0), sign=sign)
    worst = {"extension": 0.0, "cubic": 0.0}
    for i in range(len(traj) - 1):
        t0, h = traj.times[i], traj.times[i + 1] - traj.times[i]
        y, z = (traj.x1[i], traj.x2[i]), (traj.x1[i + 1], traj.x2[i + 1])
        k, kn = f(*y), f(*z)
        q = _ref_stages(f, *y, *k, sign * h)[6:]
        for th in (0.25, 0.5, 0.75):
            for c, rate in ((0, 1.0), (1, 3.0)):
                exact = math.exp(-sign * rate * (t0 + th * h))
                ends = (y[c], z[c], sign * h * k[c], sign * h * kn[c])
                for name, quartic in (("extension", q[c]), ("cubic", 0.0)):
                    err = abs(_dense_value(th, *ends, quartic) / exact - 1.0)
                    worst[name] = max(worst[name], err)
    assert worst["extension"] < 2e-6
    assert worst["extension"] < 0.2 * worst["cubic"]


# --------------------------------------------------------------------------
# Kernels: the loop with a chart's field written inline must give the floats
# of the generic loop, which calls the field, on every path of the loop.

def _kernel_draw() -> list[ModelParams]:
    """Rates log-uniform on [0.1, 10], m1 on [0.05, 0.999], m2 and r each 1
    or fractional, and r = 5e-324 sets, where g and the y-chart's c take the
    log route: the two with m1 = 1e-10, and one with m1 = 0.5 and d = 0.3,
    where the subnormal quotient rounds and c's digits show next to the
    prey axis."""
    rng = random.Random(24)

    def rate():
        return math.exp(rng.uniform(math.log(0.1), math.log(10.0)))

    def unit():
        return 1.0 if rng.random() < 0.3 else rng.uniform(0.05, 1.0)

    sets = [ModelParams(a1=rate(), a2=rate(), b1=rate(), w0=rate(), w1=rate(), d=rate(),
                        m1=rng.uniform(0.05, 0.999), m2=unit(), r=unit())
            for _ in range(24)]
    tiny_r = dict(a1=0.1, a2=0.1, b1=0.1, w0=0.1, w1=0.1, d=0.1, m1=1e-10, r=5e-324)
    return sets + [ModelParams(**tiny_r, m2=m2) for m2 in (0.5, 5e-324)] + [
        ModelParams(**{**tiny_r, "m1": 0.5, "d": 0.3}, m2=0.5)]


_FLOOR = dict(floor=IntegratorOptions().extinction_threshold)
_CEILING = dict(ceiling=U_BLOWUP_CEILING)


def _kernel_runs(p: ModelParams):
    """(chart, field factory, ic, opts, stop_when, levels, sign) for
    each run of p, levels the floor and ceiling keywords of _run: the
    floor, predicates, the ceiling, backward runs, a step failure and
    starts on an axis and off the field's domain."""
    cap, top = p.carrying_capacity, max(1.0, p.carrying_capacity)
    wide = IntegratorOptions(horizon=30.0)
    short = IntegratorOptions(horizon=5.0)
    blocked = IntegratorOptions(rel_tol=1e-13, abs_tol=1e-16, min_step=0.4, max_step=0.5,
                                horizon=10.0)
    loose = IntegratorOptions(rel_tol=1e-3, abs_tol=1e-6, max_step=50.0, horizon=60.0)

    def slowing(t, x1, x2, dx1, dx2):  # reads the derivative the step holds
        return t > 0.5 and abs(dx1) + abs(dx2) < 1e-3 * (x1 + x2)

    runs = [
        ("x", make_rhs, (0.3 * cap, 5.0 * top), wide, None, _FLOOR, 1.0),
        ("x", make_rhs, (0.3 * cap, 5.0 * top), wide, _turned, _FLOOR, 1.0),
        ("x", make_rhs, (0.05 * cap, 0.5), wide, slowing, _FLOOR, 1.0),
        ("x", make_rhs, (0.5 * cap, 0.0), wide, None, _FLOOR, 1.0),
        ("x", make_rhs, (1e-12, 0.5), wide, None, _FLOOR, 1.0),
        ("x", make_rhs, (0.5 * cap, 1.0), short, slowing, {}, -1.0),
        ("x", make_rhs, (0.3 * cap, 5.0 * top), blocked, None, _FLOOR, 1.0),
        ("u", make_u_rhs, (1.0 / (0.3 * cap), 5.0 * top), wide, None, _CEILING, 1.0),
        ("u", make_u_rhs, (10.0 / cap, 0.5), loose, None, _CEILING, 1.0),
        ("u", make_u_rhs, (1.0 / (0.5 * cap), 1.0), loose, None, _CEILING, -1.0),
        ("u", make_u_rhs, (-1.0, 1.0), wide, None, _CEILING, 1.0),
    ]
    k = 1.0 - p.m1
    target = (0.5 * cap) ** k

    def reached(t, y, x2, dy, dx2):
        return y >= target or (t > 0.0 and not dy > 0.0)

    runs += [
        ("y", make_y_rhs, (1e-9 ** k, 2.0), short, reached, {}, -1.0),
        ("y", make_y_rhs, ((0.3 * cap) ** k, 5.0 * top), wide, None, _FLOOR, 1.0),
        ("y", make_y_rhs, (1e-300 ** k, 1.0), short, None, _FLOOR, 1.0),
        ("y", make_y_rhs, (1e300, 1.0), wide, None, {}, 1.0),
    ]
    return runs


def _outcome(run, f, ic, opts, stop_when, levels, sign):
    try:
        traj = run(f, ic, opts, stop_when, sign=sign, **levels)
    except DomainError as exc:
        return repr((exc, exc.__cause__)), None
    return repr((traj.times, traj.x1, traj.x2, traj.rejected, traj.termination)), traj


def test_chart_kernels_match_the_generic_loop_bit_for_bit():
    # the package's fields run their charts' kernels; a plain wrapper of the
    # same field runs the generic loop and sees every stage
    mod = sys.modules["predprey.integrate"]
    seen = set()
    stages_off_the_u_chart = 0
    for p in _kernel_draw():
        for chart, factory, ic, opts, stop_when, levels, sign in _kernel_runs(p):
            f = factory(p)
            calls = []

            def plain(a, b):
                calls.append(a)
                return f(a, b)

            got, traj = _outcome(mod._run, f, ic, opts, stop_when, levels, sign)
            want, _ = _outcome(mod._run, plain, ic, opts, stop_when, levels, sign)
            assert got == want, (chart, p, ic, sign)
            assert f.chart[0] in mod._KERNELS
            seen.add((chart, "raised" if traj is None else traj.termination.kind))
            if chart == "u":
                stages_off_the_u_chart += sum(1 for u in calls if u <= 0.0)
    # the draw reaches every way a run ends
    assert {kind for chart, kind in seen if chart == "x"} == set(TerminationKind) - {
        TerminationKind.BLOWUP}
    assert {("u", TerminationKind.BLOWUP), ("u", TerminationKind.STEP_FAILURE), ("u", "raised"),
            ("y", TerminationKind.STOPPED), ("y", "raised")} <= seen
    assert stages_off_the_u_chart > 0


def test_field_texts_share_no_name_with_the_loop():
    # a kernel binds the loop's names and its field text's in one frame
    mod = sys.modules["predprey.integrate"]
    loop = set(mod._kernel(None).__code__.co_varnames)
    for factory in (make_rhs, make_u_rhs, make_y_rhs):
        code = factory(_OSC).__code__
        assert loop.isdisjoint(code.co_varnames + code.co_freevars), factory.__name__


def test_nothing_is_compiled_at_import():
    # the closures' factories and the loops compile on first use
    probe = ("import sys, predprey\n"
             "from predprey import model\n"
             "assert not sys.modules['predprey.integrate']._KERNELS\n"
             "assert all(c._factory is None for c in (model._X_FIELD, model._U_FIELD,"
             " model._Y_FIELD))\n")
    subprocess.run([sys.executable, "-c", probe], check=True)
