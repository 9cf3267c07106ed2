from __future__ import annotations

import math
import sys
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
    _BETA1, _BETA2, _E1, _E3, _E4, _E5, _E6, _E7, _MAX_FACTOR, _MIN_FACTOR, _SAFETY,
    U_BLOWUP_CEILING, Termination, _dense_term, _dense_value, _first_crossing, _locate_level,
)
from predprey.model import make_rhs, make_u_rhs


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


def test_predator_extinction_requires_fractional_m2(bistable_params):
    # Prey starts below the extinction threshold, so the prey event stays
    # disarmed for the whole run; the predator decays along g ~ 0.
    ic = State(1e-12, 0.5)
    traj = integrate(bistable_params, ic, IntegratorOptions(horizon=100.0))
    assert traj.termination.kind is TerminationKind.PREDATOR_EXTINCT
    assert traj.termination.time < 100.0

    # With m2 = 1 the predator axis is only reached asymptotically: no event.
    p1 = with_params(bistable_params, m2=1.0)
    traj1 = integrate(p1, ic, IntegratorOptions(horizon=40.0))
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
# Event location on the step's chord.

def test_first_crossing_tie_goes_to_the_prey():
    # both components fall through the level at the same chord fraction
    te, ye1, ye2, kind = _first_crossing(1.0, 2.0, (0.6, 0.6), (0.4, 0.4), (True, True), 0.5)
    assert kind is TerminationKind.PREY_EXTINCT
    assert (te, ye1, ye2) == (1.5, 0.5, 0.5)


def test_first_crossing_earlier_predator_wins():
    # the prey crosses at fraction 0.8, the predator at 0.5
    te, ye1, ye2, kind = _first_crossing(1.0, 2.0, (0.9, 0.6), (0.4, 0.4), (True, True), 0.5)
    assert kind is TerminationKind.PREDATOR_EXTINCT
    assert te == pytest.approx(1.5, rel=1e-15)
    assert ye2 == pytest.approx(0.5, rel=1e-15)
    # an unarmed component's crossing does not count
    assert _first_crossing(1.0, 2.0, (0.9, 0.6), (0.4, 0.4), (True, False), 0.5)[3] \
        is TerminationKind.PREY_EXTINCT


@pytest.mark.parametrize("y_old, y_new, index, level", [
    # downward through the extinction threshold
    ((3.7e-9, 12.25), (-4.1e-10, 12.5), 0, 1e-9),
    ((0.81, 1.3e-9), (0.83, 2.9e-10), 1, 1e-9),
    # upward through the u-chart's blowup ceiling
    ((9.31e11, 2.0), (1.77e12, 1.5), 0, U_BLOWUP_CEILING),
], ids=["prey_down", "predator_down", "u_up"])
def test_locate_level_lands_on_the_level(y_old, y_new, index, level):
    t0, t1 = 0.125, 0.3
    te, ye1, ye2 = _locate_level(t0, t1, y_old, y_new, index, level)
    ye = (ye1, ye2)
    scale = max(abs(y_old[index]), abs(y_new[index]))
    assert abs(ye[index] - level) <= 4.0 * math.ulp(scale)
    assert t0 <= te <= t1
    # the other component sits on the chord at the same fraction
    other = 1 - index
    frac = (te - t0) / (t1 - t0)
    assert ye[other] == pytest.approx(
        y_old[other] + frac * (y_new[other] - y_old[other]), rel=1e-12)


# --------------------------------------------------------------------------
# Reference: the integrator loop as it stood with a separate step function
# (`_try_step`) and per-event objects.  The inlined loop must reproduce it
# float for float.

class _RefEvent:
    def __init__(self, index, threshold, kind):
        self.index = index
        self.threshold = threshold
        self.kind = kind
        self.armed = False

    def arm_for(self, value):
        self.armed = value > self.threshold

    def update_arming(self, value):
        if not self.armed and value > 2.0 * self.threshold:
            self.armed = True


def _ref_initial_step(f, y1, y2, opts, direction_cap):
    f1, f2 = f(y1, y2)
    sc1 = opts.abs_tol + opts.rel_tol * abs(y1)
    sc2 = opts.abs_tol + opts.rel_tol * abs(y2)
    d0 = math.sqrt(0.5 * ((y1 / sc1) ** 2 + (y2 / sc2) ** 2))
    d1 = math.sqrt(0.5 * ((f1 / sc1) ** 2 + (f2 / sc2) ** 2))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    return max(opts.min_step, min(h0, opts.max_step, direction_cap))


def _ref_try_step(f, y1, y2, k1, k2, h, opts):
    try:
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
    return True, (z1, z2, err, k1n, k2n)


def _ref_run(f, ic, opts, events, stop_when, blowup_ceiling):
    # the predicate gets a fresh field evaluation at each accepted state, so
    # the exact comparison also checks the loop's FSAL derivative
    t = 0.0
    y1, y2 = ic
    traj = SimpleNamespace(times=[], states=[], termination=None)
    traj.times.append(t)
    traj.states.append(State(y1, y2))
    for ev in events:
        ev.arm_for((y1, y2)[ev.index])
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
        z1, z2, err, k1n, k2n = out
        t_new = t + h
        if t_new >= opts.horizon:
            t_new = opts.horizon
        fired = None
        for ev in events:
            old = (y1, y2)[ev.index]
            new = (z1, z2)[ev.index]
            if ev.armed and new < ev.threshold <= old:
                te, ye1, ye2 = _locate_level(t, t_new, (y1, y2), (z1, z2),
                                             ev.index, ev.threshold)
                if fired is None or te < fired[0]:
                    fired = (te, ye1, ye2, ev)
        if fired is not None:
            te, ye1, ye2, ev = fired
            traj.times.append(te)
            traj.states.append(State(max(ye1, 0.0), max(ye2, 0.0)))
            traj.termination = Termination(ev.kind, te)
            return traj
        if blowup_ceiling is not None and z1 > blowup_ceiling:
            te, ye1, ye2 = _locate_level(t, t_new, (y1, y2), (z1, z2), 0,
                                         blowup_ceiling)
            traj.times.append(te)
            traj.states.append(State(ye1, max(ye2, 0.0)))
            traj.termination = Termination(TerminationKind.BLOWUP, te)
            return traj
        t, y1, y2, k1, k2 = t_new, max(z1, 0.0), max(z2, 0.0), k1n, k2n
        traj.times.append(t)
        traj.states.append(State(y1, y2))
        for ev in events:
            ev.update_arming((y1, y2)[ev.index])
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
    if p.m2 < 1.0:
        events.append(_RefEvent(1, thr, TerminationKind.PREDATOR_EXTINCT))
    return _ref_run(make_rhs(p), (ic.x1, ic.x2), opts, events, stop_when, None)


_OSC = ModelParams(a1=0.6, a2=1.0, b1=0.063, w0=1.0, w1=2.0, d=2.0, m1=0.8, m2=1.0)
_BISTABLE = ModelParams(a1=0.5, a2=0.7, b1=0.05, w0=0.2, w1=4.0, d=0.2, m1=0.5, m2=0.5)
_K = TerminationKind

# (params, initial state, options, stop_when, expected termination)
_REFERENCE_CASES = {
    "osc_horizon_2000": (_OSC, (5.0, 1.0), dict(horizon=2000.0), None, _K.HORIZON_REACHED),
    "osc_touchdown": (_OSC, (0.3, 50.0), dict(horizon=100.0), None, _K.PREY_EXTINCT),
    # prey below the threshold (its event never arms), predator event armed
    "bistable_predator_event": (_BISTABLE, (1e-12, 0.5), dict(horizon=100.0), None,
                                _K.PREDATOR_EXTINCT),
    "bistable_both_armed": (_BISTABLE, (3.0, 2.0), dict(horizon=2000.0), None,
                            _K.HORIZON_REACHED),
    "prey_on_axis": (_OSC, (0.0, 1.0), dict(horizon=50.0), None, _K.HORIZON_REACHED),
    # each event starts unarmed, re-arms as its component grows, then fires
    "prey_rearms": (with_params(_OSC, a1=2.0, b1=0.21), (5e-10, 1e-3), dict(horizon=500.0),
                    None, _K.PREY_EXTINCT),
    "predator_rearms": (_BISTABLE, (5e-10, 5e-10), dict(horizon=500.0), None,
                        _K.PREDATOR_EXTINCT),
    # both events cross in the first step; the prey's crossing comes first
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
    calls = []

    def counting(p):
        f = make_rhs(p)

        def field(x1, x2):
            calls.append(1)
            return f(x1, x2)
        return field

    monkeypatch.setattr(sys.modules["predprey.integrate"], "make_rhs", counting)
    traj = integrate(p, State(*ic), IntegratorOptions(**kw), stop_when=stop_when,
                     backward=backward)
    assert traj.termination.kind is kind
    assert traj.rejected == rejected
    assert len(calls) == 6 * (len(traj) - 1 + traj.rejected) + 1


def test_field_failure_at_initial_condition_is_a_domain_error():
    run = sys.modules["predprey.integrate"]._run

    def field(x1, x2):
        return 1.0 / 0.0, 0.0

    with pytest.raises(DomainError, match="initial condition"):
        run(field, (1.0, 1.0), IntegratorOptions(), (True, False), None, None)
    # the field is evaluated before the predicate, which needs its value
    with pytest.raises(DomainError, match="initial condition"):
        run(field, (1.0, 1.0), IntegratorOptions(), (True, False),
            lambda t, x1, x2, dx1, dx2: True, None)


def test_overflowing_trial_state_is_rejected():
    # the error estimate stays tiny while z1 overflows to inf: only the
    # finiteness test on z rejects the step
    run = sys.modules["predprey.integrate"]._run

    def field(x1, x2):
        return 1e306, 0.0

    opts = IntegratorOptions(horizon=1.0)
    got = run(field, (1.79e308, 1.0), opts, (False, False), None, None)
    ref = _ref_run(field, (1.79e308, 1.0), opts, (), None, None)
    assert got.termination.kind is TerminationKind.STEP_FAILURE
    assert all(math.isfinite(s.x1) for s in got.states)
    assert repr((got.times, got.states, got.termination)) == \
        repr((ref.times, ref.states, ref.termination))


# --------------------------------------------------------------------------
# Backward runs: the same loop on the negated field, with no event watched.

@pytest.mark.parametrize("p, ic", [(_OSC, (5.0, 1.0)), (_BISTABLE, (3.0, 2.0))],
                         ids=["osc", "bistable"])
def test_backward_run_retraces_the_forward_run(p, ic):
    opts = IntegratorOptions(horizon=3.0)
    fwd = integrate(p, State(*ic), opts)
    back = integrate(p, fwd.final_state, opts, backward=True)
    assert back.termination.kind is TerminationKind.HORIZON_REACHED
    assert back.times[-1] == 3.0  # elapsed backward time
    assert all(b > a for a, b in zip(back.times, back.times[1:]))
    assert back.final_state.x1 == pytest.approx(ic[0], rel=1e-6)
    assert back.final_state.x2 == pytest.approx(ic[1], rel=1e-6)


@pytest.mark.parametrize("p, ic, component", [
    # backward in time the prey on the empty predator axis decays like
    # exp(-a1 t), and with m2 < 1 a scarce predator beside plentiful prey
    # drains to zero in finite time: a watched event would fire on both
    (_OSC, (1e-6, 0.0), 0),
    (_BISTABLE, (8.0, 1e-6), 1),
], ids=["prey", "predator"])
def test_backward_run_ends_in_no_extinction_event(p, ic, component):
    opts = IntegratorOptions(horizon=20.0)
    traj = integrate(p, State(*ic), opts, backward=True)
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

    got = integrate(p, State(*ic), opts, stop_when=stop_when, backward=True)
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
        f, (1.0, 1.0), IntegratorOptions(rel_tol=1e-6, horizon=3.0), (False, False),
        None, None, sign)
    worst = {"extension": 0.0, "cubic": 0.0}
    for i in range(len(traj) - 1):
        t0, h = traj.times[i], traj.times[i + 1] - traj.times[i]
        y, z = (traj.x1[i], traj.x2[i]), (traj.x1[i + 1], traj.x2[i + 1])
        k, kn = f(*y), f(*z)
        q = _dense_term(f, y, k, kn, sign * h)
        for th in (0.25, 0.5, 0.75):
            for c, rate in ((0, 1.0), (1, 3.0)):
                exact = math.exp(-sign * rate * (t0 + th * h))
                ends = (y[c], z[c], sign * h * k[c], sign * h * kn[c])
                for name, quartic in (("extension", q[c]), ("cubic", 0.0)):
                    err = abs(_dense_value(th, *ends, quartic) / exact - 1.0)
                    worst[name] = max(worst[name], err)
    assert worst["extension"] < 2e-6
    assert worst["extension"] < 0.2 * worst["cubic"]
