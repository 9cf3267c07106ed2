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
    State,
    TerminationKind,
    Verdict,
    boundedness_bound,
    dissipative_bound_K2,
    extinction_ic_condition,
    refuge_threshold,
    separatrix_relative_position,
    simulate_extinction,
    trace_unstable_manifold_E1,
    verify_persistence,
    with_params,
)
from predprey.integrate import Termination, Trajectory
from predprey.model import make_rhs, make_y_rhs


def test_boundedness_bound_values(osc_params):
    rep = boundedness_bound(osc_params)
    assert rep.delta == osc_params.a2
    assert rep.W1 == pytest.approx(10.15873015873016, rel=1e-12)
    assert rep.Q_bound == pytest.approx(rep.W1 / rep.delta, rel=1e-12)


def test_dissipative_bound_holds_for_every_parameter_set():
    # In Q = x1 + (w0/w1)*x2 the interaction cancels: Q' + delta*Q =
    # (a1 + delta)*x1 - b1*x1**2 - (a2 - delta)*(w0/w1)*x2 <= W1 for every
    # 0 < delta <= a2, with w0 < w1 as with w0 >= w1.  Checked on the field
    # itself at random sets and states, to the rounding of the terms summed.
    rng = random.Random(29)

    def rate():
        return 10.0 ** rng.uniform(-1.0, 1.0)

    w0_below_w1 = 0
    for _ in range(2000):
        p = ModelParams(a1=rate(), a2=rate(), b1=rate(), w0=rate(), w1=rate(), d=rate(),
                        m1=rng.choice((1.0, rng.uniform(0.05, 1.0))),
                        m2=rng.choice((1.0, rng.uniform(0.05, 1.0))),
                        r=rng.choice((1.0, rng.uniform(0.05, 1.0))))
        w0_below_w1 += p.w0 < p.w1
        delta = rng.choice((p.a2, p.a2 * rng.uniform(1e-3, 1.0)))
        rep = boundedness_bound(p, delta)
        x1 = p.carrying_capacity * 10.0 ** rng.uniform(-4.0, 1.0)
        x2 = 10.0 ** rng.uniform(-4.0, 4.0)
        dx1, dx2 = make_rhs(p)(x1, x2)
        c = p.w0 / p.w1
        q = x1 + c * x2
        residual = dx1 + c * dx2 - (rep.W1 - delta * q)
        scale = (p.a1 * x1 + p.b1 * x1 * x1 + c * p.a2 * x2 + abs(dx1) + c * abs(dx2)
                 + rep.W1 + delta * q)
        assert residual <= 1e-14 * scale, (p, delta, x1, x2)
    assert 900 < w0_below_w1 < 1100


def test_dissipative_k2_chain(osc_params):
    rep = dissipative_bound_K2(osc_params)
    assert rep.eps1 == pytest.approx(0.09523809523809523, rel=1e-12)
    assert rep.K1 == pytest.approx(15.39047619047619, rel=1e-12)
    assert rep.K2 == pytest.approx(30.78095238095238, rel=1e-12)
    tighter = dissipative_bound_K2(osc_params, eps1=0.01)
    assert tighter.K2 == pytest.approx(30.508190476190478, rel=1e-12)
    assert tighter.K2 < rep.K2


def test_ic_criterion_threshold(osc_params):
    met = extinction_ic_condition(0.3, osc_params)
    assert met.criterion_met
    assert met.lhs == pytest.approx(1.5304055069078981, rel=1e-12)
    assert met.rhs == pytest.approx(osc_params.w0 / osc_params.a1, rel=1e-12)

    not_met = extinction_ic_condition(0.5, osc_params)
    assert not not_met.criterion_met
    assert not_met.lhs == pytest.approx(1.811949159194239, rel=1e-12)


def test_ic_criterion_vacuous_at_m1_one(osc_params):
    v = extinction_ic_condition(0.3, with_params(osc_params, m1=1.0))
    assert not v.criterion_met
    assert math.isinf(v.lhs)
    assert v.note


def test_simulate_extinction_charts_agree(osc_params):
    res = simulate_extinction(osc_params, State(0.3, 50.0))
    assert res.criterion_met
    sim = res.simulated
    assert sim.extinct
    assert 0.14 < sim.time < 0.16
    assert sim.termination is TerminationKind.PREY_EXTINCT
    # both runs are kept for the CLI to write; the u-chart's blowup depth,
    # x1 = 1e-12, lies past the threshold 1e-9
    assert sim.trajectory.termination.time == sim.time
    u_end = sim.u_trajectory.termination
    assert u_end.kind is TerminationKind.BLOWUP
    assert sim.time < u_end.time < 1.05 * sim.time


def test_more_predators_die_faster(osc_params):
    t50 = simulate_extinction(osc_params, State(0.3, 50.0)).simulated.time
    t100 = simulate_extinction(osc_params, State(0.3, 100.0)).simulated.time
    assert t100 < t50


def test_no_extinction_when_started_on_the_calm_side(osc_params):
    res = simulate_extinction(osc_params, State(5.0, 0.5),
                              IntegratorOptions(horizon=50.0))
    assert not res.simulated.extinct
    assert res.simulated.termination is TerminationKind.HORIZON_REACHED
    assert res.simulated.trajectory.final_time == 50.0
    assert res.simulated.u_trajectory is None


def test_refuge_threshold_values(osc_params):
    th = refuge_threshold(0.3, osc_params)
    assert th.r_star == pytest.approx(0.010357891021240243, rel=1e-12)
    assert th.r_star == th.unclamped
    assert th.K2 == pytest.approx(30.78095238095238, rel=1e-12)
    assert th.v0 == pytest.approx(1.0 / 0.3 - 0.063 / 0.6, rel=1e-12)

    tighter = refuge_threshold(0.3, osc_params,
                               K2=dissipative_bound_K2(osc_params, eps1=0.01).K2)
    assert tighter.r_star == pytest.approx(0.01047377746149168, rel=1e-12)


def test_refuge_threshold_clamps_to_one(osc_params):
    th = refuge_threshold(0.3, osc_params, K2=1e-6)
    assert th.r_star == 1.0
    assert th.unclamped > 1.0
    assert th.note


def test_refuge_threshold_domain(osc_params):
    cap = osc_params.carrying_capacity
    with pytest.raises(DomainError):
        refuge_threshold(cap * 1.5, osc_params)
    with pytest.raises(DomainError):
        refuge_threshold(0.0, osc_params)


def test_persistence_fails_without_refuge(osc_params):
    v = verify_persistence(osc_params, State(0.3, 50.0), IntegratorOptions(horizon=5.0))
    assert not v.persistent
    assert v.horizon == 5.0
    assert v.extinct_at is not None and v.extinct_at < 1.0
    assert v.termination is TerminationKind.PREY_EXTINCT


def test_a_step_failure_decides_no_extinction(osc_params):
    # min_step 0.1 fails the first step from (0.3, 50): the run says nothing
    # of the prey, so the answer is an error naming the failure, not a prey
    # that survived
    opts = IntegratorOptions(horizon=100.0, min_step=0.1)
    with pytest.raises(DomainError, match="step_failure"):
        simulate_extinction(osc_params, State(0.3, 50.0), opts)
    with pytest.raises(DomainError, match="step_failure"):
        verify_persistence(osc_params, State(0.3, 50.0), opts)


@pytest.mark.parametrize("kind", list(TerminationKind), ids=lambda k: k.value)
def test_every_fate_question_reads_one_rule(osc_params, monkeypatch, kind):
    # a synthetic two-state run ending in `kind`: a launch, E1's leg (and the
    # verdict read from its end), the separatrix verdict by a curve's end,
    # the extinction run and the persistence run answer "did the prey die?"
    # alike, or all raise
    geo, ext = sys.modules["predprey.geometry"], sys.modules["predprey.extinction"]

    def synthetic(*args, **kwargs):
        return Trajectory([0.0, 0.5], [9.0, 1.0], [2.0, 2.0], Termination(kind, 0.5, "why"))

    for module, name in ((geo, "_fate_run"), (geo, "integrate"), (ext, "_fate_run")):
        monkeypatch.setattr(module, name, synthetic)
    opts = IntegratorOptions(horizon=100.0)
    ws = PlanarCurve(CurveLabel.STABLE_SEPARATRIX_E0, (State(1.0, 5.0), State(4.0, 5.0)))
    wu = PlanarCurve(CurveLabel.UNSTABLE_MANIFOLD_E1, (State(9.0, 2.0), State(1.0, 2.0)),
                     synthetic().termination)
    questions = [
        lambda: geo._classify_launch(osc_params, 0.3, 50.0, opts, None),
        lambda: separatrix_relative_position(
            ws, trace_unstable_manifold_E1(osc_params, opts)).verdict is Verdict.WU_ABOVE_WS,
        lambda: separatrix_relative_position(ws, wu).verdict is Verdict.WU_ABOVE_WS,
        lambda: simulate_extinction(osc_params, State(0.3, 50.0), opts).simulated.extinct,
        lambda: not verify_persistence(osc_params, State(0.3, 50.0), opts).persistent,
    ]
    died = {TerminationKind.PREY_EXTINCT: True, TerminationKind.STOPPED: False,
            TerminationKind.HORIZON_REACHED: False}
    if kind in died:
        assert [q() for q in questions] == [died[kind]] * len(questions)
        return
    for q in questions:
        with pytest.raises(DomainError, match="no fate"):
            q()


@pytest.mark.parametrize("x1", [0.0, 5e-10, 1e-9])
def test_prey_at_or_below_the_threshold_is_a_domain_error(osc_params, x1):
    # the prey event arms only above the threshold: from here the run would
    # end at the horizon with x1 = 0 and read as a surviving prey
    with pytest.raises(DomainError, match="extinction threshold"):
        simulate_extinction(osc_params, State(x1, 50.0))
    with pytest.raises(DomainError, match="extinction threshold"):
        verify_persistence(osc_params, State(x1, 50.0))
    # the threshold is the one of the options in use
    opts = IntegratorOptions(extinction_threshold=1e-11)
    if x1 > 1e-11:
        assert verify_persistence(osc_params, State(x1, 50.0), opts).termination \
            is TerminationKind.PREY_EXTINCT


@pytest.mark.parametrize("m1", [0.8, 1.0])
@pytest.mark.parametrize("x2", [-1.0, math.nan, math.inf])
def test_a_bad_predator_start_is_a_domain_error(osc_params, m1, x2):
    # the fate run checks its start as integrate does, in either chart
    p = with_params(osc_params, m1=m1)
    for question in (simulate_extinction, verify_persistence):
        with pytest.raises(DomainError, match="initial x2"):
            question(p, State(0.3, x2))


# scipy's touchdown times T(x1 = 1e-12) and T(x1 = 1e-9) from
# bench/references.json: solve_ivp DOP853 at rtol 1e-13 in (x1, x2) down to
# x1 = 1e-3, then in u = 1/x1 up to u = 1e12 (scipy 1.17.1, numpy 2.4.6,
# Python 3.11.7); the OSC set with the one change named, from (x1, x2)
_OSC_RATES = dict(a1=0.6, a2=1.0, b1=0.063, w0=1.0, w1=2.0, d=2.0, m1=0.8, m2=1.0, r=1.0)
_U_TOUCHDOWNS = [
    ({}, (0.3, 50.0), 0.14931987351248485, 0.14695262316449959),
    ({}, (0.3, 100.0), 0.07191789789540441, 0.0708149393601855),
    ({}, (0.2, 30.0), 0.23887455726672355, 0.2345700309203055),
    ({}, (0.1, 20.0), 0.324992807190112, 0.3179398255885826),
    ({"m1": 0.6}, (0.3, 50.0), 0.0490589993814132, 0.0490404944403666),
    ({"r": 0.5}, (0.3, 80.0), 0.1626708219204584, 0.16004837077524775),
    ({"d": 1.5}, (0.4, 60.0), 0.1035873678785373, 0.10209157236564505),
    ({"a1": 2.0, "b1": 0.21}, (0.5, 200.0), 0.03991166523520352, 0.03937683034259697),
]


@pytest.mark.parametrize("change, ic, t_ref, t_thr", _U_TOUCHDOWNS,
                         ids=["osc", "osc_x2_100", "osc_0.2_30", "osc_0.1_20", "m1_0.6",
                              "r_0.5", "d_1.5", "enriched"])
def test_u_chart_touchdown_matches_scipy(change, ic, t_ref, t_thr):
    # the ceiling u = 1e12 is located on the step's continuous extension;
    # the chord across the last step, on which u steepens without bound,
    # met it up to 3.3e-6 early.  The fate run, in y = x1**(1-m1), meets the
    # threshold at scipy's time; the x-chart, at abs_tol = threshold, was
    # 8.5e-4 to 1.07e-2 off.
    p = ModelParams(**{**_OSC_RATES, **change})
    sim = simulate_extinction(p, State(*ic)).simulated
    assert sim.u_trajectory.termination.time == pytest.approx(t_ref, rel=5e-8)
    assert sim.time == pytest.approx(t_thr, rel=1e-6)


@pytest.mark.parametrize("m1", [0.3, 0.5, 0.8, 0.9, 0.95, 0.99, 0.999])
def test_fate_run_matches_scipy_in_its_chart(m1):
    # OSC from (0.3, 50) against scipy's DOP853 at rtol 1e-13 on the fate
    # run's own field, make_y_rhs: T(1e-9) and every stored x1 before the
    # crossing within 1e-6 relative (2.2e-7 at worst, m1 = 0.3), and the
    # crossing at the threshold.  The x-chart's stored x1 near the axis were
    # up to 4.18 relative off (m1 = 0.8).
    from scipy.integrate import solve_ivp

    p = ModelParams(**{**_OSC_RATES, "m1": m1})
    sim = simulate_extinction(p, State(0.3, 50.0)).simulated
    k = 1.0 - m1
    f = make_y_rhs(p)

    def floor(t, y):
        return y[0] - 1e-9 ** k
    floor.terminal, floor.direction = True, -1.0
    sol = solve_ivp(lambda t, y: f(y[0], y[1]), (0.0, 100.0), [0.3 ** k, 50.0],
                    method="DOP853", rtol=1e-13, atol=1e-20, events=floor, dense_output=True)
    assert sim.extinct
    assert sim.time == pytest.approx(sol.t_events[0][0], rel=1e-6)
    traj = sim.trajectory
    want = [sol.sol(t)[0] ** (1.0 / k) for t in traj.times[:-1]]
    assert traj.x1[:-1] == pytest.approx(want, rel=1e-6)
    assert traj.x1[-1] == pytest.approx(1e-9, rel=1e-6)
