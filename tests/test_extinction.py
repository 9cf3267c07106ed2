from __future__ import annotations

import math

import pytest

from predprey import (
    DomainError,
    IntegratorOptions,
    State,
    TerminationKind,
    boundedness_bound,
    dissipative_bound_K2,
    extinction_ic_condition,
    refuge_threshold,
    simulate_extinction,
    verify_persistence,
    with_params,
)


def test_boundedness_bound_values(osc_params):
    rep = boundedness_bound(osc_params)
    assert rep.delta == osc_params.a2
    assert rep.W1 == pytest.approx(10.15873015873016, rel=1e-12)
    assert rep.Q_bound == pytest.approx(rep.W1 / rep.delta, rel=1e-12)
    # w0 < w1 here, so the comparison hypothesis fails and must be flagged.
    assert any("w0" in n for n in rep.notes)


def test_boundedness_bound_clean_when_w0_dominates(osc_params):
    rep = boundedness_bound(with_params(osc_params, w0=2.5))
    assert rep.notes == ()


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
    assert sim.u_blowup_time is not None
    assert sim.rel_gap is not None and sim.rel_gap < 0.05
    # both runs are kept for the CLI to write
    assert sim.trajectory.termination.time == sim.time
    assert sim.u_trajectory.termination.time == sim.u_blowup_time


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
