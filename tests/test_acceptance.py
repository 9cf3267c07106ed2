"""End-to-end checks against independently derived reference values.

Each test covers one contract item for the two standard parameter sets
(the oscillatory set and the bistable set) and their refuge variants.
Reference numbers were frozen from long-tolerance runs before the tests
were written; tolerances below are part of the contract, not guesses.
"""
from __future__ import annotations

import math
import random

import pytest

from predprey import (
    BifurcationEvent,
    BifurcationKind,
    Classification,
    IntegratorOptions,
    State,
    Verdict,
    branch_sweep,
    detect_hopf,
    detect_saddle_node,
    dissipative_bound_K2,
    extinction_ic_condition,
    first_lyapunov_coefficient,
    hopf_a1_fixed_point,
    integrate,
    interior_equilibria,
    jacobian,
    make_rhs,
    refuge_threshold,
    separatrix_relative_position,
    simulate_extinction,
    trace_stable_separatrix_E0,
    trace_unstable_manifold_E1,
    transcritical_r,
    verify_assumptions,
    verify_persistence,
    with_params,
)
from predprey import ModelParams, csvio

OSC = ModelParams(a1=0.6, a2=1.0, b1=0.063, w0=1.0, w1=2.0, d=2.0, m1=0.8, m2=1.0)
BISTABLE = ModelParams(a1=0.5, a2=0.7, b1=0.05, w0=0.2, w1=4.0, d=0.2, m1=0.5, m2=0.5)
# Enrichment variant of the oscillatory set used by the separatrix checks.
ENRICHED = with_params(OSC, a1=2.0, b1=0.21)


def test_c01_interior_equilibrium_locations():
    eqs = interior_equilibria(OSC)
    assert len(eqs) == 1
    assert eqs[0].point.x1 == pytest.approx(1.450943, abs=1e-4)
    assert eqs[0].point.x2 == pytest.approx(1.475872, abs=1e-4)
    assert eqs[0].classification is Classification.UNSTABLE_FOCUS

    eqs = interior_equilibria(BISTABLE)
    assert len(eqs) == 2
    lo, hi = eqs
    assert lo.point.x1 == pytest.approx(3.124371, abs=1e-3)
    assert lo.point.x2 == pytest.approx(30.688596, abs=1e-3)
    assert lo.classification is Classification.SADDLE
    assert hi.point.x1 == pytest.approx(6.675629, abs=1e-3)
    assert hi.point.x2 == pytest.approx(31.703241, abs=1e-3)
    assert hi.classification is Classification.STABLE_NODE


def _real_eigs(eq):
    lam1, lam2 = eq.eigenvalues
    assert abs(lam1.imag) < 1e-12 and abs(lam2.imag) < 1e-12
    return sorted((lam1.real, lam2.real))


def test_c02_interior_eigenvalues():
    lo, hi = interior_equilibria(BISTABLE)
    assert _real_eigs(lo) == pytest.approx([-0.343043, 0.170265], abs=1e-3)
    assert _real_eigs(hi) == pytest.approx([-0.345170, -0.174810], abs=1e-3)

    lo, hi = interior_equilibria(with_params(BISTABLE, r=0.3))
    assert lo.point.x1 == pytest.approx(2.302919, abs=1e-3)
    assert lo.point.x2 == pytest.approx(25.322508, abs=1e-3)
    assert _real_eigs(lo) == pytest.approx([-0.322458, 0.198966], abs=1e-3)
    assert hi.point.x1 == pytest.approx(7.030414, abs=1e-3)
    assert hi.point.x2 == pytest.approx(29.824884, abs=1e-3)
    assert _real_eigs(hi) == pytest.approx([-0.331567, -0.227904], abs=1e-3)


def test_c03_hopf_points_are_supercritical():
    # Growth-rate scan of the oscillatory set.
    a1_star, eq = hopf_a1_fixed_point(OSC)
    assert a1_star == pytest.approx(0.261835, rel=1e-3)
    assert eq.point.x1 == pytest.approx(1.450943, rel=1e-3)
    assert eq.point.x2 == pytest.approx(0.494560, rel=1e-3)
    ev = BifurcationEvent(BifurcationKind.HOPF, "a1", a1_star, eq.point, {})
    assert first_lyapunov_coefficient(OSC, ev) < 0.0

    # Same scan with a 30% refuge.
    refuge = with_params(OSC, r=0.3)
    a1_star_r, eq_r = hopf_a1_fixed_point(refuge)
    assert a1_star_r == pytest.approx(0.872784, rel=1e-3)
    assert eq_r.point.x1 == pytest.approx(4.836480, rel=1e-3)
    assert eq_r.point.x2 == pytest.approx(5.495070, rel=1e-3)
    ev_r = BifurcationEvent(BifurcationKind.HOPF, "a1", a1_star_r, eq_r.point, {})
    assert first_lyapunov_coefficient(refuge, ev_r) < 0.0

    # Refuge scan at the table growth rate: the loss-of-stability fraction.
    br = branch_sweep(OSC, "r", 0.35, 0.55, n=41, scan_points=800)
    events = detect_hopf(br, scan_points=800)
    assert len(events) == 1
    hopf = events[0]
    assert hopf.critical_value == pytest.approx(0.436392, rel=1e-3)
    assert hopf.point.x1 == pytest.approx(3.324860, rel=1e-3)
    assert hopf.point.x2 == pytest.approx(2.596940, rel=1e-3)
    assert hopf.diagnostics["d_re_eig_dparam"] != 0.0
    assert hopf.diagnostics["lyapunov_sign"] == -1.0


SADDLE_NODE_TARGETS = {
    # param: (window, plain value, value with r = 0.3)
    "a1": ((0.35, 0.65), 0.46809, 0.44476),
    "a2": ((0.50, 0.80), 0.61515, 0.56250),
    "w0": ((0.15, 0.30), 0.22759, 0.24889),
    "w1": ((3.50, 5.50), 4.55175, 4.97778),
    "b1": ((0.04, 0.07), 0.05722, 0.064498),
}


@pytest.mark.parametrize("refuge", [False, True], ids=["plain", "r=0.3"])
def test_c04_saddle_node_positions(refuge):
    p = with_params(BISTABLE, r=0.3) if refuge else BISTABLE
    for name, (window, plain, shifted) in SADDLE_NODE_TARGETS.items():
        target = shifted if refuge else plain
        br = branch_sweep(p, name, *window, n=101, scan_points=800)
        events = detect_saddle_node(br)
        assert len(events) == 1, f"{name}: expected one fold, got {events}"
        ev = events[0]
        assert ev.critical_value == pytest.approx(target, rel=1e-2), name
        assert abs(ev.diagnostics["det"]) < 1e-8, name
        assert ev.diagnostics["tr"] < 0.0, name


def test_c05_transcritical_refuge_fraction():
    tc = transcritical_r(OSC)
    assert tc.r1_star == pytest.approx(0.15239, rel=1e-3)

    # Just above the threshold the interior point sits against the
    # carrying capacity; just below, there is no interior point at all.
    above = with_params(OSC, r=tc.r1_star * (1 + 1e-3))
    eqs = interior_equilibria(above)
    assert len(eqs) == 1
    cap = OSC.carrying_capacity
    assert abs(eqs[0].point.x1 - cap) / cap < 0.01

    below = with_params(OSC, r=tc.r1_star * (1 - 1e-3))
    assert interior_equilibria(below) == []


SEPARATRIX_CASES = [
    (OSC, Verdict.WS_ABOVE_WU),
    (ENRICHED, Verdict.WU_ABOVE_WS),
    (with_params(ENRICHED, r=0.3), Verdict.WS_ABOVE_WU),
]


@pytest.mark.parametrize("p,expected", SEPARATRIX_CASES,
                         ids=["oscillatory", "enriched", "enriched-refuge"])
def test_c06_separatrix_relative_position(p, expected):
    ws = trace_stable_separatrix_E0(p)
    wu = trace_unstable_manifold_E1(p)
    cmp_ = separatrix_relative_position(ws, wu)
    assert cmp_.verdict is expected
    assert cmp_.margin > 0.0
    assert cmp_.contradicted == 0  # every probe in range agrees with the fate


def test_c07_finite_time_extinction():
    v = extinction_ic_condition(0.3, OSC)
    assert v.criterion_met
    assert v.lhs == pytest.approx(1.530406, rel=1e-6)
    assert v.rhs == pytest.approx(5.0 / 3.0, rel=1e-12)

    res = simulate_extinction(OSC, State(0.3, 50.0))
    sim = res.simulated
    assert sim.extinct and math.isfinite(sim.time)
    # scipy's T(x1 = 1e-9) (DOP853 at rtol 1e-13, bench/references.json)
    assert sim.time == pytest.approx(0.14695262316449959, rel=1e-6)

    # Doubling the predator load shortens the touchdown.
    faster = simulate_extinction(OSC, State(0.3, 100.0)).simulated
    assert faster.time < sim.time

    # From x1 = 0.5 the sufficient condition fails.
    v5 = extinction_ic_condition(0.5, OSC)
    assert not v5.criterion_met
    assert v5.lhs == pytest.approx(1.811949, rel=1e-6)


def test_c08_refuge_restores_persistence():
    th = refuge_threshold(0.3, OSC)
    assert th.r_star == pytest.approx(0.010358, rel=1e-4)
    sheltered = with_params(OSC, r=0.9 * th.r_star)
    verdict = verify_persistence(sheltered, State(0.3, 50.0))
    assert verdict.persistent
    assert verdict.min_x1 > 0.25


def test_c09_consistency_battery(tmp_path):
    rng = random.Random(99)

    # (a) closed-form Jacobian against central differences
    for p in (OSC, BISTABLE):
        f = make_rhs(p)
        for _ in range(50):
            x1 = rng.uniform(0.05, 0.95) * p.carrying_capacity
            x2 = rng.uniform(0.05, 25.0)
            J = jacobian(State(x1, x2), p)
            h1, h2 = 1e-6 * max(1.0, x1), 1e-6 * max(1.0, x2)
            fd = (
                ((f(x1 + h1, x2)[0] - f(x1 - h1, x2)[0]) / (2 * h1),
                 (f(x1, x2 + h2)[0] - f(x1, x2 - h2)[0]) / (2 * h2)),
                ((f(x1 + h1, x2)[1] - f(x1 - h1, x2)[1]) / (2 * h1),
                 (f(x1, x2 + h2)[1] - f(x1, x2 - h2)[1]) / (2 * h2)),
            )
            for i in (0, 1):
                for j in (0, 1):
                    assert J[i][j] == pytest.approx(fd[i][j], rel=1e-5, abs=1e-8)

    # (b) classical limit m1 = m2 = 1: entries match the textbook forms
    classical = with_params(OSC, m1=1.0, m2=1.0)
    for _ in range(20):
        x1 = rng.uniform(0.1, 9.0)
        x2 = rng.uniform(0.1, 20.0)
        s = classical.r * x1
        G = s / (s + classical.d)
        Gp = classical.d * classical.r / ((s + classical.d) * (s + classical.d))
        (j11, j12), (j21, j22) = jacobian(State(x1, x2), classical)
        assert j11 == pytest.approx(
            classical.a1 - 2 * classical.b1 * x1 - classical.w0 * Gp * x2, rel=1e-14)
        assert j12 == pytest.approx(-classical.w0 * G, rel=1e-14)
        assert j21 == pytest.approx(classical.w1 * Gp * x2, rel=1e-14)
        assert j22 == pytest.approx(-classical.a2 + classical.w1 * G, rel=1e-14)

    # (c) random trajectories stay nonnegative and bounded
    for p in (OSC, BISTABLE):
        cap = p.carrying_capacity
        K2 = dissipative_bound_K2(p).K2
        for _ in range(20):
            ic = State(rng.uniform(1e-3, cap), rng.uniform(1e-3, K2))
            traj = integrate(p, ic, IntegratorOptions(horizon=50.0))
            x1_lim = max(ic.x1, cap) * (1 + 1e-9) + 1e-12
            x2_lim = 1.5 * max(ic.x2, K2)
            for st in traj.states:
                assert 0.0 <= st.x1 <= x1_lim
                assert 0.0 <= st.x2 <= x2_lim

    # (d) serialized trajectories survive a round trip bit for bit
    traj = integrate(OSC, State(0.5, 2.0), IntegratorOptions(horizon=10.0))
    path = str(tmp_path / "roundtrip.csv")
    csvio.write_trajectory(traj, path)
    times, states = csvio.read_trajectory(path)
    assert times == traj.times and states == traj.states


def test_c10_model_assumptions_audit():
    for p in (OSC, BISTABLE):
        checks = verify_assumptions(p)
        assert len(checks) == 7
        bad = [c for c in checks if c.status != "pass"]
        assert bad == []
