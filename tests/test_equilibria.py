from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predprey import (
    Classification,
    DomainError,
    EquilibriumKind,
    ModelParams,
    State,
    classify,
    eval_g,
    interior_equilibria,
    jacobian,
    make_rhs,
    predator_free_equilibrium,
    predator_nullcline_x1,
    trivial_equilibrium,
    with_params,
    x2_of_x1,
)
from predprey import equilibria
from predprey.equilibria import _scan_gradient, interior_scan_function


def test_trivial_and_predator_free_points(osc_params):
    e0 = trivial_equilibrium(osc_params)
    assert e0.kind is EquilibriumKind.TRIVIAL
    assert e0.point == State(0.0, 0.0)
    e1 = predator_free_equilibrium(osc_params)
    assert e1.kind is EquilibriumKind.PREDATOR_FREE
    assert e1.point.x1 == pytest.approx(osc_params.carrying_capacity)
    assert e1.point.x2 == 0.0


def test_origin_not_linearizable_for_fractional_m1(osc_params):
    e0 = trivial_equilibrium(osc_params)
    assert e0.classification is Classification.NON_LINEARIZABLE
    assert e0.eigenvalues is None


def test_origin_saddle_in_classical_limit(osc_params):
    p = with_params(osc_params, m1=1.0)
    e0 = trivial_equilibrium(p)
    assert e0.classification is Classification.SADDLE


def test_predator_free_saddle_when_invasion_pays(osc_params):
    # w1 * g(r*K) > a2 here, so E1 repels along the predator direction.
    e1 = predator_free_equilibrium(osc_params)
    assert e1.classification is Classification.SADDLE
    assert e1.det is not None and e1.det < 0.0


def test_predator_free_not_linearizable_for_fractional_m2(bistable_params):
    e1 = predator_free_equilibrium(bistable_params)
    assert e1.classification is Classification.NON_LINEARIZABLE


AXIS_SETS = [("osc", {}), ("osc", {"r": 0.3}), ("osc", {"m1": 1.0}),
             ("osc", {"m1": 1.0, "r": 0.3}), ("bistable", {"m2": 1.0}),
             ("bistable", {"m1": 1.0, "m2": 1.0, "r": 0.3})]


@pytest.mark.parametrize("table, changes", AXIS_SETS)
def test_axis_jacobians_in_closed_form(table, changes, osc_params, bistable_params):
    # m2 = 1 in every set; E0 is linearizable only at m1 = 1 as well
    p = with_params(osc_params if table == "osc" else bistable_params, **changes)
    if p.m1 == 1.0:
        assert jacobian(State(0.0, 0.0), p) == ((p.a1, 0.0), (0.0, -p.a2))
    g = eval_g(p.r * p.carrying_capacity, p)
    want = ((-p.a1, -p.w0 * g), (0.0, -p.a2 + p.w1 * g))
    got = jacobian(State(p.carrying_capacity, 0.0), p)
    for got_row, want_row in zip(got, want):
        assert got_row == pytest.approx(want_row, rel=1e-14, abs=0.0)


def test_interior_unique_for_oscillatory_set(osc_params):
    eqs = interior_equilibria(osc_params)
    assert len(eqs) == 1
    assert eqs[0].kind is EquilibriumKind.INTERIOR
    assert eqs[0].classification is Classification.UNSTABLE_FOCUS


def test_interior_pair_for_bistable_set(bistable_params):
    eqs = interior_equilibria(bistable_params)
    assert [e.classification for e in eqs] == [
        Classification.SADDLE, Classification.STABLE_NODE]


def test_interior_snaps_to_closed_form_when_m2_is_one(osc_params):
    eqs = interior_equilibria(osc_params)
    assert eqs[0].point.x1 == predator_nullcline_x1(osc_params)
    assert eqs[0].point.x2 == x2_of_x1(eqs[0].point.x1, osc_params)


@pytest.mark.parametrize("table", ["osc", "bistable"])
def test_interior_residual_tiny(table, osc_params, bistable_params):
    p = osc_params if table == "osc" else bistable_params
    f = make_rhs(p)
    for eq in interior_equilibria(p):
        d1, d2 = f(eq.point.x1, eq.point.x2)
        assert abs(d1) < 1e-8 and abs(d2) < 1e-8


def test_scan_function_signs_bracket_roots(bistable_params):
    F = interior_scan_function(bistable_params)
    eqs = interior_equilibria(bistable_params)
    for eq in eqs:
        x = eq.point.x1
        assert F(x * (1 - 1e-4)) * F(x * (1 + 1e-4)) < 0.0


def _scan_function_reference(p):
    """F as the composition of the model's helpers, written as the field's
    f1 = x1*f - w0*(g*x2**m2), negated."""
    def F(x1):
        x2 = x2_of_x1(x1, p)
        pw = 0.0 if x2 == 0.0 else x2 ** p.m2
        return -(x1 * (p.a1 - p.b1 * x1) - p.w0 * (eval_g(p.r * x1, p) * pw))
    return F


@pytest.mark.parametrize("changes", [{}, {"r": 0.3}])
@pytest.mark.parametrize("table", ["osc", "bistable", "osc_m1_m2_1"])
def test_scan_function_matches_reference_exactly(table, changes, osc_params, bistable_params):
    p = {"osc": osc_params, "bistable": bistable_params,
         "osc_m1_m2_1": with_params(osc_params, m1=1.0, m2=1.0)}[table]
    p = with_params(p, **changes)
    F, ref = interior_scan_function(p), _scan_function_reference(p)
    cap = p.carrying_capacity
    top = cap * (1.0 + 1e-12)
    lo_frac, hi_frac, n = 1e-9, 1.0 - 1e-9, 2000  # interior_equilibria's scan grid
    xs = [cap * (lo_frac + (hi_frac - lo_frac) * i / (n - 1)) for i in range(n)]
    # repr tells every float apart (-0.0 too)
    xs += [0.0, cap]
    assert [repr(F(x)) for x in xs] == [repr(ref(x)) for x in xs]
    # F is the field's f1 negated: -(0 - 0) at the origin; past cap the
    # field clamps x2 < 0 to 0, which leaves -x1*f(x1) for every m2
    assert repr(F(0.0)) == "-0.0"
    assert F(top) == -(top * (p.a1 - p.b1 * top)) > 0.0
    for x in (-5e-324, -1e-12, math.nextafter(top, math.inf), 2.0 * cap, math.nan):
        for f in (F, ref):
            with pytest.raises(DomainError):
                f(x)


def test_jacobian_matches_central_differences(osc_params, bistable_params):
    rng = random.Random(11)
    for p in (osc_params, bistable_params):
        f = make_rhs(p)
        for _ in range(10):
            x1 = rng.uniform(0.1, 0.9) * p.carrying_capacity
            x2 = rng.uniform(0.05, 20.0)
            (j11, j12), (j21, j22) = jacobian(State(x1, x2), p)
            h1 = 1e-6 * max(1.0, x1)
            h2 = 1e-6 * max(1.0, x2)
            fp1 = f(x1 + h1, x2)
            fm1 = f(x1 - h1, x2)
            fp2 = f(x1, x2 + h2)
            fm2 = f(x1, x2 - h2)
            assert j11 == pytest.approx((fp1[0] - fm1[0]) / (2 * h1), rel=1e-6, abs=1e-9)
            assert j21 == pytest.approx((fp1[1] - fm1[1]) / (2 * h1), rel=1e-6, abs=1e-9)
            assert j12 == pytest.approx((fp2[0] - fm2[0]) / (2 * h2), rel=1e-6, abs=1e-9)
            assert j22 == pytest.approx((fp2[1] - fm2[1]) / (2 * h2), rel=1e-6, abs=1e-9)


def test_jacobian_refuses_axis_with_fractional_exponent(osc_params, bistable_params):
    with pytest.raises(DomainError):
        jacobian(State(0.0, 1.0), osc_params)  # m1 < 1 touches x1 = 0
    with pytest.raises(DomainError):
        jacobian(State(1.0, 0.0), bistable_params)  # m2 < 1 touches x2 = 0


def test_classify_maps_axis_trouble_to_non_linearizable(osc_params):
    eq = classify(State(0.0, 2.0), osc_params)
    assert eq.classification is Classification.NON_LINEARIZABLE


def test_x2_of_x1_domain(osc_params):
    cap = osc_params.carrying_capacity
    assert x2_of_x1(cap, osc_params) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DomainError):
        x2_of_x1(-0.5, osc_params)
    with pytest.raises(DomainError):
        x2_of_x1(cap * 1.01, osc_params)


def test_predator_nullcline_x1_preconditions(bistable_params, osc_params):
    with pytest.raises(DomainError):
        predator_nullcline_x1(bistable_params)  # m2 != 1
    with pytest.raises(DomainError):
        predator_nullcline_x1(with_params(osc_params, w1=0.9))  # w1 <= a2


# With em = 1/m1 large, w1**em or a2**em overflows; the root is then
# (d/r)/((w1/a2)**em - 1), not an OverflowError.  At m1 = 1.4e-61 it
# underflows to 0, outside the window.
def test_predator_nullcline_x1_at_tiny_exponents():
    p = ModelParams(a1=0.1, a2=0.47142415097361046, b1=0.3016488836286861, w0=0.1,
                    w1=5.108341504257376, d=0.14533509843313144,
                    m1=1.3853793196814609e-61, m2=1.0, r=0.3680233380567573)
    assert predator_nullcline_x1(p) == 0.0
    assert interior_equilibria(p) == []
    p = with_params(p, a2=2.0, w1=2.0002, m1=1.0 / 2000.0)
    want = (p.d / p.r) / math.expm1(2000.0 * math.log1p(1e-4))
    assert predator_nullcline_x1(p) == pytest.approx(want, rel=1e-10)


def test_eigenvalues_consistent_with_trace_det(osc_params):
    eq = interior_equilibria(osc_params)[0]
    lam1, lam2 = eq.eigenvalues
    assert lam1.real + lam2.real == pytest.approx(eq.trace, rel=1e-9)
    prod = lam1 * lam2
    assert prod.real == pytest.approx(eq.det, rel=1e-9)
    assert abs(prod.imag) < 1e-12


# --------------------------------------------------------------------------
# The closed-form gradient of F against difference quotients.

SWEEPABLE = ("a1", "a2", "b1", "w0", "w1", "r")

# The documented domain: rates spanning four decades, exponents and refuge in (0, 1].
RATE = st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e)
UNIT = st.floats(1e-2, 1.0)
DOMAIN = st.builds(ModelParams, a1=RATE, a2=RATE, b1=RATE, w0=RATE, w1=RATE, d=RATE,
                   m1=UNIT, m2=UNIT, r=UNIT)

# Absolute floor of the gradient check, as a fraction of a partial's natural
# size (F's terms over the coordinate).  The difference quotients' rounding
# noise is ~1e-13 of it; the floor admits that noise where a partial cancels
# (F_b1 at tiny x1) or vanishes identically (F_w0 at m2 = 1), and nothing a
# wrong sign or factor would give.
FLOOR = 1e-10


def _moved(p, name, v):
    """p with one field set to v, unvalidated: a difference step in r may cross 1."""
    q = object.__new__(ModelParams)
    q.__dict__.update(vars(p), **{name: v})
    return q


def _richardson(f, x, h):
    """df/dx at x: central differences at h and h/2, extrapolated to O(h**4)."""
    d1 = (f(x + h) - f(x - h)) / (2.0 * h)
    d2 = (f(x + 0.5 * h) - f(x - 0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


def _check_scan_gradient(p, x1):
    """F_x1 and F_v for every sweepable v, to 1e-7 relative (above FLOOR).
    Steps are 1e-3 of the coordinate, shrunk by the distance to a1/b1 in
    x1, a1 and b1 so that f stays positive."""
    cap = p.carrying_capacity
    room = (cap - x1) / cap
    f = p.a1 - p.b1 * x1
    x2 = p.w1 / (p.w0 * p.a2) * x1 * f
    terms = x1 * f + p.w0 * eval_g(p.r * x1, p) * x2 ** p.m2
    F = interior_scan_function(p)
    want_x1 = _richardson(F, x1, 1e-3 * min(x1, cap - x1))
    for name in SWEEPABLE:
        (got_F, got_x1, got_v), = _scan_gradient(x1, p, name)
        assert got_F == F(x1)
        assert abs(got_x1 - want_x1) <= 1e-7 * abs(want_x1) + FLOOR * terms / x1, (
            name, got_x1, want_x1)
        v = getattr(p, name)
        h = 1e-3 * v * (room if name in ("a1", "b1") else 1.0)
        want_v = _richardson(lambda u: interior_scan_function(_moved(p, name, u))(x1), v, h)
        assert abs(got_v - want_v) <= 1e-7 * abs(want_v) + FLOOR * terms / v, (
            name, got_v, want_v)


@pytest.mark.parametrize("table, changes", [
    ("osc", {}), ("osc", {"r": 0.3}), ("bistable", {}), ("bistable", {"r": 0.3}),
    ("osc", {"m1": 1.0, "m2": 1.0})])
def test_scan_gradient_matches_richardson_differences(table, changes, osc_params,
                                                      bistable_params):
    p = with_params(osc_params if table == "osc" else bistable_params, **changes)
    for frac in (1e-8, 1e-3, 0.1, 0.37, 0.5, 0.8, 0.999):
        _check_scan_gradient(p, frac * p.carrying_capacity)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(p=DOMAIN, low=st.booleans(), e=st.floats(-9.0, math.log10(0.5)))
def test_scan_gradient_over_the_domain(p, low, e):
    # x1 in the Newton window, 1e-9*cap < x1 < (1-1e-9)*cap, log-spread
    # toward both ends; within 1e-4 of a1/b1 f = a1 - b1*x1 loses too many
    # digits for a difference quotient to check 1e-7.
    frac = 10.0 ** e if low else 1.0 - max(10.0 ** e, 1e-4)
    _check_scan_gradient(p, frac * p.carrying_capacity)


# --------------------------------------------------------------------------
# Interior equilibria over the documented domain.

@settings(max_examples=150, deadline=None, derandomize=True)
@given(p=DOMAIN)
def test_interior_equilibria_over_the_domain(p):
    # every root is an equilibrium of the field, and its exact Jacobian
    # matches central differences (the tolerances of
    # test_jacobian_matches_central_differences; steps relative to the
    # coordinates, which stay inside the quadrant)
    f = make_rhs(p)
    for eq in interior_equilibria(p):
        x1, x2 = eq.point.x1, eq.point.x2
        assert max(map(abs, f(x1, x2))) <= 1e-8 * max(1.0, x1 + x2)
        (j11, j12), (j21, j22) = jacobian(eq.point, p)
        h1, h2 = 1e-6 * x1, 1e-6 * x2
        fp1, fm1 = f(x1 + h1, x2), f(x1 - h1, x2)
        fp2, fm2 = f(x1, x2 + h2), f(x1, x2 - h2)
        assert j11 == pytest.approx((fp1[0] - fm1[0]) / (2 * h1), rel=1e-6, abs=1e-9)
        assert j21 == pytest.approx((fp1[1] - fm1[1]) / (2 * h1), rel=1e-6, abs=1e-9)
        assert j12 == pytest.approx((fp2[0] - fm2[0]) / (2 * h2), rel=1e-6, abs=1e-9)
        assert j22 == pytest.approx((fp2[1] - fm2[1]) / (2 * h2), rel=1e-6, abs=1e-9)


# The transcritical edge: the m2 = 1 root sits one ulp below the last point
# of a dense scan, where F is rounding noise of the sign of the cell before,
# so a scan of any of these sizes misses it.  The solver used to refuse it
# with a DomainError; it now takes the closed form without a search.
@pytest.mark.parametrize("scan_points", [16, 200, 2000])
def test_missed_closed_form_root_is_a_domain_error(scan_points, transcritical_edge_params,
                                                   scan_roots):
    p = transcritical_edge_params
    assert scan_roots(p, scan_points) == []
    eqs = interior_equilibria(p)
    assert [e.point.x1 for e in eqs] == [predator_nullcline_x1(p)]
    assert eqs[0].point.x1 / p.carrying_capacity == pytest.approx(1.0 - 1.0e-9, abs=1e-15)
    assert make_rhs(p)(eqs[0].point.x1, eqs[0].point.x2) == (0.0, 0.0)


# Within 1e-8 relative of the bundled bistable folds, on the side with two
# equilibria, a 2 000-point scan reported none: both roots sit in one cell.
@pytest.mark.parametrize("name, fold, two_side", [("w1", 4.55175, -1.0),
                                                  ("a2", 0.61514802, 1.0)])
def test_near_fold_pairs_are_found(name, fold, two_side, bistable_params):
    p = with_params(bistable_params, **{name: fold * (1.0 + two_side * 1e-8)})
    eqs = interior_equilibria(p)
    assert len(eqs) == 2
    f = make_rhs(p)
    for eq in eqs:
        assert max(map(abs, f(eq.point.x1, eq.point.x2))) <= 1e-8
    assert eqs[1].point.x1 - eqs[0].point.x1 < p.carrying_capacity / 1999
    assert interior_equilibria(with_params(bistable_params,
                                           **{name: fold * (1.0 - two_side * 1e-8)})) == []


# Rates log-uniform on [0.1, 10]; each of m1, m2, r either 1 or log-uniform
# on [0.05, 1].
SCAN_RATE = st.floats(-1.0, 1.0).map(lambda e: 10.0 ** e)
SCAN_UNIT = st.one_of(st.just(1.0), st.floats(math.log(0.05), 0.0).map(math.exp))
SCAN_DOMAIN = st.builds(ModelParams, a1=SCAN_RATE, a2=SCAN_RATE, b1=SCAN_RATE,
                        w0=SCAN_RATE, w1=SCAN_RATE, d=SCAN_RATE,
                        m1=SCAN_UNIT, m2=SCAN_UNIT, r=SCAN_UNIT)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(p=SCAN_DOMAIN)
def test_interior_equilibria_match_a_20000_point_scan(p, dense_scan):
    got = [e.point.x1 for e in interior_equilibria(p)]
    assert got == sorted(got)
    assert len(got) <= (1 if p.m2 == 1.0 else 3)
    dense_scan(got, p, 20_000)


# F evaluations of one interior_equilibria solve: 0 for OSC (m2 = 1, the
# closed form), 15 and 12 for BISTABLE plain and at r = 0.3.  A 2 000-point
# scan makes 2 000 and more.  The bound is 1.25 times the measured count.
SOLVE_F_CALLS = {("osc", 1.0): 0, ("osc", 0.3): 0, ("bistable", 1.0): 15, ("bistable", 0.3): 12}


@pytest.mark.parametrize("table, r", sorted(SOLVE_F_CALLS))
def test_interior_equilibria_scan_function_calls(table, r, osc_params, bistable_params,
                                                 monkeypatch):
    calls = []
    factory = equilibria.interior_scan_function

    def counted(p):
        F = factory(p)

        def F_counted(x1):
            calls.append(x1)
            return F(x1)

        return F_counted

    monkeypatch.setattr(equilibria, "interior_scan_function", counted)
    p = with_params(osc_params if table == "osc" else bistable_params, r=r)
    assert len(interior_equilibria(p)) == (1 if table == "osc" else 2)
    assert len(calls) <= 1.25 * SOLVE_F_CALLS[table, r]


# H evaluations per bracketed solve over 300 random sets (rates log-uniform
# on [0.1, 10], m1 and r uniform on [0.05, 1], m2 on [0.05, 0.999]): with
# the Newton in log(x1/(a1/b1 - x1)) and its bisections in that variable
# while the bracket spans more than a factor 2, 6 at the median, 6 at p90
# and at most 11.  A Newton in x1 from the window's linear midpoint took 13,
# 37 and 56: a root near either end of the nine-decade window cost a long
# bisection.  The bounds are 1.25 times the median and p90 counts; the
# maximum's, 12.5, is kept from an earlier count of 10.
def test_bracketed_solves_take_few_evaluations(monkeypatch):
    calls = []
    solve = equilibria._solve_monotone

    def counted(H, *args):
        calls.append(0)

        def H_counted(x1):
            calls[-1] += 1
            return H(x1)

        return solve(H_counted, *args)

    monkeypatch.setattr(equilibria, "_solve_monotone", counted)
    rng = random.Random(20261019)
    for _ in range(300):
        rates = {k: 10.0 ** rng.uniform(-1.0, 1.0) for k in ("a1", "a2", "b1", "w0", "w1", "d")}
        interior_equilibria(ModelParams(**rates, m1=rng.uniform(0.05, 1.0),
                                        m2=rng.uniform(0.05, 0.999), r=rng.uniform(0.05, 1.0)))
    calls.sort()
    assert len(calls) == 250
    assert calls[len(calls) // 2] <= 1.25 * 6
    assert calls[int(0.9 * len(calls))] <= 1.25 * 6
    assert calls[-1] <= 1.25 * 10


# The slowest solve of 1 500 sets drawn as above: the root sits at
# 1.04e-9*a1/b1, just inside the window's low end.  Halving the bracket in
# x1 from the midpoint took 15 H evaluations, 8 of them halvings; halving
# it in log(x1/(a1/b1 - x1)) reaches Newton's basin in one.
def test_root_at_the_window_end_takes_few_evaluations(monkeypatch):
    p = ModelParams(a1=0.14627141954370393, a2=0.6505250479768009,
                    b1=0.34374635031372164, w0=0.3666119527934597,
                    w1=6.546656945832336, d=0.18525926883569682,
                    m1=0.19813882936980054, m2=0.9048998526770993,
                    r=0.2295333306152818)
    calls = []
    solve = equilibria._solve_monotone

    def counted(H, *args):
        def H_counted(x1):
            calls.append(x1)
            return H(x1)

        return solve(H_counted, *args)

    monkeypatch.setattr(equilibria, "_solve_monotone", counted)
    (eq,) = interior_equilibria(p)
    assert eq.point.x1 / p.carrying_capacity == pytest.approx(1.0410636918e-9, rel=1e-10)
    assert len(calls) <= 7
