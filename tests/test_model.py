from __future__ import annotations

import dataclasses
import math
import random

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from predprey import (
    DomainError,
    ModelParams,
    ParameterError,
    State,
    eval_g,
    make_rhs,
    make_u_rhs,
    make_y_rhs,
    validate_params,
    verify_assumptions,
    with_params,
)
from predprey.equilibria import interior_scan_function, x2_of_x1
from predprey.geometry import psi
from predprey.model import _GAUSS6, _g_derivatives, _inverse_g_integral

OSC = dict(a1=0.6, a2=1.0, b1=0.063, w0=1.0, w1=2.0, d=2.0, m1=0.8, m2=1.0)
BISTABLE = dict(a1=0.5, a2=0.7, b1=0.05, w0=0.2, w1=4.0, d=0.2, m1=0.5, m2=0.5)


@pytest.mark.parametrize("bad", [
    dict(a1=0.0), dict(a2=-1.0), dict(b1=0.0), dict(w0=-0.1), dict(d=0.0),
    dict(m1=0.0), dict(m1=1.2), dict(m2=0.0), dict(m2=1.5), dict(r=0.0),
    dict(r=1.5),
])
def test_params_reject_out_of_range(bad):
    with pytest.raises(ParameterError):
        ModelParams(**{**OSC, **bad})


def test_params_error_collects_all_fields():
    with pytest.raises(ParameterError) as exc:
        ModelParams(**{**OSC, "a1": -1.0, "m1": 3.0})
    assert len(exc.value.errors) >= 2


def test_validate_params_unknown_and_missing_keys():
    raw = dict(OSC)
    raw.pop("d")
    raw["w3"] = 1.0
    with pytest.raises(ParameterError) as exc:
        validate_params(raw)
    joined = " ".join(exc.value.errors)
    assert "w3" in joined and "d" in joined


def test_validate_params_accepts_table(osc_params):
    assert validate_params(OSC) == osc_params


def test_carrying_capacity(osc_params):
    assert osc_params.carrying_capacity == pytest.approx(0.6 / 0.063)


def test_eval_g_shape(osc_params):
    assert eval_g(0.0, osc_params) == 0.0
    xs = [1e-9, 1e-4, 0.1, 1.0, 10.0, 1e3]
    gs = [eval_g(x, osc_params) for x in xs]
    assert all(b > a for a, b in zip(gs, gs[1:]))
    assert all(0.0 < g < 1.0 for g in gs)
    assert eval_g(1e12, osc_params) > 1.0 - 1e-9


@pytest.mark.parametrize("table", [OSC, BISTABLE])
def test_make_rhs_matches_rhs(table):
    # the field written out, against the compiled closure
    p = ModelParams(**table)
    f = make_rhs(p)
    rng = random.Random(7)
    for _ in range(50):
        x1 = rng.uniform(1e-6, p.carrying_capacity)
        x2 = rng.uniform(1e-6, 40.0)
        inter = (p.r * x1 / (p.r * x1 + p.d)) ** p.m1 * x2 ** p.m2
        d1a = p.a1 * x1 - p.b1 * x1 * x1 - p.w0 * inter
        d2a = -p.a2 * x2 + p.w1 * inter
        d1b, d2b = f(x1, x2)
        assert d1b == pytest.approx(d1a, rel=1e-14, abs=1e-300)
        assert d2b == pytest.approx(d2a, rel=1e-14, abs=1e-300)


# r*x1 is subnormal or 0 for every x1 below 2**52 when r = 5e-324
TINY_R = dict(a1=0.1, a2=0.1, b1=0.1, w0=0.1, w1=0.1, d=0.1, m1=1e-10, m2=5e-324,
              r=5e-324)


def _check_continuous_where_r_x1_underflows(p):
    f = make_rhs(p)
    F = interior_scan_function(p)

    def g_exact(x1, k=0):
        with mp.workdps(40):
            return float(mp.diff(lambda x: (p.r * x / (p.r * x + p.d)) ** p.m1, x1, k))

    x2 = 0.01
    for x1 in (1e-300, 0.25, math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0),
               0.75, 1.0):
        d1, d2 = f(x1, x2)
        g = g_exact(x1)
        pw = x2 ** p.m2
        assert d1 == pytest.approx(x1 * (p.a1 - p.b1 * x1) - p.w0 * g * pw, rel=1e-14)
        assert d2 == pytest.approx(-p.a2 * x2 + p.w1 * g * pw, rel=1e-14)
        xf = x1 * (p.a1 - p.b1 * x1)
        assert F(x1) == pytest.approx(p.w0 * g * x2_of_x1(x1, p) ** p.m2 - xf, rel=1e-14)
        assert psi(x1, p) == pytest.approx(xf / (p.w0 * g), rel=1e-14)
        if x1 > 1e-300:  # mpmath's difference steps reach across the axis there
            for k, got in enumerate(_g_derivatives(x1, p)):
                assert got == pytest.approx(g_exact(x1, k), rel=1e-13), k
    below, above = f(math.nextafter(0.5, 0.0), x2), f(math.nextafter(0.5, 1.0), x2)
    assert abs(above[1] - below[1]) < 1e-15
    assert abs(F(math.nextafter(0.5, 1.0)) - F(math.nextafter(0.5, 0.0))) < 1e-15
    assert f(0.0, x2) == (0.0, -p.a2 * x2)


def test_field_is_continuous_where_r_x1_underflows():
    # r*x1 underflows to 0 for x1 <= 0.5 and to the smallest subnormal above;
    # g taken from those few bits dropped from about 1 to 0 at x1 = 0.5.  The
    # scan function, psi and the derivative table take g from the same kernel
    for m2 in (TINY_R["m2"], 0.5):
        _check_continuous_where_r_x1_underflows(ModelParams(**{**TINY_R, "m2": m2}))


def test_field_keeps_its_bits_where_r_x1_is_normal():
    # the log route is taken only below the smallest normal r*x1
    p = ModelParams(**{**TINY_R, "r": 1e-300})
    f = make_rhs(p)
    x2 = 0.01
    for x1 in (1e-7, 0.5, 0.9, 1.0):
        s = p.r * x1
        inter = (s / (s + p.d)) ** p.m1 * x2 ** p.m2
        assert f(x1, x2) == (x1 * (p.a1 - p.b1 * x1) - p.w0 * inter,
                             -p.a2 * x2 + p.w1 * inter)


def test_prey_axis_is_invariant(osc_params, bistable_params):
    for p in (osc_params, bistable_params):
        d1, d2 = make_rhs(p)(0.0, 3.0)
        assert d1 == 0.0
        assert d2 < 0.0  # g(0) = 0 starves the predator


def test_u_chart_matches_chain_rule(osc_params):
    fu = make_u_rhs(osc_params)
    fx = make_rhs(osc_params)
    for x1, x2 in [(0.3, 50.0), (1.0, 1.0), (5.0, 0.2), (0.01, 10.0)]:
        du, d2u = fu(1.0 / x1, x2)
        d1, d2 = fx(x1, x2)
        assert du == pytest.approx(-d1 / (x1 * x1), rel=1e-12)
        assert d2u == pytest.approx(d2, rel=1e-12)


def test_u_chart_rejects_nonpositive_u(osc_params):
    fu = make_u_rhs(osc_params)
    with pytest.raises(DomainError):
        fu(0.0, 1.0)
    with pytest.raises(DomainError):
        fu(-1.0, 1.0)


def test_y_chart_matches_chain_rule():
    # y = x1**(1-m1): dy/dt = (1-m1)*x1**(-m1)*dx1/dt, and dx2/dt is the
    # x-chart's, over a seeded draw of the domain with x1 from 1e-12 to a1/b1
    rng = random.Random(23)
    for _ in range(200):
        rates = {k: 10.0 ** rng.uniform(-1.0, 1.0) for k in ("a1", "a2", "b1", "w0", "w1", "d")}
        p = ModelParams(**rates, m1=rng.uniform(0.001, 0.999), m2=rng.uniform(0.001, 1.0),
                        r=rng.uniform(0.001, 1.0))
        fy, fx = make_y_rhs(p), make_rhs(p)
        k = 1.0 - p.m1
        for _ in range(5):
            x1 = 10.0 ** rng.uniform(-12.0, math.log10(p.carrying_capacity))
            x2 = 10.0 ** rng.uniform(-3.0, 2.0)
            dy, d2y = fy(x1 ** k, x2)
            d1, d2 = fx(x1, x2)
            inter = (p.r * x1 / (p.r * x1 + p.d)) ** p.m1 * x2 ** p.m2
            # the scale of the terms that cancel in each component
            s1 = k * x1 ** -p.m1 * (p.a1 * x1 + p.b1 * x1 * x1 + p.w0 * inter)
            s2 = p.a2 * x2 + p.w1 * inter
            assert abs(dy - k * x1 ** -p.m1 * d1) <= 1e-11 * s1
            assert abs(d2y - d2) <= 1e-11 * s2


def test_y_chart_keeps_its_digits_where_r_x1_underflows():
    # at r = 5e-324, r/(r*x1 + d) is subnormal and c = (r/(r*x1 + d))**m1
    # comes from logs; at x1 = 1e-300 the field agrees with a 40-digit one.
    # At d = 0.1 the quotient happens to be 10 subnormal ulps exactly; at
    # d = 0.3 it rounds from 3.3 to 3, which the power would carry
    for m2, half_saturation in ((TINY_R["m2"], 0.1), (0.5, 0.1), (0.5, 0.3)):
        p = ModelParams(**{**TINY_R, "m2": m2, "d": half_saturation})
        k = 1.0 - p.m1
        y, x2 = 1e-300 ** k, 0.01
        dy, d2 = make_y_rhs(p)(y, x2)
        with mp.workdps(40):
            my, r, d, m1 = mp.mpf(y), mp.mpf(p.r), mp.mpf(p.d), mp.mpf(p.m1)
            x1 = my ** (1 / (1 - m1))
            inter = (r / (r * x1 + d)) ** m1 * mp.mpf(x2) ** mp.mpf(p.m2)
            want_y = (1 - m1) * (p.a1 * my - p.b1 * x1 * my - p.w0 * inter)
            want_2 = -p.a2 * mp.mpf(x2) + p.w1 * (x1 / my) * inter
        assert dy == pytest.approx(float(want_y), rel=1e-14, abs=0.0)
        assert d2 == pytest.approx(float(want_2), rel=1e-14, abs=0.0)


def test_y_chart_needs_fractional_m1(osc_params):
    with pytest.raises(DomainError, match="needs m1 < 1"):
        make_y_rhs(with_params(osc_params, m1=1.0))


_FIELD_NAMES = [f.name for f in dataclasses.fields(ModelParams)]
_ANY_VALUE = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, 1.5, 5e-324, 0.5]),
    st.integers(-2, 3), st.booleans(), st.none(), st.just("0.5"))


def _replace_fails(p, name, value) -> bool:
    try:
        dataclasses.replace(p, **{name: value})
    except ParameterError:
        return True
    return False


# with_params validates only the changed fields; dataclasses.replace, which
# re-runs the full validation, is the reference.
@settings(max_examples=300, deadline=None, derandomize=True)
@given(table=st.sampled_from([OSC, BISTABLE, {**OSC, "r": 0.3}]),
       changes=st.dictionaries(st.sampled_from([*_FIELD_NAMES, "w3"]), _ANY_VALUE,
                               max_size=4))
@example(table=OSC, changes={"r": 0.3})
@example(table=OSC, changes={"r": 2.0, "a1": -1.0, "m1": 0.0})
@example(table=OSC, changes={"m1": 2.0, "w3": 1.0})
def test_with_params(table, changes):
    p = ModelParams(**table)
    try:
        want = dataclasses.replace(p, **changes)
    except (TypeError, ParameterError) as exc:  # TypeError: an unknown name
        with pytest.raises(type(exc)) as got:
            with_params(p, **changes)
        if isinstance(exc, ParameterError):
            assert got.value.errors == exc.errors
            bad = [k for k, v in changes.items() if _replace_fails(p, k, v)]
            assert len(got.value.errors) == len(bad)
    else:
        q = with_params(p, **changes)
        assert type(q) is ModelParams
        assert q == want and hash(q) == hash(want) and repr(q) == repr(want)
        with pytest.raises(dataclasses.FrozenInstanceError):
            q.r = 0.5
    assert p == ModelParams(**table)  # p itself is untouched


# m1 = 0.11: the old default grid held 0.1 * top twice, one ulp apart (g
# tied, check II failed), and g(1.9e-11) = 0.061 failed the old check I.
@pytest.mark.parametrize("table", [OSC, BISTABLE, {**OSC, "m1": 0.11}])
def test_assumptions_all_pass_for_fractional_m1(table):
    checks = verify_assumptions(ModelParams(**table))
    assert len(checks) == 7
    assert [c.status for c in checks] == ["pass"] * 7


def test_assumptions_classical_limit():
    # At m1 = 1 the axis divergences disappear and the 1/g integral
    # picks up a logarithm: V/VI become vacuous, VII genuinely fails.
    p = ModelParams(**{**OSC, "m1": 1.0, "m2": 1.0})
    by_name = {c.name.split(":")[0]: c for c in verify_assumptions(p)}
    assert by_name["V"].status == "not applicable"
    assert by_name["VI"].status == "not applicable"
    assert by_name["VII"].status == "fail"
    assert "diverg" in by_name["VII"].detail


def test_assumption_v_detail_reports_exponent(osc_params):
    checks = verify_assumptions(osc_params)
    v = next(c for c in checks if c.name.startswith("V:"))
    # Measured slope of g(x)/x should sit near m1 - 1 = -0.2.
    assert "-0.2000" in v.detail


def test_gauss_legendre_rule_matches_numpy():
    import numpy as np

    nodes, weights = np.polynomial.legendre.leggauss(2 * len(_GAUSS6))
    half = len(_GAUSS6)
    assert [t for t, _ in _GAUSS6] == pytest.approx(nodes[half:], rel=1e-15)
    assert [w for _, w in _GAUSS6] == pytest.approx(weights[half:], rel=1e-15)


# Check VII's total against an independent quadrature.  With x = u**q,
# q = 1/(1 - m1), the integral of 1/g = ((x + d)/x)**m1 over (0, beta] is
# that of q*(u**q + d)**m1 over (0, beta**(1 - m1)], whose integrand is
# smooth, so mpmath's tanh-sinh rule takes it to 30 digits.  The shells'
# Gauss-Legendre rule is good to 5e-10 on these sets; the old midpoint
# shells without the inner tail printed 9.26946 for OSC and 2.92586 for
# the third set.
@pytest.mark.parametrize("table, want", [
    (OSC, 9.2718564014),
    (BISTABLE, 1.40434210549),
    ({**OSC, "m1": 0.95, "d": 0.1}, 3.20643884943),
])
def test_integral_check_total_matches_mpmath(table, want):
    p = ModelParams(**table)
    beta = min(1.0, p.carrying_capacity)
    with mp.workdps(30):
        m1, d = mp.mpf(p.m1), mp.mpf(p.d)
        q = 1 / (1 - m1)
        oracle = float(mp.quad(lambda u: q * (u ** q + d) ** m1, [0, mp.mpf(beta) ** (1 - m1)]))
    assert oracle == pytest.approx(want, rel=1e-11)
    total, ratio = _inverse_g_integral(beta, p.d, p.m1)
    assert total == pytest.approx(oracle, rel=1e-8)
    assert ratio == pytest.approx(2.0 ** (p.m1 - 1.0), rel=1e-12)
    vii = verify_assumptions(p)[-1]
    assert vii.status == "pass"
    assert f"int_(0,1] 1/g ~ {oracle:.6g}, shell ratio" in vii.detail


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rates=st.lists(_log_uniform(1e-2, 1e2), min_size=6, max_size=6),
       # VII's shell ratio 2**(m1-1) cannot be told from 1 within a few ulps
       # of m1 = 1, so the fractional draws stop 1e-15 short of it.
       m1=st.one_of(st.just(1.0), _log_uniform(1e-2, 1.0 - 1e-15)),
       m2=_log_uniform(1e-2, 1.0), r=_log_uniform(1e-2, 1.0))
def test_audit_verdicts_match_theory(rates, m1, m2, r):
    a1, a2, b1, w0, w1, d = rates
    p = ModelParams(a1=a1, a2=a2, b1=b1, w0=w0, w1=w1, d=d, m1=m1, m2=m2, r=r)
    frac = m1 < 1.0
    want = (["pass"] * 4 + (["pass"] * 2 if frac else ["not applicable"] * 2)
            + ["pass" if frac else "fail"])
    assert [c.status for c in verify_assumptions(p)] == want
