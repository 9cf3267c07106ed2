from __future__ import annotations

import math
import random

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from predprey import (
    BifurcationEvent,
    BifurcationKind,
    DomainError,
    ModelParams,
    State,
    branch_sweep,
    detect_hopf,
    detect_saddle_node,
    detect_transcritical,
    first_lyapunov_coefficient,
    hopf_a1_fixed_point,
    hopf_critical_a1,
    interior_equilibria,
    transcritical_r,
    with_params,
)
from predprey import bifurcation
from predprey.bifurcation import SWEEPABLE, _lyapunov_of_field
from predprey.equilibria import _scan_gradient, jacobian, x2_of_x1
from predprey.model import _g_derivatives, _p_derivatives, make_rhs


def test_branch_sweep_validates_inputs(osc_params):
    with pytest.raises(DomainError):
        branch_sweep(osc_params, "m1", 0.5, 0.9)  # exponents are not sweepable
    with pytest.raises(DomainError):
        branch_sweep(osc_params, "a1", 0.5, 0.5)
    with pytest.raises(DomainError):
        branch_sweep(osc_params, "r", 0.5, 1.5)  # leaves (0, 1]


def test_branch_records_samples_and_params(osc_params):
    br = branch_sweep(osc_params, "a1", 0.4, 0.8, n=9)
    assert len(br.samples) == 9
    assert br.samples[0] == 0.4 and br.samples[-1] == 0.8
    assert br.params_at(0.5).a1 == 0.5
    assert br.params_at(0.5).b1 == osc_params.b1
    # 0.2 + (1.0 - 0.2) * 24 / 24 rounds to 1.0000000000000002, outside (0, 1].
    assert branch_sweep(osc_params, "r", 0.2, 1.0, n=25).samples[-1] == 1.0


def test_branch_chains_are_continuous(bistable_params):
    br = branch_sweep(bistable_params, "w1", 3.8, 5.2, n=41)
    cap = bistable_params.carrying_capacity
    assert br.chains
    for chain in br.chains:
        xs = [br.equilibria[i][j].point.x1 for i, j in chain]
        for a, b in zip(xs, xs[1:]):
            assert abs(b - a) < 0.1 * cap


def test_detect_hopf_agrees_with_fixed_point(osc_params):
    a1_star, eq_star = hopf_a1_fixed_point(osc_params)
    br = branch_sweep(osc_params, "a1", 0.22, 0.32, n=21)
    events = detect_hopf(br)
    assert len(events) == 1
    ev = events[0]
    assert ev.kind is BifurcationKind.HOPF
    assert ev.critical_value == pytest.approx(a1_star, rel=1e-6)
    assert ev.point.x1 == pytest.approx(eq_star.point.x1, rel=1e-6)
    # The eigenvalue crossing speed is the slope of tr/2 along the branch.
    def half_tr(a1):
        (eq,) = interior_equilibria(with_params(osc_params, a1=a1))
        return 0.5 * eq.trace

    want = _richardson(half_tr, ev.critical_value, 1e-3 * ev.critical_value)
    assert ev.diagnostics["d_re_eig_dparam"] == pytest.approx(want, rel=1e-7)
    assert ev.diagnostics["lyapunov_sign"] == -1.0


def test_detect_hopf_needs_a_crossing(osc_params):
    br = branch_sweep(osc_params, "a1", 0.35, 0.55, n=11)
    assert detect_hopf(br) == []


def test_detect_saddle_node_on_w1(bistable_params):
    br = branch_sweep(bistable_params, "w1", 3.8, 5.2, n=57)
    events = detect_saddle_node(br)
    assert len(events) == 1
    ev = events[0]
    assert ev.kind is BifurcationKind.SADDLE_NODE
    assert ev.critical_value == pytest.approx(4.55175, rel=1e-3)
    assert abs(ev.diagnostics["det"]) < 1e-10
    assert ev.diagnostics["tr"] < 0.0
    # The fold's two chains end together, at the last sample before it.
    ends = [ch[-1][0] for ch in br.chains if ch[-1][0] < len(br.samples) - 1]
    assert len(ends) == 2 and ends[0] == ends[1]
    assert br.samples[ends[0]] < ev.critical_value < br.samples[ends[0] + 1]


def test_saddle_node_silent_when_pair_survives(bistable_params):
    br = branch_sweep(bistable_params, "w1", 4.8, 5.4, n=13)
    assert detect_saddle_node(br) == []


def test_hopf_critical_a1_formula(osc_params):
    a1_star, eq_star = hopf_a1_fixed_point(osc_params)
    pv = with_params(osc_params, a1=a1_star)
    assert hopf_critical_a1(pv, eq_star.point) == pytest.approx(a1_star, rel=1e-10)


def test_transcritical_closed_form(osc_params):
    tc = transcritical_r(osc_params)
    assert tc.as_derived == pytest.approx(0.15234897857893626, rel=1e-12)
    assert tc.as_printed == pytest.approx(0.08045047448148425, rel=1e-12)
    assert tc.r1_star == tc.as_derived
    assert "typo" in tc.note


def test_transcritical_needs_m2_one(bistable_params):
    with pytest.raises(DomainError):
        transcritical_r(bistable_params)


def test_detect_transcritical_on_refuge_sweep(osc_params):
    br = branch_sweep(osc_params, "r", 0.12, 0.2, n=9)
    events = detect_transcritical(br)
    assert len(events) == 1
    ev = events[0]
    assert ev.kind is BifurcationKind.TRANSCRITICAL
    assert ev.critical_value == pytest.approx(0.15234897857893626, rel=1e-12)
    assert ev.point.x1 == pytest.approx(osc_params.carrying_capacity)
    assert ev.point.x2 == 0.0


def test_detect_transcritical_outside_range_or_wrong_param(osc_params):
    br = branch_sweep(osc_params, "r", 0.3, 0.6, n=5)
    assert detect_transcritical(br) == []
    br2 = branch_sweep(osc_params, "a1", 0.4, 0.8, n=5)
    assert detect_transcritical(br2) == []


def test_lyapunov_normal_form_scaling():
    # xdot = -w*y + s*x*(x^2+y^2), ydot = w*x + s*y*(x^2+y^2) has first
    # Lyapunov coefficient proportional to s; with the Frobenius-normalized
    # eigenbasis used here T = -I/sqrt(2), so the computed value is s/2.
    for w, s in [(1.3, 0.7), (0.8, -0.4)]:
        D = {(i, j): (0.0, 0.0) for i in range(4) for j in range(4 - i)}
        D.update({(1, 0): (0.0, w), (0, 1): (-w, 0.0), (3, 0): (6.0 * s, 0.0),
                  (2, 1): (0.0, 2.0 * s), (1, 2): (2.0 * s, 0.0), (0, 3): (0.0, 6.0 * s)})
        assert _lyapunov_of_field(D) == pytest.approx(s / 2.0, rel=1e-12)


def test_lyapunov_rejects_non_hopf_jacobian():
    # the saddle xdot = x, ydot = -y
    D = {(i, j): (0.0, 0.0) for i in range(4) for j in range(4 - i)}
    D.update({(1, 0): (1.0, 0.0), (0, 1): (0.0, -1.0)})
    with pytest.raises(DomainError):
        _lyapunov_of_field(D)


def test_first_lyapunov_requires_hopf_event(osc_params):
    fake = BifurcationEvent(BifurcationKind.SADDLE_NODE, "a1", 0.5,
                            State(1.0, 1.0), {})
    with pytest.raises(DomainError):
        first_lyapunov_coefficient(osc_params, fake)


# --------------------------------------------------------------------------
# The continuation tracker against the dense scan.

SWEEP_BASES = {
    "osc": dict(a1=0.6, a2=1.0, b1=0.063, w0=1.0, w1=2.0, d=2.0, m1=0.8, m2=1.0),
    "bistable": dict(a1=0.5, a2=0.7, b1=0.05, w0=0.2, w1=4.0, d=0.2, m1=0.5, m2=0.5),
}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(base=st.sampled_from(sorted(SWEEP_BASES)), refuge=st.booleans(),
       name=st.sampled_from(SWEEPABLE), down=st.floats(0.02, 0.6), up=st.floats(0.02, 0.6),
       n=st.integers(3, 25), scan_points=st.sampled_from([200, 300, 400]))
def test_branch_equilibria_match_the_dense_scan(base, refuge, name, down, up, n, scan_points,
                                                dense_scan):
    p = ModelParams(**SWEEP_BASES[base], r=0.3 if refuge else 1.0)
    v0 = getattr(p, name)
    lo, hi = v0 * math.exp(-down), v0 * math.exp(up)
    if name == "r":
        hi = min(hi, 1.0)
    br = branch_sweep(p, name, lo, hi, n=n)
    for v, eqs in zip(br.samples, br.equilibria):
        pv = br.params_at(v)
        # roots the scan cannot see (pairs sharing one scan cell) must still
        # be equilibria of the field
        extra = dense_scan([e.point.x1 for e in eqs], pv, scan_points)
        rhs = make_rhs(pv)
        for x in extra:
            x2 = x2_of_x1(x, pv)
            assert max(map(abs, rhs(x, x2))) <= 1e-8 * max(1.0, x + x2), (name, v, x)


def test_scan_points_is_accepted_and_ignored(bistable_params):
    br = branch_sweep(bistable_params, "w1", 4.0, 5.0, n=11)
    old = branch_sweep(bistable_params, "w1", 4.0, 5.0, n=11, scan_points=16)
    assert (br.samples, br.equilibria, br.chains) == (old.samples, old.equilibria, old.chains)
    assert detect_hopf(br, scan_points=16) == detect_hopf(br)


def test_sweep_onto_the_transcritical_edge_keeps_one_chain(transcritical_edge_params):
    # the first sample's root sits at x1/cap = 1 - 1e-9, on the edge of the
    # window; the closed form finds it and the curve is traced from there
    p = transcritical_edge_params
    br = branch_sweep(p, "r", p.r, 1.5 * p.r, n=11)
    assert br.chains == (tuple((i, 0) for i in range(11)),)
    assert br.equilibria[0][0].point.x1 == interior_equilibria(p)[0].point.x1


# --------------------------------------------------------------------------
# The detectors read the sweep: tr at the chains' samples, closed by the
# ends of their curve pieces, and the traced curves' turning points.

def test_hopf_between_the_last_sample_and_a_fold():
    # the chain's last sample and the fold that ends its piece have opposite tr
    p = ModelParams(a1=0.609156, a2=0.428509, b1=2.19943, w0=0.718915, w1=0.266305,
                    d=0.403237, m1=0.166232, m2=0.788086, r=1.0)
    (ev,) = detect_hopf(branch_sweep(p, "w0", 0.215674, 2.15674, n=41))
    assert ev.critical_value == pytest.approx(0.799474936, rel=1e-9, abs=0.0)


def test_hopf_between_the_last_sample_and_the_window_exit():
    # the chain's last sample and the last traced point before the curve
    # leaves the interior window have opposite tr
    p = ModelParams(a1=1.4211, a2=6.25295, b1=0.382898, w0=0.164201, w1=2.89662,
                    d=0.781408, m1=0.0743597, m2=1.0, r=1.0)
    (ev,) = detect_hopf(branch_sweep(p, "a2", 1.87589, 18.7589, n=41))
    assert ev.critical_value == pytest.approx(2.8212029465, rel=1e-9, abs=0.0)


def _curve_scan_events(br):
    """The reference the detectors replace: every tr and det sign change
    between consecutive traced points of br.curves, polished on (F, tr) or
    (F, det), kept and merged as the detectors keep and merge them.
    (kind, v, x1), folds first, each kind by v."""
    p, name = br.base_params, br.param_name
    events = []
    for kind, row in (("saddle_node", 2), ("hopf", 1)):
        system = bifurcation._residual(p, name, row)
        found = []
        for curve in br.curves:
            s = [_tr_det(x1, br.params_at(v))[row - 1] for v, x1 in curve]
            for (va, xa), (vb, xb), sa, sb in zip(curve, curve[1:], s, s[1:]):
                if sa * sb > 0.0 or sa == sb == 0.0:
                    continue
                w = sa / (sa - sb)
                z = bifurcation._newton(system, xa + w * (xb - xa), va + w * (vb - va))
                if z is None or not br.samples[0] <= z[1] <= br.samples[-1]:
                    continue
                x1, v = z
                (_, f_x1, f_v), (tr, tr_x1, tr_v), (det, _, _) = _scan_gradient(
                    x1, br.params_at(v), name, True)
                if kind == "saddle_node":
                    keep = tr < 0.0
                else:
                    keep = (det > 0.0 and abs(tr) < 1e-8
                            and abs(tr_v - tr_x1 * f_v / f_x1) >= 1e-8)
                if keep:
                    found.append((v, x1))
        kept = []
        for v, x1 in sorted(found):
            if not kept or abs(v - kept[-1][0]) > 1e-6 * max(1e-12, abs(kept[-1][0])):
                kept.append((v, x1))
        events += [(kind, v, x1) for v, x1 in kept]
    return events


@pytest.mark.parametrize("seed", [7, 11])
def test_detectors_match_the_curve_scan_over_the_domain(seed):
    # rates log-uniform over two decades, m1 in [0.05, 1], m2 and r each 1
    # or fractional; one parameter swept over [0.3*v, 3*v] (r over
    # [0.02, 1]).  A chain scan without its piece ends misses Hopf points
    # here that the curve scan finds.
    rng = random.Random(seed)
    counts = {"saddle_node": 0, "hopf": 0}
    for _ in range(100):
        rates = {k: 0.1 * 100.0 ** rng.random() for k in ("a1", "a2", "b1", "w0", "w1", "d")}
        p = ModelParams(**rates, m1=rng.uniform(0.05, 1.0),
                        m2=rng.choice([1.0, rng.uniform(0.05, 1.0)]),
                        r=rng.choice([1.0, rng.uniform(0.05, 1.0)]))
        name = rng.choice(SWEEPABLE)
        v = getattr(p, name)
        lo, hi = (0.02, 1.0) if name == "r" else (0.3 * v, 3.0 * v)
        br = branch_sweep(p, name, lo, hi, n=rng.choice([41, 101]))
        got = [(e.kind.value, e.critical_value, e.point.x1)
               for e in detect_saddle_node(br) + detect_hopf(br)]
        want = _curve_scan_events(br)
        assert [e[0] for e in got] == [e[0] for e in want], (p, name)
        for (kind, v_got, x_got), (_, v_want, x_want) in zip(got, want):
            assert v_got == pytest.approx(v_want, rel=1e-10, abs=0.0), (p, name, kind)
            assert x_got == pytest.approx(x_want, rel=1e-10, abs=0.0), (p, name, kind)
            counts[kind] += 1
    assert min(counts.values()) > 0, counts


@pytest.mark.parametrize("name, value", [
    ("r", 1.5), ("r", 0.0), ("a1", -0.1), ("w0", math.nan), ("b1", math.inf)])
def test_newton_system_rejects_an_out_of_domain_swept_value(name, value, osc_params):
    # the swept value is substituted unbuilt; its range is still checked
    (eq,) = interior_equilibria(osc_params)
    v = getattr(osc_params, name)
    for second, grad in ((bifurcation._TR, None), (bifurcation._DET, None),
                         (lambda x1, v_: v_ - v, (0.0, 1.0))):
        system = bifurcation._residual(osc_params, name, second, grad)
        assert system(eq.point.x1, v) is not None
        assert system(eq.point.x1, value) is None


# --------------------------------------------------------------------------
# The Newton's closed-form gradient against central differences.

def _central_jac(resid, r0, x1, v):
    """The Newton Jacobian before the closed-form gradient: columns
    d(resid)/dx1 and d(resid)/dv by central differences of both rows
    (one-sided where a side leaves the domain), or None; resid(x1, v) is
    the residual or None."""
    cols = []
    for dx, dv in ((1e-6 * abs(x1), 0.0), (0.0, 1e-6 * max(1e-3, abs(v)))):
        up, dn, span = resid(x1 + dx, v + dv), resid(x1 - dx, v - dv), 2.0
        if up is None:
            up, span = r0, 1.0
        if dn is None:
            dn, span = r0, span - 1.0
        if span == 0.0 or up is None or dn is None:
            return None
        h = span * (dx + dv)
        cols.append(((up[0] - dn[0]) / h, (up[1] - dn[1]) / h))
    return cols


def _sweep_summary(p, name, lo, hi, n):
    br = branch_sweep(p, name, lo, hi, n=n)
    events = detect_saddle_node(br) + detect_hopf(br) + detect_transcritical(br)
    return br, events


SAME_SWEEPS = {
    "osc_r_hopf": ("osc", {}, "r", 0.35, 0.55, 200),
    "osc_r_transcritical": ("osc", {}, "r", 0.12, 0.2, 41),
    "osc_a1": ("osc", {}, "a1", 0.2, 0.4, 200),
    "bistable_w1": ("bistable", {}, "w1", 3.5, 5.5, 101),
    "bistable_a2": ("bistable", {}, "a2", 0.5, 0.8, 101),
    "bistable_w1_refuge": ("bistable", {"r": 0.3}, "w1", 3.5, 5.5, 101),
    "bistable_a2_refuge": ("bistable", {"r": 0.3}, "a2", 0.5, 0.8, 101),
}


@pytest.mark.parametrize("case", sorted(SAME_SWEEPS))
def test_exact_gradient_gives_the_central_difference_sweep(case, monkeypatch):
    base, changes, name, lo, hi, n = SAME_SWEEPS[case]
    p = ModelParams(**SWEEP_BASES[base], **changes)
    br, events = _sweep_summary(p, name, lo, hi, n)

    exact = bifurcation._residual

    def central(p_, name_, second, grad=None):
        system = exact(p_, name_, second, grad)

        def resid(x1, v):
            at = system(x1, v)
            return None if at is None else at[0]

        def central_system(x1, v):
            r0 = resid(x1, v)
            if r0 is None:
                return None
            cols = _central_jac(resid, r0, x1, v)
            # a None Jacobian stops the Newton as a singular one does
            return r0, cols or ((0.0, 0.0), (0.0, 0.0))

        return central_system

    monkeypatch.setattr(bifurcation, "_residual", central)
    ref, ref_events = _sweep_summary(p, name, lo, hi, n)

    assert br.samples == ref.samples
    assert br.chains == ref.chains
    assert [len(eqs) for eqs in br.equilibria] == [len(eqs) for eqs in ref.equilibria]
    for eqs, ref_eqs in zip(br.equilibria, ref.equilibria):
        for e, r in zip(eqs, ref_eqs):
            assert e.point.x1 == pytest.approx(r.point.x1, rel=1e-10, abs=0.0)
            assert e.classification is r.classification
    assert [e.kind for e in events] == [e.kind for e in ref_events]
    assert events, "every case has an event to compare"
    for e, r in zip(events, ref_events):
        assert e.critical_value == pytest.approx(r.critical_value, rel=1e-10, abs=0.0)
        assert e.point.x1 == pytest.approx(r.point.x1, rel=1e-10, abs=0.0)
        assert e.diagnostics.get("lyapunov_sign") == r.diagnostics.get("lyapunov_sign")


# Points evaluated on the Newton path (continuation, resampling, polishes,
# tangents and the detectors; not interior_equilibria's own evaluations),
# each one _scan_gradient call that gives F and its exact gradient: 1 003
# and 703.  Central differences took 5 060 and 3 515 F evaluations.  The
# bound is 1.25 times the measured count; a return to difference quotients,
# or to a second evaluation per point, would cross it.
NEWTON_POINTS = {"osc_r_hopf": 1003, "bistable_w1": 703}


@pytest.mark.parametrize("case", sorted(NEWTON_POINTS))
def test_newton_path_scan_function_calls(case, monkeypatch):
    calls = []
    gradient = bifurcation._scan_gradient

    def counted(x1, *args):
        calls.append(x1)
        return gradient(x1, *args)

    monkeypatch.setattr(bifurcation, "_scan_gradient", counted)
    monkeypatch.setattr(bifurcation, "interior_scan_function", None)  # no F off the table
    base, changes, name, lo, hi, n = SAME_SWEEPS[case]
    _sweep_summary(ModelParams(**SWEEP_BASES[base], **changes), name, lo, hi, n)
    assert 0 < len(calls) <= 1.25 * NEWTON_POINTS[case]


# --------------------------------------------------------------------------
# The field's exact derivative table against independent oracles: mpmath's
# high-precision differentiation and Richardson differences.

# The documented domain: rates spanning four decades, exponents and refuge
# in (0, 1], with the exponents' value 1 drawn on its own.
RATE = st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e)
UNIT = st.floats(1e-2, 1.0)
EXPONENT = st.one_of(st.just(1.0), UNIT)
DOMAIN = st.builds(ModelParams, a1=RATE, a2=RATE, b1=RATE, w0=RATE, w1=RATE, d=RATE,
                   m1=EXPONENT, m2=EXPONENT, r=UNIT)


def _richardson(f, x, h):
    """df/dx at x: central differences at h and h/2, extrapolated to O(h**4)."""
    d1 = (f(x + h) - f(x - h)) / (2.0 * h)
    d2 = (f(x + 0.5 * h) - f(x - 0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


def _moved(p, name, v):
    """p with one field set to v, unvalidated: a difference step in r may cross 1."""
    q = object.__new__(ModelParams)
    q.__dict__.update(vars(p), **{name: v})
    return q


# r*x1 is subnormal for x1 below 2**52 here; t = r*x1/(r*x1 + d) underflows
# to 0 at x1 = 0.4.  With m2 = 5e-324, 30 digits cannot tell x2**m2 from 1,
# so mpmath's P' would read 0: the example takes the m2 = 0.5 variant.
TINY_R_M2_HALF = ModelParams(a1=0.1, a2=0.1, b1=0.1, w0=0.1, w1=0.1, d=0.1, m1=1e-10,
                             m2=0.5, r=5e-324)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(p=DOMAIN, e=st.floats(-9.0, math.log10(0.999)))
@example(p=TINY_R_M2_HALF, e=math.log10(0.4))
def test_g_and_p_derivatives_match_mpmath(p, e):
    # x1 down to 1e-9 of a1/b1, where r*x1 << d: at m1 = 1 the log-derivative
    # recurrence G''' = G*(L'**3 + 3*L'*L'' + L''') cancels there and fails this
    x1 = 10.0 ** e * p.carrying_capacity
    x2 = x2_of_x1(x1, p)
    with mpmath.workdps(30):
        r, d, m1, m2 = (mpmath.mpf(v) for v in (p.r, p.d, p.m1, p.m2))
        want_g = [mpmath.diff(lambda x: (r * x / (r * x + d)) ** m1, x1, k) for k in range(4)]
        want_p = [mpmath.diff(lambda x: x ** m2, x2, k) for k in range(4)]
    for got, want in ((_g_derivatives(x1, p), want_g), (_p_derivatives(x2, p.m2), want_p)):
        for k in range(4):
            assert got[k] == pytest.approx(float(want[k]), rel=1e-13, abs=0.0), (k, got, want)


# Absolute floor of the tr/det row check, as a fraction of the row's natural
# size (tr's terms, squared for det, over the coordinate): it admits the
# difference quotients' rounding noise where a derivative cancels or vanishes
# (tr_w0 and tr_w1 at m2 = 1), and nothing a wrong sign or factor would give.
FLOOR = 1e-10


def _tr_det(x1, p):
    """tr J and det J at the branch point over x1, from jacobian."""
    (j11, j12), (j21, j22) = jacobian(State(x1, x2_of_x1(x1, p)), p)
    return j11 + j22, j11 * j22 - j12 * j21


def _check_tr_det_slopes(p, x1):
    """_scan_gradient's tr and det rows against Richardson differences of
    _tr_det, in x1 along the branch and in every sweepable v, to 1e-7
    relative (above FLOOR); steps as in tests/test_equilibria.py's
    _check_scan_gradient."""
    cap = p.carrying_capacity
    room = (cap - x1) / cap
    x2 = x2_of_x1(x1, p)
    G, P = _g_derivatives(x1, p), _p_derivatives(x2, p.m2)
    terms = p.a1 + 2.0 * p.b1 * x1 + p.a2 + (p.w0 + p.w1) * (G[1] * P[0] + G[0] * P[1])
    h_x1 = 1e-3 * min(x1, cap - x1)
    want_x1 = [_richardson(lambda x: _tr_det(x, p)[k], x1, h_x1) for k in (0, 1)]
    for name in SWEEPABLE:
        _, tr, det = _scan_gradient(x1, p, name, True)
        got_x1, got_v = (tr[1], det[1]), (tr[2], det[2])
        v = getattr(p, name)
        h = 1e-3 * v * (room if name in ("a1", "b1") else 1.0)
        want_v = [_richardson(lambda u: _tr_det(x1, _moved(p, name, u))[k], v, h) for k in (0, 1)]
        for k, size in ((0, terms), (1, terms * terms)):
            assert abs(got_x1[k] - want_x1[k]) <= 1e-7 * abs(want_x1[k]) + FLOOR * size / x1, (
                name, k, got_x1, want_x1)
            assert abs(got_v[k] - want_v[k]) <= 1e-7 * abs(want_v[k]) + FLOOR * size / v, (
                name, k, got_v, want_v)


@pytest.mark.parametrize("base, changes", [
    ("osc", {}), ("osc", {"r": 0.3}), ("bistable", {}), ("bistable", {"r": 0.3}),
    ("osc", {"m1": 1.0, "m2": 1.0})])
def test_tr_det_rows_match_richardson_differences(base, changes):
    p = ModelParams(**{**SWEEP_BASES[base], **changes})
    for frac in (1e-8, 1e-3, 0.1, 0.37, 0.5, 0.8, 0.999):
        _check_tr_det_slopes(p, frac * p.carrying_capacity)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(p=DOMAIN, low=st.booleans(), e=st.floats(-9.0, math.log10(0.5)))
def test_tr_det_rows_over_the_domain(p, low, e):
    # x1 log-spread toward both ends of the Newton window; within 1e-4 of
    # a1/b1 f = a1 - b1*x1 loses too many digits for a difference quotient
    frac = 10.0 ** e if low else 1.0 - max(10.0 ** e, 1e-4)
    _check_tr_det_slopes(p, frac * p.carrying_capacity)


def _lyapunov_mpmath(p, x1, x2):
    """_lyapunov_of_field's 16a expression at 40 digits, in the same basis
    T, with every partial taken by mpmath.diff of the transformed field."""
    with mpmath.workdps(40):
        a1, a2, b1, w0, w1, d, m1, m2, r = (
            mpmath.mpf(getattr(p, k)) for k in ("a1", "a2", "b1", "w0", "w1", "d", "m1", "m2", "r"))
        x1, x2 = mpmath.mpf(x1), mpmath.mpf(x2)

        def field(u, v):
            inter = (r * u / (r * u + d)) ** m1 * v ** m2
            return a1 * u - b1 * u * u - w0 * inter, -a2 * v + w1 * inter

        (j11, j12), (j21, j22) = (
            [mpmath.diff(lambda u, v: field(u, v)[k], (x1, x2), n) for n in ((1, 0), (0, 1))]
            for k in (0, 1))
        tr = j11 + j22
        omega = mpmath.sqrt(j11 * j22 - j12 * j21 - tr * tr / 4)
        a, b = j11 - tr / 2, j12
        nrm = mpmath.sqrt(a * a + b * b + omega * omega)
        t11, t21, t22 = b / nrm, -a / nrm, -omega / nrm

        def phi(k, i, j):
            def transformed(xi, eta):
                d1, d2 = field(x1 + t11 * xi, x2 + t21 * xi + t22 * eta)
                return d1 / t11 if k == 0 else (t11 * d2 - t21 * d1) / (t11 * t22)
            return mpmath.diff(transformed, (0, 0), (i, j))

        a16 = (phi(0, 3, 0) + phi(0, 1, 2) + phi(1, 2, 1) + phi(1, 0, 3)
               + (phi(0, 1, 1) * (phi(0, 2, 0) + phi(0, 0, 2))
                  - phi(1, 1, 1) * (phi(1, 2, 0) + phi(1, 0, 2))
                  - phi(0, 2, 0) * phi(1, 2, 0) + phi(0, 0, 2) * phi(1, 0, 2)) / omega)
        return float(a16 / 16)


# With m2 = 1, J22 vanishes at the equilibrium, so T is diagonal at these
# Hopf points; the fourth, with m2 = 0.9, mixes the coordinates.
@pytest.mark.parametrize("name, lo, hi, changes", [
    ("r", 0.35, 0.55, {}), ("a1", 0.22, 0.32, {}), ("a1", 0.3, 0.45, {"m1": 1.0}),
    ("a1", 0.35, 0.55, {"m2": 0.9})])
def test_lyapunov_matches_mpmath_at_the_hopf_points(name, lo, hi, changes, osc_params):
    p = with_params(osc_params, **changes)
    (ev,) = detect_hopf(branch_sweep(p, name, lo, hi, n=41))
    want = _lyapunov_mpmath(with_params(p, **{name: ev.critical_value}), *ev.point)
    assert ev.diagnostics["lyapunov"] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_lyapunov_is_the_same_on_every_route_to_the_hopf_point(osc_params):
    # the stencil it replaces gave -1.24931e-3, -1.24878e-3 and -1.24806e-3
    got = [detect_hopf(branch_sweep(osc_params, "r", lo, hi, n=n))[0].diagnostics["lyapunov"]
           for lo, hi, n in ((0.35, 0.55, 200), (0.2, 1.0, 25), (0.35, 0.55, 41))]
    assert max(got) - min(got) <= 1e-12 * abs(got[0])


def test_rosenzweig_macarthur_hopf_in_closed_form(osc_params):
    # m1 = m2 = 1, r = 1: x1* = d*a2/(w1 - a2) does not move with a1, the
    # trace vanishes at a1* = b1*(d + 2*x1*), and along the branch
    # d tr/d a1 = 1 - d/(x1* + d) = a2/w1
    p = with_params(osc_params, m1=1.0)
    x1 = p.d * p.a2 / (p.w1 - p.a2)
    (ev,) = detect_hopf(branch_sweep(p, "a1", 0.3, 0.45, n=16))
    assert ev.critical_value == pytest.approx(p.b1 * (p.d + 2.0 * x1), rel=1e-12)
    assert ev.diagnostics["d_re_eig_dparam"] == pytest.approx(p.a2 / (2.0 * p.w1), rel=1e-12)
