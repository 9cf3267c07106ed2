from __future__ import annotations

import math
import sys

import pytest

from predprey import (
    CurveLabel,
    DomainError,
    IntegratorOptions,
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


def test_boundary_bisection_separates_fates(osc_params):
    sopts = SeparatrixOptions(bisect_rel_tol=1e-6,
                              integrator=IntegratorOptions(horizon=500.0))
    b = separatrix_boundary_x2(osc_params, 5.0, sopts)
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
    sopts = SeparatrixOptions(bisect_rel_tol=1e-4,
                              integrator=IntegratorOptions(horizon=horizon))
    separatrix_boundary_x2(osc_params, 1.389, sopts)
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
    launch = geo.integrate

    def counted_launch(*args, **kwargs):
        traj = launch(*args, **kwargs)
        steps.append(len(traj) - 1)
        return traj

    monkeypatch.setattr(geo, "integrate", counted_launch)
    separatrix_boundary_x2(osc_params, 1.389)  # a station of the default fan
    assert len(steps) == 31
    assert len(calls) <= 6.1 * sum(steps)
    # launches from the sections start just above where fates part: 681
    # accepted steps, against 1 113 on one section at 1e3 times the
    # threshold and 2 548 when the whole bisection stays at the probe
    assert sum(steps) <= 750


def _fan_sets(osc):
    enriched = with_params(osc, a1=2.0, b1=0.21)
    return {"osc": osc, "enriched": enriched, "enriched_r_0.3": with_params(enriched, r=0.3)}


@pytest.mark.parametrize("name", ["osc", "enriched", "enriched_r_0.3"])
def test_section_bisection_matches_the_probe_loop(osc_params, monkeypatch, name):
    # with no rungs on the ladder the same bisection runs at the probe to
    # the end, as it did before the sections
    p = _fan_sets(osc_params)[name]
    ws = trace_stable_separatrix_E0(p)
    geo = sys.modules["predprey.geometry"]
    monkeypatch.setattr(geo, "_SECTION_LADDER", ())
    plain = [separatrix_boundary_x2(p, x) for x in ws.x1s()]
    assert ws.x2s() == pytest.approx(plain, rel=1e-4)
    if name == "enriched":
        # right of x1 = 4 the BELOW launches turn at t = 0 and never reach
        # a section: those four probes keep the probe loop's bits
        assert ws.x2s()[8:] == plain[8:]


# The default fans' ordinates from the single section at 1e3 times the
# extinction threshold that the ladder replaced.
_ONE_SECTION_FANS = {
    "osc": [
        7.569604535060952, 7.811238010236188, 8.014743535997413,
        8.1625233344444, 8.230814225659781, 8.1869148666776, 7.985301059972136,
        7.561295620636901, 6.8211219119728375, 5.625946525430647,
        3.769616677148553, 1.0621673885492107,
    ],
    "enriched": [
        9.620581934680363, 9.946326129930622, 10.226934053861653,
        10.436960680283612, 10.537775739410645, 10.467309769269566,
        10.116065753783403, 9.245702356692746, 6.418044359610674,
        6.075075868923689, 4.632489917003925, 1.0615044368858906,
    ],
    "enriched_r_0.3": [
        26.496220516279138, 27.722612774640805, 28.94806514755344,
        30.152499964479656, 31.3082019522568, 32.37781795153205,
        33.31131514790172, 34.042779758093694, 34.48919551061564,
        34.55527698237735, 34.15482872308484, 33.25946824253814,
    ],
}


@pytest.mark.parametrize("name", ["osc", "enriched", "enriched_r_0.3"])
def test_one_rung_ladder_is_the_single_section(osc_params, monkeypatch, name):
    # the rung-by-rung moves reduce to the single section's one entry, bit
    # for bit
    geo = sys.modules["predprey.geometry"]
    monkeypatch.setattr(geo, "_SECTION_LADDER", (1e3,))
    ws = trace_stable_separatrix_E0(_fan_sets(osc_params)[name])
    assert [repr(y) for y in ws.x2s()] == [repr(y) for y in _ONE_SECTION_FANS[name]]


def test_every_traced_fan_probe_returns_its_trace(osc_params, monkeypatch):
    # traced back from the deepest rung, the boundary point lands inside the
    # bracket the probe launches certified on every bundled fan probe that
    # reaches a section (all but the four ENRICHED probes right of x1 = 4),
    # so none of them falls back to the probe loop
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
            if traced:
                returned.append(y == traced[0])
    assert len(returned) == 32
    assert all(returned)


@pytest.mark.parametrize("landing", [-1.0, math.nan])
def test_trace_outside_the_bracket_resumes_at_the_probe(osc_params, monkeypatch, landing):
    # a traced ordinate outside the bracket the probe launches certified, or
    # a backward run that never gets back (NaN), is never returned: the
    # bisection resumes at the probe from that bracket
    geo = sys.modules["predprey.geometry"]
    traces = []

    def missing(*args):
        traces.append(args)
        return landing

    monkeypatch.setattr(geo, "_trace_to_probe", missing)
    got = separatrix_boundary_x2(osc_params, 1.389)
    assert len(traces) == 1
    monkeypatch.setattr(geo, "_SECTION_LADDER", ())
    assert repr(got) == repr(separatrix_boundary_x2(osc_params, 1.389))


def test_separatrix_requires_fractional_m1(osc_params):
    with pytest.raises(DomainError):
        trace_stable_separatrix_E0(with_params(osc_params, m1=1.0, m2=1.0))


def test_separatrix_explicit_probe_list(osc_params):
    sopts = SeparatrixOptions(bisect_rel_tol=1e-6,
                              integrator=IntegratorOptions(horizon=500.0))
    ws = trace_stable_separatrix_E0(osc_params, probe_x1=[5.0, 4.0], opts=sopts)
    assert ws.label is CurveLabel.STABLE_SEPARATRIX_E0
    assert [s.x1 for s in ws.points] == [4.0, 5.0]  # sorted by abscissa
    assert ws.points[1].x2 == pytest.approx(
        separatrix_boundary_x2(osc_params, 5.0, sopts), rel=1e-6)


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


@pytest.mark.parametrize("bad", [
    dict(bisect_rel_tol=math.nan), dict(bisect_rel_tol=math.inf), dict(bisect_rel_tol=0.0),
])
def test_separatrix_options_reject_bad_tolerances(bad):
    # a NaN or infinite bisection tolerance returned the unbisected bracket
    with pytest.raises(DomainError):
        SeparatrixOptions(**bad)


def test_separatrix_needs_two_probes(osc_params):
    # one probe made a curve by inventing a second point at x1*(1 + 1e-9)
    with pytest.raises(DomainError, match="at least 2 probes"):
        SeparatrixOptions(probes=1)
    for probes in ([], [5.0]):
        with pytest.raises(DomainError, match="at least 2 probes"):
            trace_stable_separatrix_E0(osc_params, probe_x1=probes)
