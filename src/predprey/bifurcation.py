"""Bifurcation sweeps and detectors: saddle-node, Hopf, transcritical.

The interior equilibria along a parameter v form the curve F(x1; v) = 0, F
being the interior scan function.  A sweep traces it by pseudo-arclength
continuation, seeded and cross-checked by exact root isolation at every
_CHECK_EVERY-th sample and both ends (interior_equilibria; a root that no
traced curve passes through seeds a new curve), and resamples it onto the
uniform sample grid, split at turning points into chains; each chain
keeps the two ends of its curve piece (a polished turning point, or the
last traced point on the range edge or in the interior window).  The
detectors read what the sweep computed: folds start from the traced
curves' turning points, and Hopf points from sign changes of the trace
that classify stored at each chain sample, the chain closed by its piece
ends.  Every point solve is the one damped 2-D Newton iteration on
(F, s) = (0, 0), with s = det J for folds (reported when tr < 0: a stable
node meets a saddle), tr J for Hopf points (kept with det > 0; the first
Lyapunov coefficient fixes sub/supercritical), v - v_i for the
equilibrium at a fixed v_i, or the arclength constraint in the
continuation corrector.  The swept value enters each point through
model._with_field, which checks only that field.  The Newton evaluates
each point once, and its Jacobian is exact in every row: F's, tr's and
det's come with their values from one _scan_gradient, the chain rule on
the field's derivative table in model (F = -f1 along the branch), and the
linear residuals' rows are constant.  The same table gives the
transversality speed and, through _field_partials, the first Lyapunov
coefficient.

On refuge sweeps the interior equilibrium collides with the predator-free
state (transcritical) when x1*(r) = a1/b1, at

    r1* = (b1*d/a1) * a2**(1/m1) / (w1**(1/m1) - a2**(1/m1)).

A variant of this formula circulates with a1**(1/m1) in the numerator
(0.08046 on the base set, vs 0.152351 for the form above, which matches the
quoted 0.15239); both are computed, the a2 form is operative, and the
discrepancy is flagged in the result.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

# interior_scan_function and make_rhs are unused here; they stay because the
# bench trace shim patches them
from .equilibria import (  # noqa: F401
    Equilibrium,
    EquilibriumKind,
    _scan_gradient,
    classify,
    interior_equilibria,
    interior_scan_function,
    jacobian,
    x2_of_x1,
)
from .model import (  # noqa: F401
    DomainError,
    ModelParams,
    ParameterError,
    State,
    _field_partials,
    _with_field,
    make_rhs,
    with_params,
)

__all__ = [
    "SWEEPABLE",
    "Branch",
    "BifurcationKind",
    "BifurcationEvent",
    "TranscriticalResult",
    "branch_sweep",
    "detect_saddle_node",
    "detect_hopf",
    "detect_transcritical",
    "hopf_critical_a1",
    "hopf_a1_fixed_point",
    "transcritical_r",
    "first_lyapunov_coefficient",
]

SWEEPABLE = ("a1", "a2", "b1", "w0", "w1", "r")
SWEEP_SAMPLES = 200  # branch_sweep's default sample count

# Exact root-count cross-check at every _CHECK_EVERY-th sample (and both ends).
_CHECK_EVERY = 10
# Continuation steps in scaled arclength (x1 per carrying capacity, v per
# range width): at most one sample spacing and _DS_MAX; a traced curve ends
# where the step would have to drop below _DS_MIN.
_DS_MAX = 0.05
_DS_MIN = 1e-9


class BifurcationKind(enum.Enum):
    SADDLE_NODE = "saddle_node"
    HOPF = "hopf"
    TRANSCRITICAL = "transcritical"


@dataclass(frozen=True)
class BifurcationEvent:
    kind: BifurcationKind
    param_name: str
    critical_value: float
    point: State
    diagnostics: dict[str, float]


@dataclass(frozen=True)
class Branch:
    param_name: str
    base_params: ModelParams
    samples: tuple[float, ...]
    equilibria: tuple[tuple[Equilibrium, ...], ...]   # per sample
    chains: tuple[tuple[tuple[int, int], ...], ...]   # chain -> (sample, eq index)
    curves: tuple[tuple[tuple[float, float], ...], ...]   # traced (v, x1), in order
    # chain -> the (v, x1) ends of its curve piece, in v order: a polished
    # turning point, or the last traced point on the range edge or in the window
    ends: tuple[tuple[tuple[float, float], tuple[float, float]], ...]

    def params_at(self, value: float) -> ModelParams:
        return with_params(self.base_params, **{self.param_name: value})


# --------------------------------------------------------------------------
# The 2-D Newton iteration and the continuation built on it.

_TR, _DET = 1, 2  # the rows of tr J and det J in _scan_gradient's table


def _residual(p: ModelParams, name: str, second, grad: tuple[float, float] | None = None):
    """The Newton system on (F(x1; v), s): system(x1, v) is the residual
    (F, s) with its exact Jacobian columns ((F_x1, s_x1), (F_v, s_v)), or
    None outside the parameter domain or the interior scan window.  s is
    second(x1, v), linear with the constant gradient grad, or, with grad
    None, second is _TR or _DET and s is tr J or det J.  Each point builds
    its parameters once and takes every entry from one _scan_gradient."""

    def system(x1: float, v: float):
        pv = _with_field(p, name, v)
        if pv is None:
            return None
        cap = pv.a1 / pv.b1
        if not 1e-9 * cap < x1 < (1.0 - 1e-9) * cap:
            return None
        if grad is not None:
            (F, F_x1, F_v), = _scan_gradient(x1, pv, name)
            return (F, second(x1, v)), ((F_x1, grad[0]), (F_v, grad[1]))
        rows = _scan_gradient(x1, pv, name, True)
        (F, F_x1, F_v), (s, s_x1, s_v) = rows[0], rows[second]
        return (F, s), ((F_x1, s_x1), (F_v, s_v))

    return system


def _newton(system, x1: float, v: float, tol: float = 1e-12,
            max_iter: int = 60) -> tuple[float, float] | None:
    """Damped Newton for the residual of system(x1, v) (from _residual) =
    (0, 0), evaluating each point once; converged once the full step is
    below tol relative in both coordinates."""
    at = system(x1, v)
    if at is None:
        return None
    for _ in range(max_iter):
        r, ((a, c), (b, dd)) = at
        det = a * dd - b * c
        if det == 0.0 or not math.isfinite(det):
            return None
        dx = -(dd * r[0] - b * r[1]) / det
        dv = -(-c * r[0] + a * r[1]) / det
        if abs(dx) <= tol * abs(x1) and abs(dv) <= tol * abs(v):
            return x1, v
        step = 1.0
        norm0 = abs(r[0]) + abs(r[1])
        for _ in range(12):
            cand = system(x1 + step * dx, v + step * dv)
            if cand is not None and abs(cand[0][0]) + abs(cand[0][1]) < norm0:
                x1, v, at = x1 + step * dx, v + step * dv, cand
                break
            step *= 0.5
        else:
            return None
    return None


def _cap(p: ModelParams, name: str, v: float) -> float:
    """The carrying capacity a1/b1 with the parameter set to v."""
    return (v if name == "a1" else p.a1) / (v if name == "b1" else p.b1)


def _at(p: ModelParams, name: str, a: tuple[float, float], b: tuple[float, float],
        v: float) -> float | None:
    """x1 of the interior equilibrium at the parameter value v, corrected from
    the chord between the (v, x1) points a and b, interpolated as a fraction
    of the carrying capacity (which moves with a1 and b1)."""
    (va, xa), (vb, xb) = a, b
    fa, fb = xa / _cap(p, name, va), xb / _cap(p, name, vb)
    w = 0.0 if vb == va else (v - va) / (vb - va)
    z = _newton(_residual(p, name, lambda x1_, v_: v_ - v, (0.0, 1.0)),
                _cap(p, name, v) * (fa + w * (fb - fa)), v)
    return None if z is None else z[0]


def _trace(p: ModelParams, name: str, x0: float, v0: float,
           samples: tuple[float, ...]) -> list[tuple[float, float]]:
    """The equilibrium curve through (v0, x0), traced both ways until it
    leaves [samples[0], samples[-1]] or the scan window, or closes on itself.
    Turning points are polished onto the fold."""
    lo, hi = samples[0], samples[-1]
    xs = max(_cap(p, name, lo), _cap(p, name, hi))
    vs = hi - lo
    ds_max = min(1.0 / (len(samples) - 1), _DS_MAX)
    gradient = _residual(p, name, lambda x1, v: 0.0, (0.0, 0.0))

    def tangent(x: float, v: float, tx: float = 0.0, tv: float = 1.0) -> tuple[float, float]:
        """Unit tangent of F = 0 in scaled coordinates, on the side of (tx, tv)."""
        at = gradient(x, v)
        if at is None:
            return tx, tv
        (f_x1, _), (f_v, _) = at[1]
        gx, gv = -f_v * vs, f_x1 * xs
        norm = math.copysign(math.hypot(gx, gv), gx * tx + gv * tv)
        return (gx / norm, gv / norm) if norm else (tx, tv)

    def march(tx: float, tv: float) -> list[tuple[float, float]]:
        pts: list[tuple[float, float]] = []
        x, v, ds, fresh = x0, v0, ds_max, True
        while ds >= _DS_MIN and len(pts) < 100 * len(samples):  # a safety cap on steps
            xp, vp = x + ds * tx * xs, v + ds * tv * vs
            arc = _residual(p, name, lambda x_, v_, tx=tx, tv=tv, xp=xp, vp=vp:
                            tx * (x_ - xp) / xs + tv * (v_ - vp) / vs, (tx / xs, tv / vs))
            z = _newton(arc, xp, vp)
            if z is None and not lo <= vp <= hi:
                z = xp, vp  # the corrector may fail past the edge of the domain
            elif z is None or math.hypot((z[0] - xp) / xs, (z[1] - vp) / vs) > 0.5 * ds:
                ds *= 0.5
                if not fresh:  # the last secant may point off the curve
                    tx, tv, fresh = *tangent(x, v, tx, tv), True
                continue
            if not lo <= z[1] <= hi:  # end the curve exactly on the range edge
                vb = hi if z[1] > hi else lo
                if v == vb:
                    return pts
                xb = _at(p, name, (v, x), z[::-1], vb)
                if xb is None:
                    ds *= 0.5
                    continue
                return pts + [(vb, xb)]
            if (v - v0) * (z[1] - v0) < 0.0:  # back through the seed: a closed curve
                xc = _at(p, name, (v, x), z[::-1], v0)
                if xc is not None and abs(xc - x0) <= 1e-7 * xs:
                    return pts + [(v0, x0)]
            step = math.hypot((z[0] - x) / xs, (z[1] - v) / vs)
            tx, tv, fresh = (z[0] - x) / xs / step, (z[1] - v) / vs / step, False
            x, v = z
            pts.append((v, x))
            ds = min(2.0 * ds, ds_max)
        return pts

    tx, tv = tangent(x0, v0)
    ahead = march(tx, tv)
    behind = [] if ahead[-1:] == [(v0, x0)] else march(-tx, -tv)
    curve = behind[::-1] + [(v0, x0)] + ahead
    for k in _turns(curve):
        z = _newton(_residual(p, name, _DET), curve[k][1], curve[k][0])
        (va, xa), (vk, _), (_, xb) = curve[k - 1], curve[k], curve[k + 1]
        if z is not None and min(xa, xb) < z[0] < max(xa, xb) and (z[1] - vk) * (vk - va) >= 0.0:
            curve[k] = (z[1], z[0])
    return curve


def _turns(curve) -> list[int]:
    """Indices of the traced points where v turns back."""
    return [k for k in range(1, len(curve) - 1)
            if (curve[k][0] - curve[k - 1][0]) * (curve[k + 1][0] - curve[k][0]) < 0.0]


def _resample(p: ModelParams, name: str, curve, samples):
    """Chains of (sample index, x1), each with the (v, x1) ends of its
    piece in v order: the curve split at its turning points, each monotone
    piece corrected onto the samples it spans."""
    cuts = [0, *_turns(curve), len(curve) - 1]
    chains = []
    for a, b in zip(cuts, cuts[1:]):
        piece = sorted(curve[a:b + 1])
        chain, k = [], 0
        for i, v_i in enumerate(samples):
            if not piece[0][0] <= v_i <= piece[-1][0]:
                continue
            while k + 2 < len(piece) and piece[k + 1][0] < v_i:
                k += 1
            x1 = _at(p, name, piece[k], piece[min(k + 1, len(piece) - 1)], v_i)
            if x1 is not None:
                chain.append((i, x1))
        if chain:
            chains.append((chain, (piece[0], piece[-1])))
    return chains


def check_sweep(param_name: str, lo: float, hi: float, n: int) -> None:
    """The checks branch_sweep makes of its arguments before it samples."""
    if param_name not in SWEEPABLE:
        raise DomainError(f"cannot sweep {param_name!r}; choose one of {SWEEPABLE}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(f"need finite lo < hi, got {lo!r}, {hi!r}")
    if n < 2:
        raise DomainError("need at least 2 samples")


def branch_sweep(
    p: ModelParams,
    param_name: str,
    lo: float,
    hi: float,
    n: int = SWEEP_SAMPLES,
    scan_points: int | None = None,
) -> Branch:
    """Trace the interior equilibria along one parameter and sample them.

    The curves are seeded and their root count cross-checked by
    interior_equilibria at both ends and every _CHECK_EVERY-th sample.
    n >= 50 recommended (the continuation step is at most one sample
    spacing, so n also sets how finely tr and det are watched).
    scan_points is accepted and ignored: no dense scan is left to size.
    """
    check_sweep(param_name, lo, hi, n)
    # the last sample is hi itself: the formula can round one ulp past it
    samples = tuple(lo + (hi - lo) * i / (n - 1) for i in range(n - 1)) + (hi,)
    pvs = []
    for v in samples:
        try:
            pvs.append(with_params(p, **{param_name: v}))
        except ParameterError as exc:
            raise DomainError(
                f"sweep leaves the valid parameter domain at {param_name}={v!r}: {exc}"
            ) from exc

    # roots[i]: x1 at sample i on the chains so far.  A checked root or a chain
    # point already there is not traced or kept twice (a curve that dips out
    # of the range between two steps may run over another curve's chains).
    curves: list[list[tuple[float, float]]] = []
    found: list[list[tuple[int, float]]] = []
    roots: list[list[float]] = [[] for _ in samples]

    def new(i: int, x: float) -> bool:
        return all(abs(y - x) > 1e-7 * pvs[i].carrying_capacity for y in roots[i])

    for i in sorted({0, n - 1, *range(_CHECK_EVERY, n - 1, _CHECK_EVERY)}):
        for eq in interior_equilibria(pvs[i]):
            if new(i, eq.point.x1):
                curves.append(_trace(p, param_name, eq.point.x1, samples[i], samples))
                for chain, ends in _resample(p, param_name, curves[-1], samples):
                    chain = [(j, x1) for j, x1 in chain if new(j, x1)]
                    for j, x1 in chain:
                        roots[j].append(x1)
                    if chain:
                        found.append((chain, ends))

    found.sort()  # chain ids by first sample, then by x1 there
    for xs in roots:
        xs.sort()
    return Branch(
        param_name, p, samples,
        tuple(tuple(classify(State(x1, x2_of_x1(x1, pv)), pv, EquilibriumKind.INTERIOR)
                    for x1 in xs) for xs, pv in zip(roots, pvs)),
        tuple(tuple((i, roots[i].index(x1)) for i, x1 in ch) for ch, _ in found),
        tuple(tuple(curve) for curve in curves),
        tuple(ends for _, ends in found))


# --------------------------------------------------------------------------
# Detectors: the sweep's turning points (folds) and tr sign changes along its
# chains (Hopf points), polished on (F, det) and (F, tr).

def detect_saddle_node(branch: Branch) -> list[BifurcationEvent]:
    """Folds along the sweep: the turning points of the traced curves,
    which the trace has already polished, confirmed on (F, det) = (0, 0)
    inside the swept range.  Only tr < 0 folds are reported (the colliding
    pair is a stable node and a saddle)."""
    p, name = branch.base_params, branch.param_name
    system = _residual(p, name, _DET)
    events: list[BifurcationEvent] = []
    for curve in branch.curves:
        for k in _turns(curve):
            z = _newton(system, curve[k][1], curve[k][0])
            if z is None or not branch.samples[0] <= z[1] <= branch.samples[-1]:
                continue
            x1s, vs = z
            pv = branch.params_at(vs)
            (_, _, f_v), (tr, _, _), (det, _, _) = _scan_gradient(x1s, pv, name, True)
            if tr < 0.0:
                events.append(BifurcationEvent(
                    BifurcationKind.SADDLE_NODE, name, vs,
                    State(x1s, x2_of_x1(x1s, pv)), {"tr": tr, "det": det, "dF_dparam": f_v}))
    return _dedupe(events)


def _dedupe(events: list[BifurcationEvent]) -> list[BifurcationEvent]:
    events = sorted(events, key=lambda e: e.critical_value)
    out: list[BifurcationEvent] = []
    for e in events:
        if out and abs(e.critical_value - out[-1].critical_value) <= 1e-6 * max(
                1e-12, abs(out[-1].critical_value)) and e.kind is out[-1].kind:
            continue
        out.append(e)
    return out


def _trace_crossings(branch: Branch) -> list[tuple[float, float]]:
    """(x1, v) where tr J changes sign along a chain, polished on
    (F, tr) = (0, 0) inside the swept range.  tr is the one classify stored
    at each sample; each chain is closed by its piece's ends, which lie
    beyond its first and last samples where the piece turns or leaves the
    interior window."""
    system = _residual(branch.base_params, branch.param_name, _TR)
    lo, hi = branch.samples[0], branch.samples[-1]
    out = []
    for chain, ((vh, xh), (vt, xt)) in zip(branch.chains, branch.ends):
        pts = [(branch.samples[i], branch.equilibria[i][j].point.x1,
                branch.equilibria[i][j].trace) for i, j in chain]
        if vh < pts[0][0] and (at := system(xh, vh)) is not None:
            pts.insert(0, (vh, xh, at[0][1]))
        if vt > pts[-1][0] and (at := system(xt, vt)) is not None:
            pts.append((vt, xt, at[0][1]))
        for (va, xa, sa), (vb, xb, sb) in zip(pts, pts[1:]):
            if sa * sb > 0.0 or sa == sb == 0.0:  # no sign change (zeros fall through)
                continue
            w = sa / (sa - sb)
            z = _newton(system, xa + w * (xb - xa), va + w * (vb - va))
            if z is not None and lo <= z[1] <= hi:
                out.append(z)
    return out


def detect_hopf(branch: Branch, scan_points: int | None = None) -> list[BifurcationEvent]:
    """Trace sign changes along the chains (the samples' stored tr, closed
    by each chain's piece ends), polished on (F, tr) and kept where det > 0
    and the trace crosses with nonzero speed, with the exact transversality
    d Re(lambda)/dv = (tr_v - tr_x1*F_v/F_x1)/2 along the branch and the
    first Lyapunov coefficient.  scan_points is accepted and ignored: the
    chains hold the equilibria."""
    p, name = branch.base_params, branch.param_name
    events: list[BifurcationEvent] = []
    for x1s, v_star in _trace_crossings(branch):
        pv = branch.params_at(v_star)
        (_, f_x1, f_v), (tr, tr_x1, tr_v), (det, _, _) = _scan_gradient(x1s, pv, name, True)
        if not (det > 0.0 and abs(tr) < 1e-8):
            continue
        slope = tr_v - tr_x1 * f_v / f_x1  # F_x1 = det/a2 along the branch, > 0 here
        if abs(slope) < 1e-8:
            continue
        point = State(x1s, x2_of_x1(x1s, pv))
        lyap = first_lyapunov_coefficient(
            p, BifurcationEvent(BifurcationKind.HOPF, name, v_star, point, {}))
        events.append(BifurcationEvent(
            BifurcationKind.HOPF, name, v_star, point,
            {
                "tr": tr,
                "det": det,
                "d_re_eig_dparam": 0.5 * slope,
                "lyapunov": lyap,
                "lyapunov_sign": math.copysign(1.0, lyap),
            }))
    return _dedupe(events)


def hopf_critical_a1(p: ModelParams, eq_point: State) -> float:
    """Trace-zero value of a1 with the equilibrium location held fixed,
    a1 - tr J:

        a1* = a2 + 2*b1*x1 + w0*G'*x2**m2 - m2*w1*G*x2**(m2-1)

    Only self-consistent once x1, x2 are re-solved at a1*; see
    hopf_a1_fixed_point for the closed loop.
    """
    if not (eq_point.x1 > 0.0 and eq_point.x2 > 0.0):
        raise DomainError(f"need an interior point, got {eq_point!r}")
    (j11, _), (_, j22) = jacobian(eq_point, p)
    return p.a1 - (j11 + j22)


def hopf_a1_fixed_point(p: ModelParams) -> tuple[float, Equilibrium]:
    """The Hopf point in a1: the (F, tr) Newton solve in (x1, a1), seeded by
    interior_equilibria at p.a1 (the root nearest the middle of
    (0, a1/b1)), to a step of 1e-12 relative within 200 steps.  At the
    solution a1 = hopf_critical_a1(params(a1), equilibrium(a1))."""
    eqs = interior_equilibria(p)
    if not eqs:
        raise DomainError(f"no interior equilibrium at a1 = {p.a1!r} to start from")
    seed = min(eqs, key=lambda e: abs(e.point.x1 - 0.5 * p.carrying_capacity))
    z = _newton(_residual(p, "a1", _TR), seed.point.x1, p.a1, 1e-12, 200)
    if z is None:
        raise DomainError(f"hopf_a1_fixed_point did not converge from a1 = {p.a1!r}")
    x1, a1 = z
    pv = with_params(p, a1=a1)
    return a1, classify(State(x1, x2_of_x1(x1, pv)), pv, EquilibriumKind.INTERIOR)


# --------------------------------------------------------------------------
# Transcritical (refuge sweeps).

@dataclass(frozen=True)
class TranscriticalResult:
    as_derived: float    # a2**(1/m1) numerator -- operative
    as_printed: float    # a1**(1/m1) numerator -- circulated variant
    note: str

    @property
    def r1_star(self) -> float:
        return self.as_derived


def transcritical_r(p: ModelParams) -> TranscriticalResult:
    """Refuge fraction where the interior equilibrium collides with E1.

    x1*(r) = (d/r)*a2**(1/m1)/(w1**(1/m1) - a2**(1/m1)) meets a1/b1 at

        r1* = (b1*d/a1) * a2**(1/m1) / (w1**(1/m1) - a2**(1/m1)).

    Requires m2 = 1 and w1 > a2.  Below r1* the predator cannot invade.
    """
    if p.m2 != 1.0:
        raise DomainError("transcritical closed form requires m2 = 1")
    if p.w1 <= p.a2:
        raise DomainError("needs w1 > a2 for an interior branch to exist at all")
    em = 1.0 / p.m1
    denom = p.w1 ** em - p.a2 ** em
    scale = p.b1 * p.d / p.a1
    derived = scale * p.a2 ** em / denom
    printed = scale * p.a1 ** em / denom
    return TranscriticalResult(
        derived, printed,
        "operative value uses a2**(1/m1) in the numerator; the circulated "
        "a1**(1/m1) variant does not solve x1*(r) = a1/b1 and looks like a typo",
    )


def detect_transcritical(branch: Branch) -> list[BifurcationEvent]:
    """On a refuge sweep, report the interior/E1 collision if it falls inside
    the swept range.  Closed form, m2 = 1 only; sweeps with m2 < 1 return
    nothing here (no closed form; the branch itself shows the count drop)."""
    if branch.param_name != "r":
        return []
    p = branch.base_params
    if p.m2 != 1.0 or p.w1 <= p.a2:
        return []
    tc = transcritical_r(p)
    lo, hi = branch.samples[0], branch.samples[-1]
    if not (lo <= tc.as_derived <= hi):
        return []
    return [BifurcationEvent(
        BifurcationKind.TRANSCRITICAL, "r", tc.as_derived,
        State(p.carrying_capacity, 0.0),
        {"as_derived": tc.as_derived, "as_printed": tc.as_printed},
    )]


# --------------------------------------------------------------------------
# First Lyapunov coefficient at a Hopf point.

def first_lyapunov_coefficient(p: ModelParams, hopf_event: BifurcationEvent) -> float:
    """First Lyapunov coefficient at a Hopf point, from the field's exact
    partials (_field_partials).

    The Jacobian (with trace removed) is brought to rotation normal form by
    T = [[B, 0], [-A, -omega]] / ||.||, where J - (tr/2)I = [[A, B], [C, -A]]
    and omega = sqrt(-A**2 - B*C); the classical cubic/quadratic expression
    is then evaluated on the transformed field.  The magnitude depends on
    the normalization of T (only the sign is coordinate-free); negative
    means supercritical (stable cycle).
    """
    if hopf_event.kind is not BifurcationKind.HOPF:
        raise DomainError("first_lyapunov_coefficient expects a Hopf event")
    pv = with_params(p, **{hopf_event.param_name: hopf_event.critical_value})
    star = (hopf_event.critical_value, hopf_event.point.x1)
    x1 = _at(p, hopf_event.param_name, star, star, hopf_event.critical_value)
    if x1 is None:
        raise DomainError(f"no interior equilibrium near x1 = {hopf_event.point.x1!r}")
    return _lyapunov_of_field(_field_partials(x1, x2_of_x1(x1, pv), pv))


def _lyapunov_of_field(D: dict[tuple[int, int], tuple[float, float]]) -> float:
    """Guckenheimer-Holmes 16a expression for a planar field whose partials
    at the equilibrium are D[i, j] = (d^(i+j) f1, d^(i+j) f2)/dx1^i dx2^j,
    i + j <= 3 (as _field_partials); the Jacobian must have ~zero trace and
    complex eigenvalues.  Magnitude depends on the (normalized) eigenbasis,
    sign does not."""
    (j11, j21), (j12, j22) = D[1, 0], D[0, 1]
    tr = j11 + j22
    det = j11 * j22 - j12 * j21
    scale = max(abs(j11), abs(j12), abs(j21), abs(j22), 1e-30)
    if abs(tr) > 1e-5 * scale:
        raise DomainError(f"not a Hopf point: trace {tr!r} is not ~0")
    w2 = det - 0.25 * tr * tr
    if w2 <= 0.0:
        raise DomainError("not a Hopf point: eigenvalues are not complex")
    omega = math.sqrt(w2)

    A = j11 - 0.5 * tr
    B = j12
    # T columns: Re/-Im of the eigenvector (B, i*omega - A); T12 = 0
    nrm = math.sqrt(B * B + A * A + w2)
    t11, t21, t22 = B / nrm, -A / nrm, -omega / nrm
    dt = t11 * t22
    if abs(dt) < 1e-12:
        raise DomainError("degenerate eigenbasis at the Hopf point")

    def phi(a: int, b: int) -> tuple[float, float]:
        """d^(a+b)/dxi^a deta^b of T^-1 f(x0 + T(xi, eta)) at 0: with
        d/dxi = t11*d/dx1 + t21*d/dx2 and d/deta = t22*d/dx2, the binomial
        contraction of D."""
        s1 = s2 = 0.0
        for i in range(a + 1):
            c = math.comb(a, i) * t11 ** i * t21 ** (a - i) * t22 ** b
            d1, d2 = D[i, a - i + b]
            s1 += c * d1
            s2 += c * d2
        return s1 / t11, (t11 * s2 - t21 * s1) / dt

    f1xx, f2xx = phi(2, 0)
    f1yy, f2yy = phi(0, 2)
    f1xy, f2xy = phi(1, 1)
    a16 = (phi(3, 0)[0] + phi(1, 2)[0] + phi(2, 1)[1] + phi(0, 3)[1]
           + (f1xy * (f1xx + f1yy) - f2xy * (f2xx + f2yy)
              - f1xx * f2xx + f1yy * f2yy) / omega)
    return a16 / 16.0
