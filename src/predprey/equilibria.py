"""Equilibria of the refuge model: location, Jacobian, linear classification.

The trivial state E0 = (0, 0) and the predator-free state E1 = (a1/b1, 0)
always exist.  Interior equilibria solve

    x2 = (w1 / (w0 * a2)) * x1 * (a1 - b1 * x1)          (prey balance)
    w0 * g(r*x1) * x2**m2 = x1 * (a1 - b1 * x1)          (predator balance)

which collapse to one scalar equation F(x1) = 0 on (0, a1/b1)
(interior_scan_function).  Its roots are isolated exactly: F's two terms
are positive there, and the difference H of their logs has a derivative
with the sign of a quadratic, so the window splits into at most three
pieces on which H is monotone, each holding at most one root
(interior_equilibria).  With m2 = 1 the predator balance alone pins x1
through g(r*x1) = a2/w1, a closed form used as the root itself and for
nullcline geometry.

Linearization is exact, from the field's derivative table in model:  with
G = g(r*x1), P = x2**m2 and their derivatives G' in x1 and P' in x2,

    J11 = a1 - 2*b1*x1 - w0*G'*P        J12 = -w0*G*P'
    J21 = w1*G'*P                        J22 = -a2 + w1*G*P'

On an axis G' (x1 = 0) or P' (x2 = 0) is infinite whenever the exponent
m1 or m2 is fractional; such points are reported as NON_LINEARIZABLE
rather than classified.  At exponent 1 the table is exact there too, so
E0 and E1 need no special case.  The same table gives F's and the
Jacobian's exact derivatives along the branch of interior equilibria
(_scan_gradient), the bifurcation Newton's rows.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .model import (
    DomainError,
    ModelParams,
    State,
    _g_derivatives,
    _p_derivatives,
    eval_f,
    make_rhs,
)

__all__ = [
    "Classification",
    "EquilibriumKind",
    "Equilibrium",
    "x2_of_x1",
    "predator_nullcline_x1",
    "jacobian",
    "classify",
    "trivial_equilibrium",
    "predator_free_equilibrium",
    "interior_equilibria",
    "interior_scan_function",
]


class EquilibriumKind(enum.Enum):
    TRIVIAL = "trivial"
    PREDATOR_FREE = "predator_free"
    INTERIOR = "interior"


class Classification(enum.Enum):
    STABLE_NODE = "stable_node"
    STABLE_FOCUS = "stable_focus"
    UNSTABLE_NODE = "unstable_node"
    UNSTABLE_FOCUS = "unstable_focus"
    SADDLE = "saddle"
    CENTER_DEGENERATE = "center_degenerate"
    NON_LINEARIZABLE = "non_linearizable"


@dataclass(frozen=True)
class Equilibrium:
    kind: EquilibriumKind
    point: State
    classification: Classification
    trace: float | None = None
    det: float | None = None
    eigenvalues: tuple[complex, complex] | None = None


def x2_of_x1(x1: float, p: ModelParams) -> float:
    """Predator level balancing the prey equation: (w1/(w0*a2)) * x1 * f(x1).

    Defined for 0 <= x1 <= a1/b1 (elsewhere the value would be negative).
    """
    cap = p.carrying_capacity
    if not (0.0 <= x1 <= cap * (1.0 + 1e-12)):
        raise DomainError(f"x2_of_x1 needs x1 in [0, a1/b1] = [0, {cap!r}], got {x1!r}")
    return (p.w1 / (p.w0 * p.a2)) * x1 * eval_f(x1, p)


def predator_nullcline_x1(p: ModelParams) -> float:
    """Closed-form interior x1 from g(r*x1) = a2/w1, valid only for m2 = 1:

        x1* = (d / r) * a2**(1/m1) / (w1**(1/m1) - a2**(1/m1))

    Requires w1 > a2 (otherwise the response never pays for predator upkeep).
    """
    if p.m2 != 1.0:
        raise DomainError("closed-form predator nullcline requires m2 = 1")
    if p.w1 <= p.a2:
        raise DomainError(
            f"predator nullcline empty: needs w1 > a2, got w1={p.w1!r}, a2={p.a2!r}")
    em = 1.0 / p.m1
    try:
        return (p.d / p.r) * p.a2 ** em / (p.w1 ** em - p.a2 ** em)
    except OverflowError:  # a2**em or w1**em: take (w1/a2)**em - 1 from logs
        z = em * math.log(p.w1 / p.a2)
        return (p.d / p.r) * (1.0 / math.expm1(z) if z < 700.0 else math.exp(-z))


def jacobian(point: State, p: ModelParams) -> tuple[tuple[float, float], tuple[float, float]]:
    """Exact Jacobian of the field at a point, from the field's derivative
    table (G^(i) of G = g(r*x1), P^(j) of P = x2**m2).

    Evaluable at interior points always; on an axis only when the touching
    exponent equals 1 (the limits are then finite).  Otherwise DomainError.
    """
    x1, x2 = point.x1, point.x2
    if x1 < 0.0 or x2 < 0.0:
        raise DomainError(f"Jacobian needs a point in the closed quadrant, got {point!r}")
    if x1 == 0.0 and p.m1 < 1.0:
        raise DomainError("Jacobian singular on the prey axis for m1 < 1")
    if x2 == 0.0 and p.m2 < 1.0:
        raise DomainError("Jacobian singular on the predator axis for m2 < 1")
    return _jacobian(x1, p, _g_derivatives(x1, p), _p_derivatives(x2, p.m2))


def _jacobian(x1: float, p: ModelParams, G, P) -> tuple[tuple[float, float], tuple[float, float]]:
    """The Jacobian (D[1, 0], D[0, 1] of _field_partials, as rows) from G
    and P with their derivatives at the point."""
    return ((p.a1 - 2.0 * p.b1 * x1 - p.w0 * G[1] * P[0], -p.w0 * G[0] * P[1]),
            (p.w1 * G[1] * P[0], -p.a2 + p.w1 * G[0] * P[1]))


def _eig2(tr: float, det: float) -> tuple[complex, complex]:
    disc = tr * tr - 4.0 * det
    if disc >= 0.0:
        s = math.sqrt(disc)
        return complex(0.5 * (tr + s), 0.0), complex(0.5 * (tr - s), 0.0)
    s = math.sqrt(-disc)
    return complex(0.5 * tr, 0.5 * s), complex(0.5 * tr, -0.5 * s)


# absolute slack for "is the trace/determinant exactly zero" questions; the
# classifier is linear bookkeeping, bifurcation detection does its own work.
_ZERO_TOL = 1e-11


def _classify_linear(tr: float, det: float) -> Classification:
    if abs(det) <= _ZERO_TOL or abs(tr) <= _ZERO_TOL and det > 0.0:
        return Classification.CENTER_DEGENERATE
    if det < 0.0:
        return Classification.SADDLE
    disc = tr * tr - 4.0 * det
    if tr < 0.0:
        return Classification.STABLE_NODE if disc >= 0.0 else Classification.STABLE_FOCUS
    return Classification.UNSTABLE_NODE if disc >= 0.0 else Classification.UNSTABLE_FOCUS


def classify(point: State, p: ModelParams, kind: EquilibriumKind | None = None) -> Equilibrium:
    """Wrap a point as a classified Equilibrium (NON_LINEARIZABLE if the
    Jacobian does not exist there)."""
    if kind is None:
        kind = _kind_of(point, p)
    try:
        (j11, j12), (j21, j22) = jacobian(point, p)
    except DomainError:
        return Equilibrium(kind, point, Classification.NON_LINEARIZABLE)
    tr = j11 + j22
    det = j11 * j22 - j12 * j21
    return Equilibrium(kind, point, _classify_linear(tr, det), tr, det, _eig2(tr, det))


def _kind_of(point: State, p: ModelParams) -> EquilibriumKind:
    scale = max(1.0, p.carrying_capacity)
    if abs(point.x1) <= 1e-12 * scale and abs(point.x2) <= 1e-12 * scale:
        return EquilibriumKind.TRIVIAL
    if abs(point.x2) <= 1e-12 * scale:
        return EquilibriumKind.PREDATOR_FREE
    return EquilibriumKind.INTERIOR


def trivial_equilibrium(p: ModelParams) -> Equilibrium:
    return classify(State(0.0, 0.0), p, EquilibriumKind.TRIVIAL)


def predator_free_equilibrium(p: ModelParams) -> Equilibrium:
    return classify(State(p.carrying_capacity, 0.0), p, EquilibriumKind.PREDATOR_FREE)


def interior_scan_function(p: ModelParams):
    """F(x1) whose roots in (0, a1/b1) are the interior equilibria:

        F(x1) = -f1(x1, x2_of_x1(x1)) = w0 * g(r*x1) * x2**m2 - x1 * f(x1)

    the field's prey component, taken from make_rhs(p), negated along the
    prey nullcline: (w0/w1) times the predator-balance residual there, so
    its zeros are exactly the simultaneous solutions.  DomainError outside
    x2_of_x1's domain; in its slack past a1/b1 the field clamps x2 < 0 to
    0, so F is -x1 * f(x1) there.
    """
    field = make_rhs(p)

    def F(x1: float) -> float:
        return -field(x1, x2_of_x1(x1, p))[0]

    return F


def _scan_gradient(x1: float, p: ModelParams, name: str, slopes: bool = False):
    """The rows (F, F_x1, F_v) and, with slopes, (tr, tr_x1, tr_v) and
    (det, det_x1, det_v) of interior_scan_function(p) and of jacobian's
    trace and determinant along the branch x2 = x2_of_x1(x1; v), v being
    the parameter `name` (one of a1, a2, b1, w0, w1, r).  F, tr and det are
    those functions' values bit for bit (F to the sign of a zero).

    Exact on the Newton window 1e-9*cap < x1 < (1-1e-9)*cap, where x1, f
    and x2 are positive, by the chain rule on the field's derivative table
    (G^(i), P^(j)): F = -f1(x1, x2(x1)) and J move at the rates

        (d(x1*f), dl1, dG, dG', dx2, dw0, dw1, da2)

    of x1*f, J11's logistic part l1 = a1 - 2*b1*x1, G, G', x2, w0, w1 and a2,
    as dF = w0*d(G*P) + dw0*G*P - d(x1*f) and likewise for J's products
    G'*P and G*P'.  Per unit x1 along the branch and per unit v, with
    k = w1/(w0*a2):

        x1: (l1, -2*b1, G', G'', k*l1, 0, 0, 0)
        a1: (x1, 1, 0, 0, k*x1, 0, 0, 0)     b1: (-x1**2, -2*x1, 0, 0, -k*x1**2, 0, 0, 0)
        a2: (0, 0, 0, 0, -x2/a2, 0, 0, 1)     w0: (0, 0, 0, 0, -x2/w0, 1, 0, 0)
        w1: (0, 0, 0, 0, x2/w1, 0, 1, 0)      r: (0, 0, x1*G'/r, (G' + x1*G'')/r, 0, 0, 0, 0)
    """
    a1, a2, b1, w0, w1 = p.a1, p.a2, p.b1, p.w0, p.w1
    f = a1 - b1 * x1
    k = w1 / (w0 * a2)
    x2 = k * x1 * f
    G, P = _g_derivatives(x1, p), _p_derivatives(x2, p.m2)
    (G0, G1, G2, _), (P0, P1, P2, _) = G, P
    if name == "a1":
        across = (x1, 1.0, 0.0, 0.0, k * x1, 0.0, 0.0, 0.0)
    elif name == "b1":
        across = (-x1 * x1, -2.0 * x1, 0.0, 0.0, -k * x1 * x1, 0.0, 0.0, 0.0)
    elif name == "a2":
        across = (0.0, 0.0, 0.0, 0.0, -x2 / a2, 0.0, 0.0, 1.0)
    elif name == "w0":
        across = (0.0, 0.0, 0.0, 0.0, -x2 / w0, 1.0, 0.0, 0.0)
    elif name == "w1":
        across = (0.0, 0.0, 0.0, 0.0, x2 / w1, 0.0, 1.0, 0.0)
    elif name == "r":
        across = (0.0, 0.0, x1 * G1 / p.r, (G1 + x1 * G2) / p.r, 0.0, 0.0, 0.0, 0.0)
    else:
        raise DomainError(f"no closed-form partial of F in {name!r}")
    l1 = a1 - 2.0 * b1 * x1
    rows = (l1, -2.0 * b1, G1, G2, k * l1, 0.0, 0.0, 0.0), across  # along the branch, in v
    i00, i10, i01 = G0 * P0, G1 * P0, G0 * P1
    F = [w0 * i00 - x1 * f]  # the field's association, w0*(G*P)
    for dxf, _, dg0, _, dx2, dw0, _, _ in rows:
        F.append(w0 * (dg0 * P0 + i01 * dx2) + dw0 * i00 - dxf)
    if not slopes:
        return (tuple(F),)
    (j11, j12), (j21, j22) = _jacobian(x1, p, G, P)
    tr, det = [j11 + j22], [j11 * j22 - j12 * j21]
    for _, dl1, dg0, dg1, dx2, dw0, dw1, da2 in rows:
        di10 = dg1 * P0 + G1 * P1 * dx2
        di01 = dg0 * P1 + G0 * P2 * dx2
        d11 = dl1 - w0 * di10 - dw0 * i10
        d12 = -w0 * di01 - dw0 * i01
        d21 = w1 * di10 + dw1 * i10
        d22 = -da2 + w1 * di01 + dw1 * i01
        tr.append(d11 + d22)
        det.append(d11 * j22 + j11 * d22 - d12 * j21 - j12 * d21)
    return tuple(F), tuple(tr), tuple(det)


# The interior window: F's trivial zeros at x1 = 0 and a1/b1 stay outside it.
_LO_FRAC, _HI_FRAC = 1e-9, 1.0 - 1e-9


def interior_equilibria(p: ModelParams) -> list[Equilibrium]:
    """All interior equilibria: the roots of F in the window
    1e-9*cap < x1 < (1-1e-9)*cap, isolated exactly.

    There both terms of F are positive, so F = x1*f*(exp(H) - 1) with
    H = log1p(F/(x1*f)) = log(w0*g*x2**m2) - log(x1*f), and H has F's sign.
    H is a sum of logs, and

        x1*(r*x1 + d)*f*H'(x1) = Q(x1) = A*x1**2 + B*x1 + C,
        A = 2*r*b1*(1 - m2),  B = (m2 - 1)*r*a1 + b1*d*(2 - 2*m2 - m1),
        C = (m1 + m2 - 1)*d*a1.

    Q's window roots split the window into at most three pieces on which H
    is monotone; a piece holds a root exactly when H changes sign across
    it, and a bracketed Newton on H finds it to a few ulps.  Hence at most
    three interior equilibria.  For m2 = 1 there is at most one, the closed
    form predator_nullcline_x1, taken without a search.  DomainError if a
    root's field residual exceeds 1e-8 relative.
    """
    cap = p.carrying_capacity
    lo, hi = _LO_FRAC * cap, _HI_FRAC * cap
    if p.m2 != 1.0:
        roots = _isolate(p, lo, hi)
    else:
        c = predator_nullcline_x1(p) if p.w1 > p.a2 else math.nan
        roots = [c] if lo < c < hi else []

    out: list[Equilibrium] = []
    rhs_fn = make_rhs(p)
    for x1 in roots:
        x2 = x2_of_x1(x1, p)
        d1, d2 = rhs_fn(x1, x2)
        scale = max(1.0, abs(x1) + abs(x2))
        if max(abs(d1), abs(d2)) > 1e-8 * scale:
            raise DomainError(
                f"equilibrium residual too large at x1={x1!r}: rhs=({d1!r}, {d2!r})")
        out.append(classify(State(x1, x2), p, EquilibriumKind.INTERIOR))
    return out


def _isolate(p: ModelParams, lo: float, hi: float) -> list[float]:
    """The roots of F in [lo, hi], one per monotone piece of H that changes
    sign (see interior_equilibria); every H is one F evaluation."""
    a1, b1, d, m1, m2, r = p.a1, p.b1, p.d, p.m1, p.m2, p.r
    A = 2.0 * r * b1 * (1.0 - m2)
    B = (m2 - 1.0) * r * a1 + b1 * d * (2.0 - 2.0 * m2 - m1)
    C = (m1 + m2 - 1.0) * d * a1
    F = interior_scan_function(p)

    def H(x1: float) -> float:
        q = F(x1) / (x1 * (a1 - b1 * x1))
        return math.log1p(q) if q > -1.0 else -math.inf  # w0*g*x2**m2 underflowed

    def dH(x1: float) -> float:  # in y = log(x1/(a1/b1 - x1)), as b1*(a1/b1 - x1) = f
        return ((A * x1 + B) * x1 + C) / (a1 * (r * x1 + d))

    nodes = [lo, *(c for c in _quadratic_roots(A, B, C) if lo < c < hi), hi]
    hs = [H(x1) for x1 in nodes]
    roots = [x1 for x1, h in zip(nodes, hs) if h == 0.0]
    for a, b, ha, hb in zip(nodes, nodes[1:], hs, hs[1:]):
        if ha * hb < 0.0:
            roots.append(_solve_monotone(H, dH, a, b, ha < 0.0, p.carrying_capacity))
    return sorted(roots)


def _quadratic_roots(A: float, B: float, C: float) -> list[float]:
    """Real roots of A*x**2 + B*x + C (A >= 0), ascending and distinct, by
    the cancellation-free formula; at A = 0 (A = 2*r*b1*(1 - m2) underflows
    for r below about 1e-307) the linear root -C/B, if B != 0."""
    if A == 0.0:
        return [-C / B] if B != 0.0 else []
    disc = B * B - 4.0 * A * C
    if disc < 0.0:
        return []
    q = -0.5 * (B + math.copysign(math.sqrt(disc), B))
    if q == 0.0:  # B = C = 0
        return [0.0]
    return sorted({q / A, C / q})


def _solve_monotone(H, dH, a: float, b: float, rising: bool, cap: float) -> float:
    """The root of H in (a, b), 0 < a < b < cap = a1/b1, where H is
    monotone: rising (H(a) < 0 < H(b)) or falling.  Newton from the
    midpoint, bisecting whenever a step leaves the bracket, fails to halve
    the step before last, or H is -inf; stops once a step is within a few
    ulps, a step that rounds onto the bracket's end included.  While the
    bracket spans more than a factor 2 in x1 or in cap - x1 it is bisected
    in y (below), so a root near either end of the window is reached in a
    few halvings of y instead of one halving per bit of x1.

    H moves with log(x1) near the axis and with log(cap - x1) near a1/b1,
    and the window spans nine decades of each, so the Newton runs in
    y = log(x1/(cap - x1)), where H is near linear at both ends; dH is
    dH/dy.  With w = dx1/dy = x1*(cap - x1)/cap and e = expm1(-H/dH) the
    step is x1 -> x1 + w*e/(1 + x1*e/cap), -H/(dH/dx1) to first order."""
    x = 0.5 * (a + b)
    dx = dx_old = b - a
    for _ in range(400):
        h = H(x)
        if h == 0.0:
            return x
        if (h < 0.0) == rising:
            a = x
        else:
            b = x
        slope = dH(x)
        q = h / slope if slope != 0.0 and h != -math.inf else math.nan
        e = math.expm1(-q) if q > -700.0 else math.nan  # past 700, exp(-q) overflows
        w = x * (cap - x) / cap
        xn = x + w * e / (1.0 + x * e / cap)
        if not (a <= xn <= b and abs(xn - x) <= 0.5 * abs(dx_old)):
            if b > 2.0 * a or cap - a > 2.0 * (cap - b):
                s = math.sqrt(a / (cap - a) * (b / (cap - b)))  # exp of y's midpoint
                xn = cap * s / (1.0 + s)
            else:
                xn = 0.5 * (a + b)
        dx_old, dx = dx, xn - x
        if abs(dx) <= 4.0 * math.ulp(xn):
            return xn
        x = xn
    return x
