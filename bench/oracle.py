"""Reference formulas for the refuge predator-prey model, written from the
model equations alone (stdlib only, nothing imported from predprey).

The benchmark checks the package against these: closed forms where the
model has them (m2 = 1 interior point, transcritical refuge fraction, the
a1 Hopf point, the refuge threshold, the audit's theoretical verdicts) and
small independent solvers where it does not (the r Hopf point by bisection
on the closed-form trace, a fold by Newton on F = dF/dx1 = 0).  The scipy
script make_references.py uses the same field.

A parameter set is any object with attributes a1 a2 b1 w0 w1 d m1 m2 r.
"""
from __future__ import annotations

import math
from types import SimpleNamespace

NAMES = ("a1", "a2", "b1", "w0", "w1", "d", "m1", "m2", "r")


def params(**kw) -> SimpleNamespace:
    kw.setdefault("r", 1.0)
    return SimpleNamespace(**{k: float(kw[k]) for k in NAMES})


def replaced(p, **kw) -> SimpleNamespace:
    return params(**{**{k: getattr(p, k) for k in NAMES}, **kw})


def as_dict(p) -> dict:
    return {k: getattr(p, k) for k in NAMES}


def g(s: float, p) -> float:
    return 0.0 if s <= 0.0 else (s / (s + p.d)) ** p.m1


def field(p, x1: float, x2: float) -> tuple[float, float]:
    inter = g(p.r * x1, p) * (x2 ** p.m2 if x2 > 0.0 else 0.0)
    return (x1 * (p.a1 - p.b1 * x1) - p.w0 * inter, -p.a2 * x2 + p.w1 * inter)


def u_field(p, u: float, x2: float) -> tuple[float, float]:
    """The same field in the chart u = 1/x1 (prey touchdown is u blowup)."""
    k = p.r ** p.m1 / (p.r + p.d * u) ** p.m1 * (x2 ** p.m2 if x2 > 0.0 else 0.0)
    return (-p.a1 * u + p.b1 + p.w0 * u * u * k, -p.a2 * x2 + p.w1 * k)


def dg_dx1(x1: float, p) -> float:
    """d/dx1 g(r*x1)."""
    s = p.r * x1
    return p.m1 * (s / (s + p.d)) ** (p.m1 - 1.0) * p.d * p.r / (s + p.d) ** 2


def jacobian(p, x1: float, x2: float):
    G, Gp = g(p.r * x1, p), dg_dx1(x1, p)
    pw, dpw = x2 ** p.m2, p.m2 * x2 ** (p.m2 - 1.0)
    return ((p.a1 - 2.0 * p.b1 * x1 - p.w0 * Gp * pw, -p.w0 * G * dpw),
            (p.w1 * Gp * pw, -p.a2 + p.w1 * G * dpw))


def trace_det(p, x1: float, x2: float) -> tuple[float, float]:
    (a, b), (c, d) = jacobian(p, x1, x2)
    return a + d, a * d - b * c


def carrying_capacity(p) -> float:
    return p.a1 / p.b1


def prey_nullcline_x2(x1: float, p) -> float:
    """x2 balancing the predator equation on the prey-nullcline route:
    (w1/(w0*a2)) * x1 * (a1 - b1*x1)."""
    return p.w1 / (p.w0 * p.a2) * x1 * (p.a1 - p.b1 * x1)


def scan_F(p, x1: float) -> float:
    """Zero exactly at interior equilibria (x1 in (0, a1/b1))."""
    x2 = prey_nullcline_x2(x1, p)
    return p.w0 * g(p.r * x1, p) * x2 ** p.m2 - x1 * (p.a1 - p.b1 * x1)


def interior_m2_one(p) -> tuple[float, float]:
    """The m2 = 1 interior point from g(r*x1) = a2/w1."""
    em = 1.0 / p.m1
    x1 = (p.d / p.r) * p.a2 ** em / (p.w1 ** em - p.a2 ** em)
    return x1, prey_nullcline_x2(x1, p)


def transcritical_r(p) -> float:
    """Refuge fraction at which the m2 = 1 interior point meets a1/b1."""
    em = 1.0 / p.m1
    return (p.b1 * p.d / p.a1) * p.a2 ** em / (p.w1 ** em - p.a2 ** em)


def hopf_a1(p) -> tuple[float, float, float]:
    """m2 = 1: x1* does not depend on a1 and the trace is affine in a1, so
    tr = 0 solves in closed form.  Returns (a1*, x1*, x2*)."""
    x1, _ = interior_m2_one(p)
    c = dg_dx1(x1, p) * p.w1 * x1 / p.a2
    a1 = p.b1 * x1 * (2.0 - c) / (1.0 - c)
    q = replaced(p, a1=a1)
    return a1, x1, prey_nullcline_x2(x1, q)


def _bisect(f, lo: float, hi: float, rel: float = 1e-14) -> float:
    flo = f(lo)
    if flo * f(hi) > 0.0:
        raise ValueError(f"no sign change on [{lo!r}, {hi!r}]")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= rel * abs(mid):
            break
        fm = f(mid)
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def hopf_r(p, lo: float, hi: float) -> tuple[float, float, float]:
    """m2 = 1: the refuge fraction in [lo, hi] where the trace at the
    closed-form interior point vanishes.  Returns (r*, x1*, x2*)."""
    def tr(r):
        q = replaced(p, r=r)
        return trace_det(q, *interior_m2_one(q))[0]
    r = _bisect(tr, lo, hi)
    return (r, *interior_m2_one(replaced(p, r=r)))


def scan_F_x1(p, x1: float) -> float:
    """Analytic dF/dx1."""
    k = p.w1 / (p.w0 * p.a2)
    x2 = k * x1 * (p.a1 - p.b1 * x1)
    dx2 = k * (p.a1 - 2.0 * p.b1 * x1)
    G, Gp = g(p.r * x1, p), dg_dx1(x1, p)
    return (p.w0 * (Gp * x2 ** p.m2 + G * p.m2 * x2 ** (p.m2 - 1.0) * dx2)
            - (p.a1 - 2.0 * p.b1 * x1))


def fold(p, name: str, x1: float, v: float, iters: int = 60) -> tuple[float, float, float]:
    """Saddle-node of interior equilibria in parameter `name`: Newton on
    F(x1; v) = dF/dx1(x1; v) = 0 from (x1, v), derivatives of the pair by
    central differences.  Returns (v*, x1*, x2*)."""
    def resid(x, val):
        q = replaced(p, **{name: val})
        return scan_F(q, x), scan_F_x1(q, x)

    for _ in range(iters):
        f0, d0 = resid(x1, v)
        hx, hv = 1e-7 * x1, 1e-7 * abs(v)
        fxp, dxp = resid(x1 + hx, v)
        fxm, dxm = resid(x1 - hx, v)
        fvp, dvp = resid(x1, v + hv)
        fvm, dvm = resid(x1, v - hv)
        a, b = (fxp - fxm) / (2 * hx), (fvp - fvm) / (2 * hv)
        c, e = (dxp - dxm) / (2 * hx), (dvp - dvm) / (2 * hv)
        det = a * e - b * c
        step_x = -(e * f0 - b * d0) / det
        step_v = -(-c * f0 + a * d0) / det
        x1, v = x1 + step_x, v + step_v
        if abs(step_x) <= 1e-13 * x1 and abs(step_v) <= 1e-13 * abs(v):
            break
    else:
        raise ArithmeticError(f"fold Newton did not converge for {name}")
    return v, x1, prey_nullcline_x2(x1, replaced(p, **{name: v}))


def K2(p, eps_frac: float = 0.01) -> float:
    cap = carrying_capacity(p)
    return p.w1 / (p.w0 * p.a2) * (p.a1 + p.a2) * (cap + eps_frac * cap)


def refuge_r_star(x1_0: float, p) -> tuple[float, float]:
    """(clamped, unclamped) refuge fraction below which prey persists."""
    v0 = 1.0 / x1_0 - p.b1 / p.a1
    k2 = K2(p)
    raw = (p.a1 * p.d ** p.m1 * v0
           / (p.w0 * (p.b1 / p.a1 + v0) ** (2.0 - p.m1) * k2 ** p.m2)) ** (1.0 / p.m1)
    return min(raw, 1.0), raw


def psi(x1: float, p) -> float:
    """Prey nullcline ordinate x1*f(x1)/(w0*g(r*x1)) raised to 1/m2."""
    v = x1 * (p.a1 - p.b1 * x1) / (p.w0 * g(p.r * x1, p))
    return v ** (1.0 / p.m2)


def fan(p, probes: int = 12, lo: float = 0.05, hi: float = 0.95) -> list[float]:
    """Probe abscissae of the default separatrix fan: geometric from lo to
    hi times a1/b1."""
    cap = carrying_capacity(p)
    ratio = (hi / lo) ** (1.0 / (probes - 1))
    return [cap * lo * ratio ** i for i in range(probes)]


def audit_theory(p) -> list[str]:
    """Statuses of audit checks I..VII that the theory gives: I-IV always
    hold; V and VI hold for m1 < 1 and do not apply at m1 = 1; VII (1/g
    integrable at 0) holds iff m1 < 1."""
    frac = p.m1 < 1.0
    return (["pass"] * 4 + (["pass", "pass"] if frac else ["not applicable"] * 2)
            + ["pass" if frac else "fail"])


def rel_err(got: float, want: float) -> float:
    if want == 0.0:
        return abs(got)
    return abs(got - want) / abs(want)


def isclose(got: float, want: float, rel: float) -> bool:
    return math.isfinite(got) and rel_err(got, want) <= rel
