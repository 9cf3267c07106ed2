"""Predator-prey vector field with a generalized response and a prey refuge.

The system on the closed positive quadrant is

    dx1/dt = a1*x1 - b1*x1**2 - w0 * g(r*x1) * x2**m2
    dx2/dt = -a2*x2 + w1 * g(r*x1) * x2**m2

with prey growth f(x1) = a1 - b1*x1 and response kernel

    g(s) = (s / (s + d))**m1,      0 < m1 <= 1.

The refuge fraction r in (0, 1] shrinks the prey population visible to the
predator; r = 1 recovers the unprotected model.  For m1 < 1 the kernel has
infinite slope at s = 0, so the field is non-Lipschitz on the prey axis and
orbits can hit x1 = 0 in finite time; m2 < 1 does the same on the predator
axis.  Everything downstream (event handling, equilibrium classification,
the extinction criterion) leans on those two facts.

G = g(r*x1) has one home, _response: the formula above where r*x1 is a
normal float, logs where it is subnormal or underflows (its few bits would
make g jump).  make_rhs, the integrator's hot path, inlines only the
normal-float line; psi and _g_derivatives read G from _response, and the
interior scan function is the field itself.  eval_g(s) is g of a given s.

Two more charts take the prey coordinate apart from the axis: make_u_rhs
(u = 1/x1, where touchdown is blowup) and make_y_rhs (y = x1**(1-m1), for
m1 < 1, where the field is finite and smooth at y = 0 and touchdown is a
transversal crossing).  The separatrix trace runs in the y-chart.

The field's partials have their one home here: the derivatives of
G = g(r*x1) and P = x2**m2 up to third order (_g_derivatives,
_p_derivatives), and the table of the field's partials built from them
(_field_partials).  The Jacobian, the bifurcation Newton's rows and the
first Lyapunov coefficient all read them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Mapping

__all__ = [
    "DomainError",
    "ParameterError",
    "ModelParams",
    "State",
    "validate_params",
    "eval_f",
    "eval_g",
    "make_rhs",
    "make_u_rhs",
    "make_y_rhs",
    "AssumptionCheck",
    "verify_assumptions",
    "with_params",
]


class DomainError(ValueError):
    """A quantity left the domain where the requested operation makes sense."""


class ParameterError(ValueError):
    """Raised by validate_params; carries the full list of violations."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


@dataclass(frozen=True)
class State:
    """A point (x1, x2) of the phase plane (prey, predator)."""

    x1: float
    x2: float

    def __iter__(self):
        yield self.x1
        yield self.x2


@dataclass(frozen=True)
class ModelParams:
    a1: float   # prey intrinsic growth rate
    a2: float   # predator death rate
    b1: float   # prey self-limitation
    w0: float   # consumption rate
    w1: float   # conversion rate
    d: float    # half-saturation-like constant in g
    m1: float   # response exponent, (0, 1]
    m2: float   # predator interference exponent, (0, 1]
    r: float = 1.0  # refuge fraction (fraction of prey exposed), (0, 1]

    def __post_init__(self):
        errors = _violations(self)
        if errors:
            raise ParameterError(errors)

    @property
    def carrying_capacity(self) -> float:
        """Prey-only equilibrium a1/b1."""
        return self.a1 / self.b1


def _range_error(name: str, v: float) -> str | None:
    if not (isinstance(v, (int, float)) and math.isfinite(v)):
        return f"{name} must be a finite number, got {v!r}"
    if name in ("m1", "m2", "r"):
        if not (0.0 < v <= 1.0):
            return f"{name} must lie in (0, 1], got {v!r}"
    elif v <= 0.0:
        return f"{name} must be positive, got {v!r}"
    return None


# Field names in declaration order, the order violations are reported in.
_FIELDS = tuple(f.name for f in fields(ModelParams))


def _violations(p: ModelParams) -> list[str]:
    errors = []
    for name in _FIELDS:
        msg = _range_error(name, getattr(p, name))
        if msg:
            errors.append(msg)
    return errors


def validate_params(raw: Mapping[str, float]) -> ModelParams:
    """Build ModelParams from a raw mapping, reporting *all* problems at once.

    Raises ParameterError whose .errors lists every unknown key, missing key,
    and range violation rather than stopping at the first.
    """
    known = set(_FIELDS)
    errors = [f"unknown parameter {k!r}" for k in raw if k not in known]
    required = known - {"r"}
    errors += [f"missing parameter {k!r}" for k in sorted(required - set(raw))]
    if errors:
        # Construction is off the table; still audit the values we do have.
        for k in raw:
            if k in known:
                try:
                    msg = _range_error(k, float(raw[k]))
                except (TypeError, ValueError):
                    msg = f"{k} must be a number, got {raw[k]!r}"
                if msg:
                    errors.append(msg)
        raise ParameterError(errors)
    try:
        return ModelParams(**{k: float(v) for k, v in raw.items()})
    except ParameterError:
        raise
    except (TypeError, ValueError) as exc:
        raise ParameterError([str(exc)]) from exc


def eval_f(x1: float, p: ModelParams) -> float:
    """Prey per-capita growth f(x1) = a1 - b1*x1."""
    return p.a1 - p.b1 * x1


def eval_g(s: float, p: ModelParams) -> float:
    """Response kernel g(s) = (s/(s+d))**m1 for s >= 0.  g(0) = 0."""
    if s < 0.0:
        raise DomainError(f"g is defined for nonnegative arguments, got {s!r}")
    if s == 0.0:
        return 0.0
    return (s / (s + p.d)) ** p.m1


def _response(x1: float, r: float, d: float, m1: float) -> float:
    """G = g(r*x1) = (r*x1/(r*x1 + d))**m1 for x1 >= 0; G(0) = 0.

    Where r*x1 is subnormal or underflows to 0, its few bits would make g
    jump, so there log(s/(s+d)) = -log1p(d/s) is taken from
    z = log(s/d) = log(r) - log(d) + log(x1) instead."""
    s = r * x1
    if s >= 2.2250738585072014e-308:  # the smallest normal float
        return (s / (s + d)) ** m1
    if x1 == 0.0:
        return 0.0
    z = math.log(r) - math.log(d) + math.log(x1)
    return math.exp(m1 * (z - math.log1p(math.exp(z)) if z < 0.0
                          else -math.log1p(math.exp(-z))))


def make_rhs(p: ModelParams) -> Callable[[float, float], tuple[float, float]]:
    """Compile the field to a float closure (the integrator's hot path).

    The closure treats negative inputs as zero without complaint -- embedded
    Runge-Kutta trial stages may peek slightly across the axes, and a Python
    float power with negative base and fractional exponent would come back
    complex.  It evaluates g(r*x1) inline where r*x1 is a normal float, as
    _response does, and calls _response below that.
    """
    a1, a2, b1, w0, w1, d = p.a1, p.a2, p.b1, p.w0, p.w1, p.d
    m1, m2, r = p.m1, p.m2, p.r
    unit_m2 = m2 == 1.0  # x2 ** 1.0 is x2: skip the power

    def field(x1: float, x2: float) -> tuple[float, float]:
        if x1 < 0.0:
            x1 = 0.0
        if x2 < 0.0:
            x2 = 0.0
        s = r * x1
        if s >= 2.2250738585072014e-308:  # _response's normal-float line
            g = (s / (s + d)) ** m1
        else:
            g = _response(x1, r, d, m1)
        pw = 0.0 if x2 == 0.0 else (x2 if unit_m2 else x2 ** m2)
        inter = g * pw
        return (
            x1 * (a1 - b1 * x1) - w0 * inter,
            -a2 * x2 + w1 * inter,
        )

    return field


# --------------------------------------------------------------------------
# Exact derivatives of the field.  The interaction term is separable,
#
#     f1 = a1*x1 - b1*x1**2 - w0*G*P,    f2 = -a2*x2 + w1*G*P,
#
# with G = g(r*x1) and P = x2**m2, so every partial is a product G^(i)*P^(j).

def _g_derivatives(x1: float, p: ModelParams) -> tuple[float, float, float, float]:
    """(G, G', G'', G''') in x1 of G = g(r*x1), x1 > 0 (x1 >= 0 at m1 = 1),
    with G from _response.  By Faa di Bruno on t**m1 with t = r*x1/q,
    q = r*x1 + d, c = r/q:  t' = r*d/q**2, t'' = -2*c*t', t''' = -3*c*t'',
    so with rho = t'/t = d/(x1*q)

        G'   = m1*G*rho
        G''  = G'*((m1 - 1)*rho - 2*c)
        G''' = G'*((m1 - 1)*rho*((m1 - 2)*rho - 6*c) + 6*c**2)

    and nothing divides by t, which underflows with r*x1.  Both terms of
    G'' are negative or zero and every term of G''' is positive, so nothing
    cancels (the log-derivative recurrence cancels 1/x1**3 terms near the
    axis at m1 = 1).  At m1 = 1, G = t and the rest are t', t'', t''', so
    the axis x1 = 0 is no special case."""
    r, d, m1 = p.r, p.d, p.m1
    G = _response(x1, r, d, m1)
    q = r * x1 + d
    c = r / q
    if m1 == 1.0:
        t1 = r * d / (q * q)
        t2 = -2.0 * c * t1
        return G, t1, t2, -3.0 * c * t2
    rho = d / (x1 * q)
    g1 = m1 * G * rho
    u = (m1 - 1.0) * rho
    return (G, g1, g1 * (u - 2.0 * c),
            g1 * (u * ((m1 - 2.0) * rho - 6.0 * c) + 6.0 * c * c))


def _p_derivatives(x2: float, m2: float) -> tuple[float, float, float, float]:
    """(P, P', P'', P''') of P = x2**m2, x2 > 0 (x2 >= 0 at m2 = 1):
    falling factorials of m2."""
    if m2 == 1.0:
        return x2, 1.0, 0.0, 0.0
    p0 = x2 ** m2
    p1 = m2 * p0 / x2
    p2 = (m2 - 1.0) * p1 / x2
    return p0, p1, p2, (m2 - 2.0) * p2 / x2


def _field_partials(x1: float, x2: float, p: ModelParams) -> dict[tuple[int, int], tuple[float, float]]:
    """D[i, j] = (d^(i+j) f1, d^(i+j) f2) / dx1^i dx2^j at an interior point,
    i + j <= 3:  D(i, j) = (l_i*[j=0] - w0*G^(i)*P^(j), m_j*[i=0] + w1*G^(i)*P^(j))
    with l = (a1*x1 - b1*x1**2, a1 - 2*b1*x1, -2*b1, 0), m = (-a2*x2, -a2, 0, 0)."""
    G, P = _g_derivatives(x1, p), _p_derivatives(x2, p.m2)
    ell = (x1 * (p.a1 - p.b1 * x1), p.a1 - 2.0 * p.b1 * x1, -2.0 * p.b1, 0.0)
    lam = (-p.a2 * x2, -p.a2, 0.0, 0.0)
    return {(i, j): ((0.0 if j else ell[i]) - p.w0 * G[i] * P[j],
                     (0.0 if i else lam[j]) + p.w1 * G[i] * P[j])
            for i in range(4) for j in range(4 - i)}


def make_u_rhs(p: ModelParams) -> Callable[[float, float], tuple[float, float]]:
    """Field of the inverted-prey chart u = 1/x1:

        du/dt  = -a1*u + b1 + w0 * r**m1 * u**2 / (r + d*u)**m1 * x2**m2
        dx2/dt = -a2*x2 + w1 * r**m1 / (r + d*u)**m1 * x2**m2

    Prey extinction (x1 -> 0 in finite time) becomes finite-time blowup of u,
    which a step controller can chase without resolving a non-Lipschitz
    touchdown.  Valid for u > 0.
    """
    a1, a2, b1, w0, w1, d = p.a1, p.a2, p.b1, p.w0, p.w1, p.d
    m1, m2, r = p.m1, p.m2, p.r
    rm1 = r ** m1

    def field(u: float, x2: float) -> tuple[float, float]:
        if x2 < 0.0:
            x2 = 0.0
        if u <= 0.0:
            raise DomainError(f"u-chart requires u > 0, got {u!r}")
        denom = (r + d * u) ** m1
        pw = 0.0 if x2 == 0.0 else x2 ** m2
        kernel = rm1 * pw / denom
        return (
            -a1 * u + b1 + w0 * u * u * kernel,
            -a2 * x2 + w1 * kernel,
        )

    return field


def make_y_rhs(p: ModelParams) -> Callable[[float, float], tuple[float, float]]:
    """Field of the desingularising prey chart y = x1**(1-m1), for m1 < 1:

        dy/dt  = (1-m1) * (a1*y - b1*x1*y - w0*c*x2**m2)
        dx2/dt = -a2*x2 + w1*(x1/y)*c*x2**m2

    with x1 = y**(1/(1-m1)) and c = (r/(r*x1 + d))**m1, so that
    g(r*x1) = x1**m1 * c and x1/y = x1**m1.  Unlike the x-chart field this
    one is finite and smooth at the prey axis y = 0, where dy/dt =
    -(1-m1)*w0*(r/d)**m1*x2**m2 < 0: the finite-time touchdown is a
    transversal crossing (Dumortier, Llibre and Artes, Qualitative Theory
    of Planar Differential Systems, 2006, ch. 3).  Where r/(r*x1 + d) is
    subnormal or underflows, c is taken from logs, as _response takes g.
    Negative inputs count as zero, as in make_rhs.  At m1 = 1 the chart
    does not exist: DomainError.
    """
    if not p.m1 < 1.0:
        raise DomainError("the chart y = x1**(1-m1) needs m1 < 1")
    a1, a2, b1, w0, w1, d = p.a1, p.a2, p.b1, p.w0, p.w1, p.d
    m1, m2, r = p.m1, p.m2, p.r
    k = 1.0 - m1
    e = 1.0 / k
    ka1, kb1, kw0 = k * a1, k * b1, k * w0
    unit_m2 = m2 == 1.0
    log_r, log, exp = math.log(r), math.log, math.exp

    def field(y: float, x2: float) -> tuple[float, float]:
        if y < 0.0:
            y = 0.0
        if x2 < 0.0:
            x2 = 0.0
        x1 = y ** e
        q = r * x1 + d
        v = r / q
        if v >= 2.2250738585072014e-308:  # the smallest normal float
            c = v ** m1
        else:
            c = exp(m1 * (log_r - log(q)))
        inter = c * (0.0 if x2 == 0.0 else (x2 if unit_m2 else x2 ** m2))
        return (
            y * (ka1 - kb1 * x1) - kw0 * inter,
            -a2 * x2 + (w1 * x1 / y * inter if y > 0.0 else 0.0),
        )

    return field


# --------------------------------------------------------------------------
# Standing-assumption checker.

_PASS = "pass"
_FAIL = "fail"
_NOT_APPLICABLE = "not applicable"


@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    status: str  # "pass" | "fail" | "not applicable"
    detail: str = ""


def _default_grid(p: ModelParams) -> list[float]:
    top = 2.0 * p.carrying_capacity
    n = 400
    # twelve log-spaced decades below the first of n uniform points; the
    # axis end is where the interesting behaviour lives.  The two parts do
    # not overlap, so no two points sit an ulp apart (g would tie on them).
    pts = [top / n * 10.0 ** (-(12.0 * (1.0 - i / 60.0))) for i in range(60)]
    return pts + [top * (i + 1) / n for i in range(n)]


def verify_assumptions(p: ModelParams) -> list[AssumptionCheck]:
    """Numerically audit the standing assumptions on f and g.

    (
      i) g continuous on x1 >= 0 with g(0) = 0;
     ii) g smooth and strictly increasing for x1 > 0;
    iii) f smooth on x1 >= 0;
     iv) logistic sign structure: (x1 - a1/b1) * f(x1) < 0 away from a1/b1;
      v) for m1 < 1, g(x1)/x1 -> +infinity as x1 -> 0+;
     vi) for m1 < 1, g not differentiable at 0 (same divergence);
    vii) the integral of 1/g over (0, beta] converges (finite-time reach).

    Checks are evidence on a grid, not proofs: a mix of log-spaced points
    near the axis and uniform points up to 2*a1/b1.
    """
    xs = _default_grid(p)
    checks: list[AssumptionCheck] = []

    # g ~ x**m1 toward 0+: the log-log slope of g far below d, where the
    # kernel is a pure power, is the exponent to rounding.
    xa, xb = 1e-100, 1e-200
    g0 = eval_g(0.0, p)
    slope = math.log(eval_g(xa, p) / eval_g(xb, p)) / math.log(xa / xb)
    checks.append(AssumptionCheck(
        "I: g continuous, g(0)=0",
        _PASS if g0 == 0.0 and slope > 0.0 else _FAIL,
        f"g(0)={g0!r}, g(x) ~ x**({slope:.4f}) toward 0+",
    ))

    d, m1 = p.d, p.m1
    gs = [(x / (x + d)) ** m1 for x in xs]  # eval_g's formula: every x is > 0
    increasing = all(b > a for a, b in zip(gs, gs[1:]))
    checks.append(AssumptionCheck(
        "II: g smooth and increasing on x1>0",
        _PASS if increasing else _FAIL,
        "strictly increasing on grid" if increasing else "monotonicity violated on grid",
    ))

    checks.append(AssumptionCheck(
        "III: f smooth on x1>=0",
        _PASS,
        "f is affine",
    ))

    cap = p.carrying_capacity
    a1, b1 = p.a1, p.b1
    bad = [x for x in xs if abs(x - cap) > 1e-9 * cap and (x - cap) * (a1 - b1 * x) >= 0.0]
    checks.append(AssumptionCheck(
        "IV: (x1-a1/b1)*f(x1)<0 off the carrying capacity",
        _PASS if not bad else _FAIL,
        f"carrying capacity a1/b1 = {cap:.6g}",
    ))

    if p.m1 < 1.0:
        # g(x)/x ~ x**(m1-1), the same power less one.
        slope -= 1.0
        diverges = slope < 0.0
        detail = (f"g(x)/x ~ x**({slope:.4f}) toward 0+ "
                  f"(theory exponent m1-1 = {p.m1 - 1.0:.4f})")
        checks.append(AssumptionCheck(
            "V: g(x1)/x1 -> inf at 0+", _PASS if diverges else _FAIL, detail))
        checks.append(AssumptionCheck(
            "VI: g not differentiable at 0", _PASS if diverges else _FAIL,
            "difference quotient divergent" if diverges else "quotient bounded",
        ))
    else:
        detail = "m1 = 1: g is differentiable at 0 with slope 1/d"
        checks.append(AssumptionCheck("V: g(x1)/x1 -> inf at 0+", _NOT_APPLICABLE, detail))
        checks.append(AssumptionCheck("VI: g not differentiable at 0", _NOT_APPLICABLE, detail))

    checks.append(_integral_check(p))
    return checks


# Six-point Gauss-Legendre rule on [-1, 1] (Davis & Rabinowitz, Methods of
# Numerical Integration, ch. 2): (t, w) for the node pair +-t of weight w.
_GAUSS6 = ((0.2386191860831969, 0.46791393457269104),
           (0.6612093864662645, 0.3607615730481386),
           (0.932469514203152, 0.17132449237917036))


def _inverse_g_integral(beta: float, d: float, m1: float) -> tuple[float, float]:
    """(int_0^beta dx/g(x), ratio of the last two shells) for m1 < 1, as
    _integral_check describes."""
    shells = []
    hi = beta
    for _ in range(60):
        c, h = 0.75 * hi, 0.25 * hi  # the shell's centre and half-width
        s = 0.0
        for t, w in _GAUSS6:
            lo_x, hi_x = c - h * t, c + h * t
            s += w * (((lo_x + d) / lo_x) ** m1 + ((hi_x + d) / hi_x) ** m1)
        shells.append(h * s)
        hi *= 0.5
    total = math.fsum([d ** m1 * hi ** (1.0 - m1) / (1.0 - m1), *shells])
    return total, shells[-1] / shells[-2]


def _integral_check(p: ModelParams) -> AssumptionCheck:
    """VII: does int_0^beta dx/g(x) converge, beta = min(1, a1/b1)?

    Near zero 1/g ~ (d/x)**m1, so the integral behaves like x**(1-m1): finite
    exactly when m1 < 1.  The audit splits (0, beta] into 60 dyadic shells
    [beta/2**(k+1), beta/2**k] and the rest (0, L], L = beta/2**60.  Each
    shell takes the six-point Gauss-Legendre rule: 1/g is analytic on a
    shell, with its nearest singularity (x = 0) three half-widths from the
    shell's centre, so the rule is good to about 1e-9 relative.  The inner
    part is d**m1 * L**(1-m1) / (1-m1), the integral of (d/x)**m1: since
    (d/x)**m1 <= 1/g <= 1 + (d/x)**m1, that is short by at most L, and
    L = 2**-60 * beta is below 2**-60 of the total (1/g > 1).  So the
    printed total covers all of (0, beta].  The evidence of convergence is the ratio of the last two
    shells, which tends to 2**(m1-1) < 1: the shells are summable.
    """
    beta = min(1.0, p.carrying_capacity)
    if p.m1 >= 1.0:
        return AssumptionCheck(
            "VII: integral of 1/g near 0 converges",
            _FAIL,
            "log-divergent at m1=1; finite-time prey extinction unavailable",
        )
    total, tail_ratio = _inverse_g_integral(beta, p.d, p.m1)
    converges = math.isfinite(total) and tail_ratio < 1.0
    return AssumptionCheck(
        "VII: integral of 1/g near 0 converges",
        _PASS if converges else _FAIL,
        f"int_(0,{beta:.3g}] 1/g ~ {total:.6g}, shell ratio {tail_ratio:.4f} "
        f"(theory 2**(m1-1) = {2.0 ** (p.m1 - 1.0):.4f})",
    )


def _with_field(p: ModelParams, name: str, value: float) -> ModelParams | None:
    """p with the one field name set to value, or None where _range_error
    rejects the value; name must be a field.  Sweeps and their Newton
    iterations substitute one parameter this way thousands of times, so
    only the changed field is checked: the others were checked when p was
    built."""
    if _range_error(name, value):
        return None
    q = object.__new__(ModelParams)
    q.__dict__.update(p.__dict__)
    q.__dict__[name] = value
    return q


def with_params(p: ModelParams, **changes: float) -> ModelParams:
    """p with some fields changed, equal to dataclasses.replace(p, **changes).

    Each field is substituted by _with_field.  Raises ParameterError
    listing every bad changed field (messages and order as ModelParams
    gives them), and TypeError for a name that is not a field.
    """
    bad = []
    q = p
    for name, value in changes.items():
        if name not in _FIELDS:
            raise TypeError(f"ModelParams has no field {name!r}")
        moved = _with_field(q, name, value)
        if moved is None:
            bad.append((_FIELDS.index(name), _range_error(name, value)))
        else:
            q = moved
    if bad:
        raise ParameterError([msg for _, msg in sorted(bad)])
    return q
