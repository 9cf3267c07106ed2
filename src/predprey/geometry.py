"""Phase-plane geometry: nullclines, the unstable manifold of E1, and the
stable set of the origin ("extinction separatrix").

For m1 < 1 the origin attracts a full open set in finite time and the
boundary of that basin is the curve of interest.  Persistence-to-horizon is
the wrong classifier for it: there are parameter regimes (e.g. a1 = 2,
b1 = 0.21 on the otherwise-standard set) where *every* interior orbit dies
in finite time, yet the basin boundary of "dies while prey decays
monotonically" is still well defined.  The classifier used here:

  * an orbit is ABOVE the stable set iff x1 decreases monotonically all the
    way into the prey-extinction event;
  * the first accepted state with dx1/dt > 0 (a turnaround) certifies BELOW;
    dx1/dt is the derivative the integrator hands its stop predicate, so
    the test costs no field evaluation;
  * reaching the horizon without either also counts as BELOW.

Above the prey nullcline x2 = psi(x1) the prey derivative is negative, so
orbits that stay above it can only march left.  The curve computed here is
the boundary of that classifier at the extinction threshold thr, not the
stable set of the origin itself: the orbit that meets the prey nullcline
at x1 = thr, S = (thr, psi(thr)**(1/m2)).  An orbit above it crosses
x1 = thr still falling; one below meets the nullcline, and turns, first.
The thresholded curve lies below the origin's own stable orbit: on the
bundled OSC fan at thr = 1e-9 by 0.8% to 2.4%, and by 14% at the rightmost
probe.

At a fixed prey abscissa (a "probe") the boundary ordinate comes from one
backward run from S (backward in time, orbits near the boundary converge
onto it), certified by two launches 1e-4 either side.  The backward run is
made in the chart y = x1**(1-m1) (model.make_y_rhs), where the field is
smooth at the prey axis S sits next to, so it needs no absolute tolerance
far below thr; the launches stay in the x-chart, so the certified object is
the same thresholded boundary.  Where that orbit turns back before the
probe and the fates part at the nullcline itself, the nullcline ordinate is
the answer; otherwise bisection in the launch ordinate x2 brackets the
boundary until it is rel_tol / 10 wide relative (the launches' rel_tol is
the one accuracy setting) or no float lies between its ends, as when the
boundary rounds onto the prey axis.  A fan of probes assembles the curve.
At m1 = 1 the origin attracts no open set and the chart does not exist:
the fan and each probe refuse with DomainError.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from .equilibria import predator_free_equilibrium
from .extinction import dissipative_bound_K2
from .integrate import (IntegratorOptions, TerminationKind, _dense_term, _dense_value, _run,
                        integrate)
# make_rhs is unused here; it stays because the bench trace shim patches it
from .model import (DomainError, ModelParams, State, _response, eval_f,  # noqa: F401
                    make_rhs, make_y_rhs)

__all__ = [
    "CurveLabel",
    "PlanarCurve",
    "SeparatrixOptions",
    "SeparatrixComparison",
    "Verdict",
    "psi",
    "prey_nullcline",
    "predator_nullcline",
    "trace_unstable_manifold_E1",
    "separatrix_boundary_x2",
    "trace_stable_separatrix_E0",
    "separatrix_relative_position",
]


class CurveLabel(enum.Enum):
    PREY_NULLCLINE = "prey_nullcline"
    PREDATOR_NULLCLINE = "predator_nullcline"
    UNSTABLE_MANIFOLD_E1 = "unstable_manifold_E1"
    STABLE_SEPARATRIX_E0 = "stable_separatrix_E0"


@dataclass(frozen=True)
class PlanarCurve:
    label: CurveLabel
    points: tuple[State, ...]

    def __post_init__(self):
        if len(self.points) < 2:
            raise DomainError(f"a curve needs at least 2 points, got {len(self.points)}")

    def x1s(self) -> list[float]:
        return [s.x1 for s in self.points]

    def x2s(self) -> list[float]:
        return [s.x2 for s in self.points]


class Verdict(enum.Enum):
    WS_ABOVE_WU = "ws_above_wu"
    WU_ABOVE_WS = "wu_above_ws"
    CROSSING = "crossing"


@dataclass(frozen=True)
class SeparatrixComparison:
    verdict: Verdict
    margin: float          # smallest |vertical gap| on the shared grid
    x1_range: tuple[float, float]
    gap_at: tuple[float, float]  # (x1, gap) where |gap| is smallest


# The default options of separatrix launches and of the manifold trace.
_LAUNCH_OPTIONS = IntegratorOptions(horizon=500.0)


@dataclass(frozen=True)
class SeparatrixOptions:
    probes: int = 12
    probe_span: tuple[float, float] = (0.05, 0.95)  # fractions of a1/b1
    # the launches' options; rel_tol / 10 is also the bisection width
    integrator: IntegratorOptions = _LAUNCH_OPTIONS

    def __post_init__(self):
        if self.probes < 2:
            raise DomainError(f"need at least 2 probes, got {self.probes!r}")
        lo, hi = self.probe_span
        if not (0.0 < lo < hi < 1.0):
            raise DomainError("probe_span fractions must satisfy 0 < lo < hi < 1")


def psi(x1: float, p: ModelParams) -> float:
    """Prey nullcline ordinate for m2 = 1:  psi(x1) = x1*f(x1) / (w0*g(r*x1)).

    For general m2 the nullcline is psi(x1)**(1/m2); see prey_nullcline.
    Defined on (0, a1/b1]; the limit at 0+ is 0 for m1 < 1 and a1*d/(w0*r)
    at m1 = 1, but the endpoint itself divides by g = 0.
    """
    if not (0.0 < x1 <= p.carrying_capacity):
        raise DomainError(f"psi needs x1 in (0, a1/b1], got {x1!r}")
    return x1 * eval_f(x1, p) / (p.w0 * _response(x1, p.r, p.d, p.m1))


def _nullcline_x2(x1: float, p: ModelParams) -> float:
    """The prey nullcline's ordinate psi(x1)**(1/m2)."""
    v = psi(x1, p)
    return v if p.m2 == 1.0 else v ** (1.0 / p.m2)


def prey_nullcline(p: ModelParams, n: int = 256) -> PlanarCurve:
    """Sample the interior prey nullcline x2 = psi(x1)**(1/m2) at n evenly
    spaced x1 from 1e-6*a1/b1 to a1/b1."""
    cap = p.carrying_capacity
    lo, hi = 1e-6 * cap, cap
    if n < 2:
        raise DomainError("need n >= 2 sample points")
    pts = []
    for i in range(n):
        x1 = lo + (hi - lo) * i / (n - 1)
        pts.append(State(x1, _nullcline_x2(x1, p)))
    return PlanarCurve(CurveLabel.PREY_NULLCLINE, tuple(pts))


def predator_nullcline(p: ModelParams, x2_max: float, n: int = 2) -> PlanarCurve:
    """The vertical interior predator nullcline (m2 = 1 closed form)."""
    from .equilibria import predator_nullcline_x1

    x1 = predator_nullcline_x1(p)
    if x2_max <= 0.0 or n < 2:
        raise DomainError("need x2_max > 0 and n >= 2")
    pts = tuple(State(x1, x2_max * i / (n - 1)) for i in range(n))
    return PlanarCurve(CurveLabel.PREDATOR_NULLCLINE, pts)


# The manifold's seed lies this fraction of a1/b1 off E1.
_E1_SEED_SCALE = 1e-6


def trace_unstable_manifold_E1(
    p: ModelParams,
    opts: IntegratorOptions = _LAUNCH_OPTIONS,
) -> PlanarCurve:
    """Integrate the first leg of the unstable manifold of E1 = (a1/b1, 0)
    into the interior.

    Requires m2 = 1 (E1 linearizable) and E1 a saddle.  The seed steps
    _E1_SEED_SCALE * a1/b1 off E1 along the unstable eigenvector, oriented
    into the open quadrant.  The run ends at the first accepted state whose
    x1 is not below the one before it (the leg's first turn, the last point
    of the curve), at the prey-extinction event, past x1 + x2 > 1e6 *
    max(1, a1/b1), or at the horizon of opts.  The curve is then the
    descending leg separatrix_relative_position reads, plus at most the one
    state that ends it.
    """
    e1 = predator_free_equilibrium(p)
    if e1.classification.name == "NON_LINEARIZABLE":
        raise DomainError("E1 is not linearizable (m2 < 1); no manifold to trace")
    if e1.det is None or e1.det >= 0.0:
        raise DomainError("E1 is not a saddle for these parameters")
    # J(E1) is upper triangular: [[-a1, j12], [0, j22]] with j22 > 0 the
    # unstable eigenvalue.  Eigenvector: (j12 / (j22 - j11), 1).
    from .equilibria import jacobian

    (j11, j12), (_, j22) = jacobian(e1.point, p)
    v1 = j12 / (j22 - j11)
    v2 = 1.0
    nrm = math.hypot(v1, v2)
    v1, v2 = v1 / nrm, v2 / nrm
    if v2 < 0.0:
        v1, v2 = -v1, -v2
    cap = p.carrying_capacity
    seed = State(e1.point.x1 + _E1_SEED_SCALE * cap * v1,
                 e1.point.x2 + _E1_SEED_SCALE * cap * v2)
    guard_cap = 1e6 * max(1.0, cap)
    last_x1 = math.inf

    def turned_or_escaped(t: float, x1: float, x2: float, dx1: float, dx2: float) -> bool:
        nonlocal last_x1
        if not x1 < last_x1 or x1 + x2 > guard_cap:
            return True
        last_x1 = x1
        return False

    traj = integrate(p, seed, opts, stop_when=turned_or_escaped)
    if traj.termination is not None and traj.termination.kind is TerminationKind.STEP_FAILURE:
        raise DomainError(f"manifold trace failed: {traj.termination.reason}")
    return PlanarCurve(CurveLabel.UNSTABLE_MANIFOLD_E1, tuple(traj.states))


# --------------------------------------------------------------------------
# Stable set of the origin.

_ABOVE = "above"
_BELOW = "below"

# The search for an ABOVE launch gives up above this multiple of max(K2, 1).
_X2_CAP_FACTOR = 1e3


def _turned(t: float, x1: float, x2: float, dx1: float, dx2: float) -> bool:
    return dx1 > 0.0


def _classify_launch(p: ModelParams, x1_0: float, x2_0: float,
                     iopts: IntegratorOptions) -> str:
    """ABOVE: prey decays monotonically into the extinction event.
    BELOW: a turnaround (dx1/dt > 0 at an accepted state, read off the
    integrator's own derivative) or survival to the horizon."""
    traj = integrate(p, State(x1_0, x2_0), iopts, stop_when=_turned)
    kind = traj.termination.kind
    if kind is TerminationKind.PREY_EXTINCT:
        return _ABOVE
    if kind in (TerminationKind.STOPPED, TerminationKind.HORIZON_REACHED,
                TerminationKind.PREDATOR_EXTINCT):
        return _BELOW
    raise DomainError(f"launch classification failed: {traj.termination!r}")


def _trace_to_probe(p: ModelParams, probe_x1: float, opts: IntegratorOptions) -> float:
    """Integrate the boundary orbit backward from S = (thr, psi(thr)**(1/m2)),
    thr the extinction threshold, until x1 reaches probe_x1, and return x2
    there.  The run is made in the chart y = x1**(1-m1) (make_y_rhs), where
    the field is smooth at the prey axis the orbit starts next to, from
    (thr**(1-m1), psi(thr)**(1/m2)), at half opts.rel_tol.  It stops at the
    first accepted state with y >= probe_x1**(1-m1).  y = probe_x1**(1-m1) is
    located on that last step by the step's own continuous extension (the
    cubic Hermite on the integrator's derivatives plus the Dormand-Prince
    quartic term, `_dense_term`), and x2 is read there: the cubic alone
    left errors up to 5.6e-6 on the fan probes of a random draw of the
    domain, the extension 1.7e-7.  NaN if y stops increasing first (the
    orbit turns back, as when it spirals into a focus) or the run ends any
    other way.  Needs m1 < 1."""
    thr = opts.extinction_threshold
    if not thr < probe_x1:
        return math.nan
    try:
        seed = _nullcline_x2(thr, p)
    except OverflowError:
        return math.nan
    k = 1.0 - p.m1
    target = probe_x1 ** k
    # the field at the last two accepted states: the extension's ends
    before = last = (math.nan, math.nan)

    def reached(t: float, y: float, x2: float, dy: float, dx2: float) -> bool:
        nonlocal before, last
        before, last = last, (dy, dx2)
        return y >= target or (t > 0.0 and not dy > 0.0)

    f = make_y_rhs(p)
    traj = _run(f, (thr ** k, seed), replace(opts, rel_tol=0.5 * opts.rel_tol),
                (False, False), reached, None, -1.0)
    if traj.termination.kind is not TerminationKind.STOPPED or traj.x1[-1] < target:
        return math.nan
    h = traj.times[-1] - traj.times[-2]
    (a1, a2), (b1, b2) = before, last
    u0, u1, v0, v1 = traj.x1[-2], traj.x1[-1], traj.x2[-2], traj.x2[-1]
    # the run steps the field with the step negated: so does its extension
    c1, c2 = _dense_term(f, (u0, v0), (-a1, -a2), (-b1, -b2), -h)
    lo, hi = 0.0, 1.0  # y < target at lo, y >= target at hi
    while hi - lo > 1e-15:
        th = 0.5 * (lo + hi)
        if _dense_value(th, u0, u1, h * a1, h * b1, c1) < target:
            lo = th
        else:
            hi = th
    th = 0.5 * (lo + hi)
    return _dense_value(th, v0, v1, h * a2, h * b2, c2)


def _require_fractional_m1(p: ModelParams) -> None:
    if p.m1 >= 1.0:
        raise DomainError("the origin attracts no open set for m1 = 1; "
                          "no extinction separatrix to trace")


def _parts(p: ModelParams, probe_x1: float, lo: float, hi: float,
           opts: IntegratorOptions) -> bool:
    """True if the launch from (probe_x1, lo) is BELOW and the one from
    (probe_x1, hi) ABOVE; the second is made only if the first is BELOW."""
    return (_classify_launch(p, probe_x1, lo, opts) == _BELOW
            and _classify_launch(p, probe_x1, hi, opts) == _ABOVE)


# A traced ordinate y is returned once launches at y*(1 -+ this) part.  The
# margin covers the launches' own error near the threshold, which rel_tol / 10
# does not: on the bundled fans the plain bisection sits 1.5e-6, 1.8e-5 and
# 8.1e-5 from the trace at rel_tol 1e-8, 1e-7 and 1e-6.
_CERTIFY_MARGIN = 1e-4


def _bisect_probe(p: ModelParams, probe_x1: float, base: float,
                  opts: IntegratorOptions) -> float:
    """Bisect launch fates at the probe between a BELOW launch at x2 = lo
    and an ABOVE launch at x2 = hi, starting from lo = base / 2 and
    hi = max(2 * base, 1) doubled until ABOVE, until the bracket is
    opts.rel_tol / 10 wide relative or no float lies between its ends (as
    when the boundary rounds onto the prey axis); returns the midpoint."""
    ceiling = _X2_CAP_FACTOR * max(dissipative_bound_K2(p).K2, 1.0)
    width = opts.rel_tol / 10.0
    lo = 0.5 * base
    if _classify_launch(p, probe_x1, lo, opts) != _BELOW:
        lo = 0.0  # extremely flat nullcline; fall back to the axis
    hi = max(2.0 * base, 1.0)
    while _classify_launch(p, probe_x1, hi, opts) == _BELOW:
        lo, hi = hi, 2.0 * hi  # a certified BELOW launch: the new lower end
        if hi > ceiling:
            raise DomainError(
                f"no monotone-extinction launch found below x2 = {ceiling!r} "
                f"at probe x1 = {probe_x1!r}; stable set of the origin absent "
                "or outside the searched window")
    while True:
        mid = 0.5 * (lo + hi)  # no float between lo and hi: mid is one of them
        if not hi - lo > width * hi or mid == lo or mid == hi:
            return mid
        if _classify_launch(p, probe_x1, mid, opts) == _ABOVE:
            hi = mid
        else:
            lo = mid


def separatrix_boundary_x2(p: ModelParams, probe_x1: float,
                           opts: IntegratorOptions = _LAUNCH_OPTIONS) -> float:
    """The ordinate at abscissa probe_x1 of the boundary of monotone-decay
    extinction at the threshold thr = opts.extinction_threshold, each
    launch run with opts.  Needs m1 < 1: at m1 = 1 the origin attracts no
    open set, and this raises the DomainError trace_stable_separatrix_E0
    raises.  The first of three routes that applies gives it:

    1. traced: the backward run from S = (thr, psi(thr)**(1/m2)) to the
       probe (`_trace_to_probe`, in the chart y = x1**(1-m1) at half
       opts.rel_tol) gives y, and launches at y*(1 - 1e-4) and
       y*(1 + 1e-4) come out BELOW and ABOVE; y is returned;
    2. nullcline: launches at base*(1 -+ rel_tol / 10), base =
       psi(probe_x1)**(1/m2), come out BELOW and ABOVE (right of where the
       traced orbit turns back); base is returned;
    3. bisected: the plain probe bisection (`_bisect_probe`).
    """
    _require_fractional_m1(p)
    cap = p.carrying_capacity
    if not (0.0 < probe_x1 < cap):
        raise DomainError(f"probe must sit in (0, a1/b1), got {probe_x1!r}")
    y = _trace_to_probe(p, probe_x1, opts)
    if y > 0.0 and _parts(p, probe_x1, y * (1.0 - _CERTIFY_MARGIN),
                          y * (1.0 + _CERTIFY_MARGIN), opts):
        return y
    base = _nullcline_x2(probe_x1, p)
    step = opts.rel_tol / 10.0
    if _parts(p, probe_x1, base * (1.0 - step), base * (1.0 + step), opts):
        return base
    return _bisect_probe(p, probe_x1, base, opts)


def _probe_stations(p: ModelParams, opts: SeparatrixOptions) -> list[float]:
    lo_f, hi_f = opts.probe_span
    cap = p.carrying_capacity
    # geometric spacing: resolves the steep left end where the curve plunges
    ratio = (hi_f / lo_f) ** (1.0 / (opts.probes - 1))
    return [cap * lo_f * ratio ** i for i in range(opts.probes)]


def trace_stable_separatrix_E0(
    p: ModelParams,
    probe_x1: list[float] | None = None,
    opts: SeparatrixOptions = SeparatrixOptions(),
) -> PlanarCurve:
    """Assemble the stable set of the origin probe by probe, each ordinate
    from the first of separatrix_boundary_x2's three routes that applies:
    the backward trace from the threshold, the prey nullcline, or the
    launch bisection.

    probe_x1 is an explicit list of at least 2 abscissae, or None for the
    default geometric fan of opts.probes.
    """
    _require_fractional_m1(p)
    if probe_x1 is None:
        stations = _probe_stations(p, opts)
    else:
        stations = sorted(float(v) for v in probe_x1)
        if len(stations) < 2:
            raise DomainError(f"need at least 2 probes, got {len(stations)}")

    ys = [separatrix_boundary_x2(p, x, opts.integrator) for x in stations]
    return PlanarCurve(CurveLabel.STABLE_SEPARATRIX_E0,
                       tuple(State(x, y) for x, y in zip(stations, ys)))


def _descending_prefix(points: tuple[State, ...]) -> list[State]:
    """Longest prefix along which x1 strictly decreases (the first leg of a
    manifold trace, before any spiral turns it back)."""
    out = [points[0]]
    for s in points[1:]:
        if s.x1 < out[-1].x1:
            out.append(s)
        else:
            break
    return out


def _interp(xs: list[float], ys: list[float], x: float) -> float:
    """Piecewise-linear interpolation on ascending xs (no extrapolation)."""
    if not xs[0] <= x <= xs[-1]:
        raise DomainError(f"interpolation point {x!r} outside [{xs[0]!r}, {xs[-1]!r}]")
    lo, hi = 0, len(xs) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if xs[mid] <= x:
            lo = mid
        else:
            hi = mid
    t = (x - xs[lo]) / (xs[hi] - xs[lo]) if xs[hi] > xs[lo] else 0.0
    return ys[lo] + t * (ys[hi] - ys[lo])


# Stations of the separatrix comparison grid over the shared x1 range.
_COMPARE_GRID = 200


def separatrix_relative_position(ws: PlanarCurve, wu: PlanarCurve) -> SeparatrixComparison:
    """Compare W^s(E0) and (the first descending leg of) W^u(E1) as graphs
    over their shared x1 range.  Verdict is CROSSING iff the vertical gap
    ws - wu changes sign on the _COMPARE_GRID stations."""
    if ws.label is not CurveLabel.STABLE_SEPARATRIX_E0:
        raise DomainError("first curve must be the stable separatrix of E0")
    if wu.label is not CurveLabel.UNSTABLE_MANIFOLD_E1:
        raise DomainError("second curve must be the unstable manifold of E1")

    leg = _descending_prefix(wu.points)
    if len(leg) < 2:
        raise DomainError("unstable manifold has no descending leg to compare")
    leg.reverse()  # ascending x1
    wu_x, wu_y = [s.x1 for s in leg], [s.x2 for s in leg]

    ws_pts = sorted(ws.points, key=lambda s: s.x1)
    ws_x, ws_y = [s.x1 for s in ws_pts], [s.x2 for s in ws_pts]

    lo = max(ws_x[0], wu_x[0])
    hi = min(ws_x[-1], wu_x[-1])
    if not lo < hi:
        raise DomainError(
            f"curves share no x1 range: ws on [{ws_x[0]!r}, {ws_x[-1]!r}], "
            f"wu leg on [{wu_x[0]!r}, {wu_x[-1]!r}]")

    best: tuple[float, float] | None = None
    saw_pos = saw_neg = False
    n = _COMPARE_GRID
    for i in range(n):
        # the last station is hi itself: the formula can round one ulp past it
        x = hi if i == n - 1 else lo + (hi - lo) * i / (n - 1)
        gap = _interp(ws_x, ws_y, x) - _interp(wu_x, wu_y, x)
        if gap > 0.0:
            saw_pos = True
        elif gap < 0.0:
            saw_neg = True
        if best is None or abs(gap) < abs(best[1]):
            best = (x, gap)
    if saw_pos and saw_neg:
        verdict = Verdict.CROSSING
    elif saw_pos:
        verdict = Verdict.WS_ABOVE_WU
    elif saw_neg:
        verdict = Verdict.WU_ABOVE_WS
    else:
        verdict = Verdict.CROSSING  # identically zero gap: treat as touching
    return SeparatrixComparison(verdict, abs(best[1]), (lo, hi), best)
