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
orbits that stay above it can only march left; the boundary orbit is the one
that limits into the origin itself.  Bisection in the launch ordinate x2 at
a fixed prey abscissa (a "probe") then brackets the boundary point; a fan of
probes assembles the curve.

Launches that close to the boundary stay together until x1 is within a
decade or so of the extinction threshold, and near-boundary orbits turn
around just above it.  So whenever the bracket's BELOW orbit gets below the
next rung of a ladder of sections, x1 = thr*(1 + 10**k) for k = 8 down to
-1, the bisection moves to the deepest rung that orbit passed and continues
on the segment joining the two bracket orbits there, where a launch is
short.  The boundary point found on the last section is integrated
backward to the probe abscissa (backward in time, orbits near the boundary
converge onto it); orbits cannot cross, so it lands inside the probe's
bracket up to integration error, and it is returned only if it does.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from .equilibria import predator_free_equilibrium
from .extinction import dissipative_bound_K2
from .integrate import IntegratorOptions, TerminationKind, Trajectory, integrate
# make_rhs is unused here; it stays because the bench trace shim patches it
from .model import DomainError, ModelParams, State, eval_f, eval_g, make_rhs  # noqa: F401

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


@dataclass(frozen=True)
class SeparatrixOptions:
    probes: int = 12
    probe_span: tuple[float, float] = (0.05, 0.95)  # fractions of a1/b1
    bisect_rel_tol: float = 1e-8
    # the launches' options; its horizon bounds every launch
    integrator: IntegratorOptions = IntegratorOptions(
        rel_tol=1e-7, abs_tol=1e-9, horizon=500.0)

    def __post_init__(self):
        if self.probes < 2:
            raise DomainError(f"need at least 2 probes, got {self.probes!r}")
        lo, hi = self.probe_span
        if not (0.0 < lo < hi < 1.0):
            raise DomainError("probe_span fractions must satisfy 0 < lo < hi < 1")
        if not 0.0 < self.bisect_rel_tol < math.inf:
            raise DomainError("bad separatrix tolerances")


def psi(x1: float, p: ModelParams) -> float:
    """Prey nullcline ordinate for m2 = 1:  psi(x1) = x1*f(x1) / (w0*g(r*x1)).

    For general m2 the nullcline is psi(x1)**(1/m2); see prey_nullcline.
    Defined on (0, a1/b1]; the limit at 0+ is 0 for m1 < 1 and a1*d/(w0*r)
    at m1 = 1, but the endpoint itself divides by g = 0.
    """
    if not (0.0 < x1 <= p.carrying_capacity):
        raise DomainError(f"psi needs x1 in (0, a1/b1], got {x1!r}")
    return x1 * eval_f(x1, p) / (p.w0 * eval_g(p.r * x1, p))


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
        v = psi(x1, p)
        pts.append(State(x1, v if p.m2 == 1.0 else v ** (1.0 / p.m2)))
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
    opts: IntegratorOptions | None = None,
) -> PlanarCurve:
    """Integrate the unstable manifold of E1 = (a1/b1, 0) into the interior.

    Requires m2 = 1 (E1 linearizable) and E1 a saddle.  The seed steps
    _E1_SEED_SCALE * a1/b1 off E1 along the unstable eigenvector, oriented
    into the open quadrant.
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
    if opts is None:
        opts = IntegratorOptions(horizon=500.0)
    guard_cap = 1e6 * max(1.0, cap)
    traj = integrate(p, seed, opts,
                     stop_when=lambda t, x1, x2, dx1, dx2: x1 + x2 > guard_cap)
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
                     iopts: IntegratorOptions) -> tuple[str, Trajectory]:
    """ABOVE: prey decays monotonically into the extinction event.
    BELOW: a turnaround (dx1/dt > 0 at an accepted state, read off the
    integrator's own derivative) or survival to the horizon.  Returns the
    fate and the launch's trajectory."""
    traj = integrate(p, State(x1_0, x2_0), iopts, stop_when=_turned)
    kind = traj.termination.kind
    if kind is TerminationKind.PREY_EXTINCT:
        return _ABOVE, traj
    if kind in (TerminationKind.STOPPED, TerminationKind.HORIZON_REACHED,
                TerminationKind.PREDATOR_EXTINCT):
        return _BELOW, traj
    raise DomainError(f"launch classification failed: {traj.termination!r}")


# Sections at these multiples of the extinction threshold, thr*(1 + 10**k):
# turnarounds approach the threshold from above, so the rungs are geometric
# in x1/thr - 1.
_SECTION_LADDER = tuple(1.0 + 10.0 ** k for k in range(8, -2, -1))


def _last_at_or_above(traj: Trajectory, level: float) -> int:
    """Index of the last stored state with x1 >= level; the launch state
    must be one."""
    i = len(traj) - 1
    while traj.x1[i] < level:
        i -= 1
    return i


def _hermite(th: float, y0: float, y1: float, hf0: float, hf1: float) -> float:
    """Cubic Hermite interpolant on a step: values y0, y1 and step-scaled
    derivatives hf0, hf1 at its ends, evaluated at the fraction th."""
    return y0 + th * (hf0 + th * (3.0 * (y1 - y0) - 2.0 * hf0 - hf1
                                  + th * (2.0 * (y0 - y1) + hf0 + hf1)))


def _trace_to_probe(p: ModelParams, x1_0: float, x2_0: float, probe_x1: float,
                    iopts: IntegratorOptions) -> float:
    """Integrate backward from (x1_0, x2_0), x1_0 < probe_x1, until x1
    reaches probe_x1, and return x2 there, located on the last step by
    cubic Hermite on the integrator's own derivatives; NaN if the backward
    run ends any other way."""
    slopes: list[tuple[float, float]] = []

    def reached(t: float, x1: float, x2: float, dx1: float, dx2: float) -> bool:
        slopes.append((dx1, dx2))
        return x1 >= probe_x1

    traj = integrate(p, State(x1_0, x2_0), iopts, stop_when=reached, backward=True)
    if traj.termination.kind is not TerminationKind.STOPPED:
        return math.nan
    h = traj.times[-1] - traj.times[-2]
    (a1, a2), (b1, b2) = slopes[-2], slopes[-1]
    u0, u1, v0, v1 = traj.x1[-2], traj.x1[-1], traj.x2[-2], traj.x2[-1]
    lo, hi = 0.0, 1.0  # x1 < probe_x1 at lo, x1 >= probe_x1 at hi
    while hi - lo > 1e-15:
        th = 0.5 * (lo + hi)
        if _hermite(th, u0, u1, h * a1, h * b1) < probe_x1:
            lo = th
        else:
            hi = th
    return _hermite(0.5 * (lo + hi), v0, v1, h * a2, h * b2)


def separatrix_boundary_x2(p: ModelParams, probe_x1: float,
                           opts: SeparatrixOptions | None = None) -> float:
    """The ordinate at abscissa probe_x1 of the boundary of monotone-decay
    extinction.

    Launch fates are bisected between a BELOW launch at x2 = lo and an
    ABOVE launch at x2 = hi.  Whenever the bracket's BELOW orbit ends below
    the next rung of a ladder of sections x1 = L (`_SECTION_LADDER` times
    the extinction threshold, the rungs below probe_x1 from the top down),
    the bisection moves to the deepest rung that orbit passed: it goes on
    along the segment AB joining the two bracket orbits at their last
    states with x1 >= L, with the horizon left after the later of the two,
    so a launch starts just above the depth where fates part.  The halvings
    the probe bracket still needed at the first move are counted down
    across all later moves.  The midpoint of the final section bracket is
    integrated backward to x1 = probe_x1, and its ordinate there is
    returned if it lies inside the [lo, hi] that launches from the probe
    certified.  Orbits cannot cross, so it does up to the backward run's
    integration error; when it does not, or when the BELOW orbits never get
    below a rung, the bisection goes on at the probe and returns the final
    bracket midpoint.
    """
    if opts is None:
        opts = SeparatrixOptions()
    cap = p.carrying_capacity
    if not (0.0 < probe_x1 < cap):
        raise DomainError(f"probe must sit in (0, a1/b1), got {probe_x1!r}")
    base = psi(probe_x1, p) if p.m2 == 1.0 else psi(probe_x1, p) ** (1.0 / p.m2)
    k2 = dissipative_bound_K2(p).K2
    ceiling = _X2_CAP_FACTOR * max(k2, 1.0)

    iopts = opts.integrator
    lo = 0.5 * base
    fate, lo_traj = _classify_launch(p, probe_x1, lo, iopts)
    if fate != _BELOW:
        lo, lo_traj = 0.0, None  # extremely flat nullcline; fall back to the axis

    hi = max(2.0 * base, 1.0)
    fate, hi_traj = _classify_launch(p, probe_x1, hi, iopts)
    while fate == _BELOW:
        lo, lo_traj = hi, hi_traj  # a certified BELOW launch: the new lower end
        hi *= 2.0
        if hi > ceiling:
            raise DomainError(
                f"no monotone-extinction launch found below x2 = {ceiling!r} "
                f"at probe x1 = {probe_x1!r}; stable set of the origin absent "
                "or outside the searched window")
        fate, hi_traj = _classify_launch(p, probe_x1, hi, iopts)

    # One bisection on launches from (ax + s*ux, ay + s*uy), BELOW at s = lo
    # and ABOVE at s = hi.  On the probe line ax = probe_x1, ay = ux = 0 and
    # uy = 1, so s is the launch ordinate itself, bit for bit.  t0 is the
    # time from the probe to the current segment, lo_t0 and hi_t0 the same
    # for the segments the bracket orbits were launched from.
    ax, ay, ux, uy, launch_opts = probe_x1, 0.0, 0.0, 1.0, iopts
    t0 = lo_t0 = hi_t0 = 0.0
    thr = iopts.extinction_threshold
    rungs = [m * thr for m in _SECTION_LADDER if m * thr < probe_x1]
    probe_bracket = None  # the probe's (lo, hi) while a section is bisected
    halvings = 0
    while True:
        if probe_bracket is None:
            if not hi - lo > opts.bisect_rel_tol * hi:
                return 0.5 * (lo + hi)
        elif halvings == 0:
            s = 0.5 * (lo + hi)
            y = _trace_to_probe(p, ax + s * ux, ay + s * uy, probe_x1, iopts)
            (lo, hi), probe_bracket = probe_bracket, None
            if lo <= y <= hi:
                return y
            # the trace left the certified bracket: go on at the probe
            ax, ay, ux, uy, launch_opts = probe_x1, 0.0, 0.0, 1.0, iopts
            rungs = []
            continue
        if rungs and lo_traj is not None and lo_traj.x1[-1] < rungs[0]:
            # move to the deepest rung the BELOW orbit passed: above it dx1 < 0
            # between the bracket orbits, which no orbit crosses, so every
            # orbit from the current segment crosses the new one
            passed = [L for L in rungs if lo_traj.x1[-1] < L]
            level, rungs = passed[-1], rungs[len(passed):]
            i = _last_at_or_above(lo_traj, level)
            j = _last_at_or_above(hi_traj, level)
            ax, ay = lo_traj.x1[i], lo_traj.x2[i]
            ux, uy = hi_traj.x1[j] - ax, hi_traj.x2[j] - ay
            # from a section, BELOW at the horizon means what it meant
            # from the probe
            t0 = max(lo_t0 + lo_traj.times[i], hi_t0 + hi_traj.times[j])
            launch_opts = replace(iopts, horizon=iopts.horizon - t0)
            if probe_bracket is None:
                halvings = math.ceil(math.log2((hi - lo) / (opts.bisect_rel_tol * hi)))
                probe_bracket = (lo, hi)
            lo, hi = 0.0, 1.0
            continue
        if probe_bracket is not None:
            halvings -= 1
        mid = 0.5 * (lo + hi)
        fate, traj = _classify_launch(p, ax + mid * ux, ay + mid * uy, launch_opts)
        if fate == _ABOVE:
            hi, hi_traj, hi_t0 = mid, traj, t0
        else:
            lo, lo_traj, lo_t0 = mid, traj, t0


def _probe_stations(p: ModelParams, opts: SeparatrixOptions) -> list[float]:
    lo_f, hi_f = opts.probe_span
    cap = p.carrying_capacity
    # geometric spacing: resolves the steep left end where the curve plunges
    ratio = (hi_f / lo_f) ** (1.0 / (opts.probes - 1))
    return [cap * lo_f * ratio ** i for i in range(opts.probes)]


def trace_stable_separatrix_E0(
    p: ModelParams,
    probe_x1: list[float] | None = None,
    opts: SeparatrixOptions | None = None,
) -> PlanarCurve:
    """Assemble the stable set of the origin from per-probe bisections.

    probe_x1 is an explicit list of at least 2 abscissae, or None for the
    default geometric fan of opts.probes.
    """
    if opts is None:
        opts = SeparatrixOptions()
    if p.m1 >= 1.0:
        raise DomainError("the origin attracts no open set for m1 = 1; "
                          "no extinction separatrix to trace")
    if probe_x1 is None:
        stations = _probe_stations(p, opts)
    else:
        stations = sorted(float(v) for v in probe_x1)
        if len(stations) < 2:
            raise DomainError(f"need at least 2 probes, got {len(stations)}")

    ys = [separatrix_boundary_x2(p, x, opts) for x in stations]
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
