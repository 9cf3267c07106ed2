"""Phase-plane geometry: nullclines, the unstable manifold of E1, and the
stable set of the origin ("extinction separatrix").

For m1 < 1 the origin attracts a full open set in finite time and the
boundary of that basin is the curve of interest.  Persistence-to-horizon is
the wrong classifier for it: there are parameter regimes (e.g. a1 = 2,
b1 = 0.21 on the otherwise-standard set) where *every* interior orbit dies
in finite time, yet the basin boundary of "dies while prey decays
monotonically" is still well defined.  The classifier used here stops a
launch at its first turnaround, an accepted state with dx1/dt > 0 (the
derivative the integrator hands its stop predicate: no field evaluation),
and reads its end by integrate._prey_died, the package's one fate rule:

  * ABOVE the stable set iff the prey died, x1 falling monotonically into
    the prey-extinction event;
  * BELOW on a turnaround, or at the horizon;
  * any other end (a step failure) raises DomainError.

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
onto it), certified by two launches 1e-4 either side.  All three run in the
chart y = x1**(1-m1) (integrate._y_chart, built once per probe) at half
rel_tol: the field is smooth at the prey axis there, so no absolute
tolerance far below thr is needed.  The backward run ends at the probe's y,
located on the step's continuous extension; a launch is the fate run of
extinction and persistence too (integrate._fate_run), whose prey event y =
thr**(1-m1) is x1 = thr: the certified object is the thresholded
boundary.  Where that orbit turns back before the probe and the fates part
at the nullcline itself, the nullcline ordinate is the answer; otherwise
bisection in the launch ordinate x2 brackets the boundary until it is
rel_tol / 10 wide relative (rel_tol is the one accuracy setting) or no
float lies between its ends, as when the boundary rounds onto the prey
axis.  A fan of probes assembles the curve.
At m1 = 1 the origin attracts no open set and the chart does not exist:
the fan and each probe refuse with DomainError.

Which side of this curve E1's unstable manifold leaves on needs no curve:
orbits of a planar flow cannot cross, so the verdict is the fate of E1's
leaving orbit under the same classifier (PlanarCurve.end), its run the
launches' own fate run and turnaround test; the probes measure only its
margin, each read where the leg, in run order, first crosses the probe.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

from .equilibria import jacobian, predator_nullcline_x1
from .extinction import dissipative_bound_K2
# integrate and make_rhs are unused here; they stay for the bench trace shim
from .integrate import (IntegratorOptions, Termination, TerminationKind, _fate_run,  # noqa: F401
                        _in_x1, _prey_died, _run, _y_chart, integrate)
from .model import DomainError, ModelParams, State, _response, eval_f, make_rhs  # noqa: F401

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
    # how the one run that traced it ended; None for the fan and the
    # nullclines, assembled from separate computations
    end: Termination | None = None
    # the leg's chart (integrate._y_chart), to read it off its own steps
    chart: tuple | None = field(default=None, repr=False, compare=False)

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


@dataclass(frozen=True)
class SeparatrixComparison:
    """The verdict, and the fan against the leg at its probes.  Each probe
    reads the leg on its own steps, so the margin has the run's accuracy:
    on OSC, ENRICHED and ENRICHED r = 0.3 it lies within 3.9e-7, 8.2e-9
    and 1.8e-9 relative of a tight scipy leg's margin, at the same probe."""

    verdict: Verdict       # the fate of E1's leaving orbit
    margin: float          # least |ws - wu| over the probes in x1_range
    x1_range: tuple[float, float]
    gap_at: tuple[float, float]  # (x1, ws - wu) at the probe of least |gap|
    contradicted: int      # probes in x1_range whose gap lacks the verdict's sign


# The default options of separatrix launches and of the manifold trace.
_LAUNCH_OPTIONS = IntegratorOptions(horizon=500.0)


@dataclass(frozen=True)
class SeparatrixOptions:
    probes: int = 12
    probe_span: tuple[float, float] = (0.05, 0.95)  # fractions of a1/b1
    # the probes' options; rel_tol / 10 is also the bisection width
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
    x1 = predator_nullcline_x1(p)
    if x2_max <= 0.0 or n < 2:
        raise DomainError("need x2_max > 0 and n >= 2")
    pts = tuple(State(x1, x2_max * i / (n - 1)) for i in range(n))
    return PlanarCurve(CurveLabel.PREDATOR_NULLCLINE, pts)


# The manifold's seed lies this fraction of a1/b1 off E1.
_E1_SEED_SCALE = 1e-6
# The leg runs at most this multiple of the options' horizon: E1's unstable
# eigenvalue sets the time it takes to leave E1, and near E1's
# transcritical point that time has no bound.
_E1_HORIZON_FACTOR = 10.0


def trace_unstable_manifold_E1(
    p: ModelParams,
    opts: IntegratorOptions = _LAUNCH_OPTIONS,
) -> PlanarCurve:
    """Integrate the first leg of the unstable manifold of E1 = (a1/b1, 0)
    into the interior.

    Requires m2 = 1 (E1 linearizable) and E1 a saddle.  The seed steps
    _E1_SEED_SCALE * a1/b1 off E1 along the unstable eigenvector, oriented
    into the open quadrant.  The run is the launches' own fate run
    (integrate._fate_run, its x1 column mapped back from y = x1**(1-m1))
    stopped by their test, `_turned`: it ends at the leg's first turn, the
    first accepted state with dx1/dt > 0 (the curve's last point), at the
    prey-extinction event, or at the horizon; `end` keeps the run's
    Termination, whose fate separatrix_relative_position reads, and `chart`
    its chart (m1 < 1), in which the probes read it.  No guard is needed:
    Q = x1 + (w0/w1)*x2 keeps x2 <= (w1/w0)*max(Q(0), W1/a2) on every run.

    The seed's offset grows like exp(lu*t), lu being E1's unstable
    eigenvalue, so the leg takes about ln(1/_E1_SEED_SCALE)/lu to leave
    E1; the horizon is max(opts.horizon, (ln(1/_E1_SEED_SCALE) + 20)/lu).
    Where that exceeds _E1_HORIZON_FACTOR * opts.horizon (lu near 0, close
    to E1's transcritical point), DomainError names lu.
    """
    cap = p.carrying_capacity
    try:
        (j11, j12), (j21, j22) = jacobian(State(cap, 0.0), p)
    except DomainError:
        raise DomainError("E1 is not linearizable (m2 < 1); no manifold to trace") from None
    if j11 * j22 - j12 * j21 >= 0.0:
        raise DomainError("E1 is not a saddle for these parameters")
    # J(E1) is upper triangular: [[-a1, j12], [0, j22]] with j22 > 0 the
    # unstable eigenvalue.  Eigenvector: (j12 / (j22 - j11), 1), whose
    # positive x2 points into the open quadrant.
    v1 = j12 / (j22 - j11)
    nrm = math.hypot(v1, 1.0)
    v1, v2 = v1 / nrm, 1.0 / nrm
    seed = State(cap + _E1_SEED_SCALE * cap * v1, _E1_SEED_SCALE * cap * v2)
    horizon = max(opts.horizon, (math.log(1.0 / _E1_SEED_SCALE) + 20.0) / j22)
    if horizon > _E1_HORIZON_FACTOR * opts.horizon:
        raise DomainError(
            f"E1's unstable eigenvalue {j22!r} is too small: its leg needs about "
            f"{horizon:.6g} time units to leave E1, past {_E1_HORIZON_FACTOR:g} times "
            f"the horizon {opts.horizon!r}")
    opts = replace(opts, horizon=horizon)
    chart = _y_chart(p, opts) if p.m1 < 1.0 else None
    traj = _in_x1(p, _fate_run(p, seed, opts, _turned, chart))
    _prey_died(traj.termination)  # a leg that decides no fate raises here
    return PlanarCurve(CurveLabel.UNSTABLE_MANIFOLD_E1, tuple(traj.states), traj.termination,
                       chart)


# --------------------------------------------------------------------------
# Stable set of the origin.

# The search for an ABOVE launch gives up above this multiple of max(K2, 1).
_X2_CAP_FACTOR = 1e3


def _turned(t: float, x1: float, x2: float, dx1: float, dx2: float) -> bool:
    return dx1 > 0.0


def _classify_launch(p: ModelParams, x1_0: float, x2_0: float,
                     iopts: IntegratorOptions, chart) -> bool:
    """_prey_died on the fate run (integrate._fate_run, in `chart`) stopped
    at a turnaround (dy/dt > 0 at an accepted state, read off the run's own
    derivative): True (ABOVE) if the prey falls monotonically into the
    extinction event, False (BELOW) if it turns or survives to the horizon."""
    return _prey_died(_fate_run(p, State(x1_0, x2_0), iopts, _turned, chart).termination)


def _turned_back(t: float, y: float, x2: float, dy: float, dx2: float) -> bool:
    return t > 0.0 and not dy > 0.0


def _trace_to_probe(p: ModelParams, probe_x1: float, opts: IntegratorOptions,
                    chart) -> float:
    """Integrate the boundary orbit backward from S = (thr, psi(thr)**(1/m2)),
    thr the extinction threshold, until x1 reaches probe_x1, and return x2
    there.  The run is made in `chart`, integrate._y_chart(p, opts), from
    (thr**(1-m1), psi(thr)**(1/m2)) with the ceiling y = probe_x1**(1-m1):
    the loop locates that crossing on the step's continuous extension and
    reads x2 there.  NaN if y stops increasing first (the orbit turns back,
    as when it spirals into a focus) or the run ends any other way.  Needs
    m1 < 1."""
    thr = opts.extinction_threshold
    if not thr < probe_x1:
        return math.nan
    try:
        seed = _nullcline_x2(thr, p)
    except OverflowError:
        return math.nan
    f, yopts, k = chart
    traj = _run(f, (thr ** k, seed), yopts, _turned_back, ceiling=probe_x1 ** k, sign=-1.0)
    if traj.termination.kind is not TerminationKind.BLOWUP:
        return math.nan
    return traj.x2[-1]


def _require_fractional_m1(p: ModelParams) -> None:
    if p.m1 >= 1.0:
        raise DomainError("the origin attracts no open set for m1 = 1; "
                          "no extinction separatrix to trace")


def _parts(p: ModelParams, probe_x1: float, lo: float, hi: float,
           opts: IntegratorOptions, chart) -> bool:
    """True if the launch from (probe_x1, lo) is BELOW and the one from
    (probe_x1, hi) ABOVE; the second is made only if the first is BELOW."""
    return (not _classify_launch(p, probe_x1, lo, opts, chart)
            and _classify_launch(p, probe_x1, hi, opts, chart))


# A traced ordinate y is returned once launches at y*(1 -+ this) part.  The
# margin covers the launches' own error near the threshold, which rel_tol / 10
# does not: on the bundled fans the plain bisection sits 1.7e-6, 1.3e-5 and
# 6.2e-5 from the trace at rel_tol 1e-8, 1e-7 and 1e-6.
_CERTIFY_MARGIN = 1e-4


def _bisect_probe(p: ModelParams, probe_x1: float, base: float,
                  opts: IntegratorOptions, chart) -> float:
    """Bisect launch fates at the probe between a BELOW launch at x2 = lo
    and an ABOVE launch at x2 = hi, starting from lo = base / 2 and
    hi = max(2 * base, 1) doubled until ABOVE, until the bracket is
    opts.rel_tol / 10 wide relative or no float lies between its ends (as
    when the boundary rounds onto the prey axis); returns the midpoint."""
    ceiling = _X2_CAP_FACTOR * max(dissipative_bound_K2(p).K2, 1.0)
    width = opts.rel_tol / 10.0
    lo = 0.5 * base
    if _classify_launch(p, probe_x1, lo, opts, chart):
        lo = 0.0  # extremely flat nullcline; fall back to the axis
    hi = max(2.0 * base, 1.0)
    while not _classify_launch(p, probe_x1, hi, opts, chart):
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
        if _classify_launch(p, probe_x1, mid, opts, chart):
            hi = mid
        else:
            lo = mid


def separatrix_boundary_x2(p: ModelParams, probe_x1: float,
                           opts: IntegratorOptions = _LAUNCH_OPTIONS) -> float:
    """The ordinate at abscissa probe_x1 of the boundary of monotone-decay
    extinction at the threshold thr = opts.extinction_threshold, each run
    made in one `_y_chart`.  Needs m1 < 1: at m1 = 1 the origin attracts no
    open set, and this raises the DomainError trace_stable_separatrix_E0
    raises.  The first of three routes that applies gives it:

    1. traced: the backward run from S = (thr, psi(thr)**(1/m2)) to the
       probe (`_trace_to_probe`) gives y, and launches at y*(1 - 1e-4) and
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
    chart = _y_chart(p, opts)
    y = _trace_to_probe(p, probe_x1, opts, chart)
    if y > 0.0 and _parts(p, probe_x1, y * (1.0 - _CERTIFY_MARGIN),
                          y * (1.0 + _CERTIFY_MARGIN), opts, chart):
        return y
    base = _nullcline_x2(probe_x1, p)
    step = opts.rel_tol / 10.0
    if _parts(p, probe_x1, base * (1.0 - step), base * (1.0 + step), opts, chart):
        return base
    return _bisect_probe(p, probe_x1, base, opts, chart)


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


def _leg_x2(xs: list[float], ys: list[float], x1: float, chart) -> float | None:
    """x2 at x1 on the first segment of the run (xs, ys), in run order,
    whose ends bracket x1: the one into the first state at or past x1 from
    the run's start.  In the leg's chart, where a run from that segment's
    start, stopped by `_turned`, falls through y = x1**(1-m1), located on
    its step's continuous extension; else, or if it turns first, linear in
    x1 from the segment's smaller-x1 end.  None if the run never reaches x1."""
    if xs[0] >= x1:
        j = next((j for j, x in enumerate(xs) if x <= x1), None)
    else:
        j = next((j for j, x in enumerate(xs) if x >= x1), None)
    if j is None:
        return None
    b = max(j, 1)
    if chart is not None and xs[b - 1] > x1:
        f, yopts, k = chart
        run = _run(f, (xs[b - 1] ** k, ys[b - 1]), yopts, _turned, floor=x1 ** k)
        if run.termination.kind is TerminationKind.PREY_EXTINCT:
            return run.x2[-1]
    lo, hi = (b, b - 1) if xs[b] <= xs[b - 1] else (b - 1, b)
    t = (x1 - xs[lo]) / (xs[hi] - xs[lo]) if xs[hi] > xs[lo] else 0.0
    return ys[lo] + t * (ys[hi] - ys[lo])


def separatrix_relative_position(ws: PlanarCurve, wu: PlanarCurve) -> SeparatrixComparison:
    """Which side of the stable set W^s(E0) the unstable manifold W^u(E1)
    leaves on.  Orbits of a planar flow cannot cross, so the verdict is the
    fate of E1's leaving orbit, integrate._prey_died(wu.end): a prey that
    died is WU_ABOVE_WS; an end outside that rule, or none, raises
    DomainError.
    ws is compared only at its own probes in wu's x1 range, each read
    (_leg_x2) at the first segment of wu, in run order, that brackets it:
    the margin is the least |ws - wu|, and `contradicted` counts the
    probes whose gap lacks the verdict's sign."""
    if ws.label is not CurveLabel.STABLE_SEPARATRIX_E0:
        raise DomainError("first curve must be the stable separatrix of E0")
    if wu.label is not CurveLabel.UNSTABLE_MANIFOLD_E1:
        raise DomainError("second curve must be the unstable manifold of E1")
    verdict = Verdict.WU_ABOVE_WS if _prey_died(wu.end) else Verdict.WS_ABOVE_WU

    ws_pts = sorted(ws.points, key=lambda s: s.x1)
    xs, ys = wu.x1s(), wu.x2s()
    gaps = [(s.x1, s.x2 - y) for s in ws_pts
            if (y := _leg_x2(xs, ys, s.x1, wu.chart)) is not None]
    lo, hi = min(xs), max(xs)
    if not gaps:
        raise DomainError(f"no probe of ws on [{ws_pts[0].x1!r}, {ws_pts[-1].x1!r}] "
                          f"lies in the wu leg's x1 range [{lo!r}, {hi!r}]")
    sign = 1.0 if verdict is Verdict.WS_ABOVE_WU else -1.0
    contradicted = sum(1 for _, gap in gaps if not sign * gap > 0.0)
    best = min(gaps, key=lambda g: abs(g[1]))
    x1_range = (max(ws_pts[0].x1, lo), min(ws_pts[-1].x1, hi))
    return SeparatrixComparison(verdict, abs(best[1]), x1_range, best, contradicted)
