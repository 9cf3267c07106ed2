"""Adaptive Dormand-Prince 5(4) integration with axis-extinction events.

The stepper is written out against plain floats for the 2D system -- the
separatrix and sweep machinery runs tens of thousands of short integrations,
and scalar arithmetic keeps each step in the microsecond range.  Error
control is the usual embedded-pair estimate with a PI controller; dense
output is linear on each accepted step, which is all the event localization
needs at the tolerances used here.

Events watch for *downward* crossings of a small threshold by a state
component.  An event is armed only if its component starts above threshold
(and re-arms if the component later climbs above twice the threshold), so an
initial condition sitting on an axis integrates as the constant/on-axis
solution instead of reporting extinction at t = 0.  The predator event
exists only for m2 < 1: with m2 = 1 the axis is reached only as t -> inf and
a threshold crossing would misreport a finite extinction time.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .model import DomainError, ModelParams, State, make_rhs, make_u_rhs

__all__ = [
    "IntegratorOptions",
    "TerminationKind",
    "Termination",
    "Trajectory",
    "integrate",
    "integrate_u_system",
    "U_BLOWUP_CEILING",
]

U_BLOWUP_CEILING = 1e12


class TerminationKind(enum.Enum):
    HORIZON_REACHED = "horizon_reached"
    PREY_EXTINCT = "prey_extinct"
    PREDATOR_EXTINCT = "predator_extinct"
    BLOWUP = "blowup"
    STEP_FAILURE = "step_failure"
    STOPPED = "stopped"  # stop_when predicate fired (coarse, not localized)


@dataclass(frozen=True)
class Termination:
    kind: TerminationKind
    time: float
    reason: str = ""


@dataclass(frozen=True)
class IntegratorOptions:
    rel_tol: float = 1e-7
    abs_tol: float = 1e-9
    max_step: float = 1.0
    min_step: float = 1e-12
    horizon: float = 200.0
    extinction_threshold: float = 1e-9
    event_time_rel_tol: float = 1e-10  # event time localized to this * t

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise DomainError("tolerances must be positive")
        if not (0.0 < self.min_step < self.max_step):
            raise DomainError("need 0 < min_step < max_step")
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise DomainError("horizon must be positive and finite")
        if not (0.0 < self.extinction_threshold < 1.0):
            raise DomainError("extinction_threshold must lie in (0, 1)")


@dataclass
class Trajectory:
    times: list[float] = field(default_factory=list)
    states: list[State] = field(default_factory=list)
    termination: Termination | None = None

    @property
    def final_time(self) -> float:
        return self.times[-1]

    @property
    def final_state(self) -> State:
        return self.states[-1]

    def __len__(self) -> int:
        return len(self.times)


# Dormand-Prince 5(4) tableau (FSAL: the 7th stage is the next step's first).
_C2, _C3, _C4, _C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0,
)
_A71, _A73, _A74, _A75, _A76 = (
    35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0,
)
# error weights b5 - b4
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0,
    -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0,
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
# PI controller exponents (order p = 5)
_BETA1 = 0.7 / 5.0
_BETA2 = 0.4 / 5.0


class _Event:
    """Downward threshold crossing on one component, with arming logic."""

    __slots__ = ("index", "threshold", "kind", "armed")

    def __init__(self, index: int, threshold: float, kind: TerminationKind):
        self.index = index
        self.threshold = threshold
        self.kind = kind
        self.armed = False

    def arm_for(self, value: float) -> None:
        self.armed = value > self.threshold

    def update_arming(self, value: float) -> None:
        if not self.armed and value > 2.0 * self.threshold:
            self.armed = True


def _initial_step(f, y1, y2, opts: IntegratorOptions, direction_cap: float) -> float:
    # Hairer-style two-phase guess, simplified for 2 components.
    f1, f2 = f(y1, y2)
    sc1 = opts.abs_tol + opts.rel_tol * abs(y1)
    sc2 = opts.abs_tol + opts.rel_tol * abs(y2)
    d0 = math.sqrt(0.5 * ((y1 / sc1) ** 2 + (y2 / sc2) ** 2))
    d1 = math.sqrt(0.5 * ((f1 / sc1) ** 2 + (f2 / sc2) ** 2))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    return max(opts.min_step, min(h0, opts.max_step, direction_cap))


def _run(
    f: Callable[[float, float], tuple[float, float]],
    ic: tuple[float, float],
    opts: IntegratorOptions,
    events: Sequence[_Event],
    stop_when: Callable[[float, State], bool] | None,
    blowup_ceiling: float | None,
) -> Trajectory:
    """Core loop shared by the x-system and the u-chart."""
    t = 0.0
    y1, y2 = ic
    traj = Trajectory()
    traj.times.append(t)
    traj.states.append(State(y1, y2))

    for ev in events:
        ev.arm_for((y1, y2)[ev.index])

    if stop_when is not None and stop_when(t, traj.states[-1]):
        traj.termination = Termination(TerminationKind.STOPPED, t)
        return traj

    h = _initial_step(f, y1, y2, opts, opts.horizon)
    try:
        k1, k2 = f(y1, y2)
    except (OverflowError, ZeroDivisionError) as exc:
        raise DomainError(f"field not evaluable at the initial condition: {exc}") from exc
    err_prev = 1.0

    while t < opts.horizon:
        h = min(h, opts.horizon - t)
        if h < opts.min_step:
            h = opts.min_step

        ok, out = _try_step(f, y1, y2, k1, k2, h, opts)
        if not ok:
            # out is the error norm (or inf); shrink and retry
            err = out
            if h <= opts.min_step:
                traj.termination = Termination(
                    TerminationKind.STEP_FAILURE, t,
                    f"step size underflow at t={t!r} (err={err!r})",
                )
                return traj
            if math.isfinite(err) and err > 0.0:
                fac = max(_MIN_FACTOR, _SAFETY * err ** (-0.2))
            else:
                fac = 0.5
            h = max(opts.min_step, h * min(1.0, fac))
            continue

        z1, z2, err, k1n, k2n = out
        t_new = t + h
        if t_new >= opts.horizon:
            t_new = opts.horizon

        # --- event scan on the accepted chord -------------------------------
        fired = None
        for ev in events:
            old = (y1, y2)[ev.index]
            new = (z1, z2)[ev.index]
            if ev.armed and new < ev.threshold <= old:
                te, ye1, ye2 = _locate_level(t, t_new, (y1, y2), (z1, z2),
                                             ev.index, ev.threshold, opts)
                if fired is None or te < fired[0]:
                    fired = (te, ye1, ye2, ev)
        if fired is not None:
            te, ye1, ye2, ev = fired
            traj.times.append(te)
            traj.states.append(State(max(ye1, 0.0), max(ye2, 0.0)))
            traj.termination = Termination(ev.kind, te)
            return traj

        if blowup_ceiling is not None and z1 > blowup_ceiling:
            te, ye1, ye2 = _locate_level(t, t_new, (y1, y2), (z1, z2), 0,
                                          blowup_ceiling, opts)
            traj.times.append(te)
            traj.states.append(State(ye1, max(ye2, 0.0)))
            traj.termination = Termination(TerminationKind.BLOWUP, te)
            return traj

        # accept
        t, y1, y2, k1, k2 = t_new, max(z1, 0.0), max(z2, 0.0), k1n, k2n
        traj.times.append(t)
        traj.states.append(State(y1, y2))

        for ev in events:
            ev.update_arming((y1, y2)[ev.index])

        if stop_when is not None and stop_when(t, traj.states[-1]):
            traj.termination = Termination(TerminationKind.STOPPED, t)
            return traj

        # PI controller
        if err == 0.0:
            fac = _MAX_FACTOR
        else:
            fac = _SAFETY * err ** (-_BETA1) * err_prev ** _BETA2
            fac = min(_MAX_FACTOR, max(_MIN_FACTOR, fac))
        h = min(opts.max_step, h * fac)
        err_prev = max(err, 1e-10)

    traj.termination = Termination(TerminationKind.HORIZON_REACHED, t)
    return traj


def _try_step(f, y1, y2, k1, k2, h, opts):
    """One embedded step.  Returns (True, (z1, z2, err, k1_new, k2_new)) on
    acceptance, (False, err) on rejection or non-finite arithmetic."""
    try:
        a1 = y1 + h * _A21 * k1
        a2 = y2 + h * _A21 * k2
        s21, s22 = f(a1, a2)
        a1 = y1 + h * (_A31 * k1 + _A32 * s21)
        a2 = y2 + h * (_A31 * k2 + _A32 * s22)
        s31, s32 = f(a1, a2)
        a1 = y1 + h * (_A41 * k1 + _A42 * s21 + _A43 * s31)
        a2 = y2 + h * (_A41 * k2 + _A42 * s22 + _A43 * s32)
        s41, s42 = f(a1, a2)
        a1 = y1 + h * (_A51 * k1 + _A52 * s21 + _A53 * s31 + _A54 * s41)
        a2 = y2 + h * (_A51 * k2 + _A52 * s22 + _A53 * s32 + _A54 * s42)
        s51, s52 = f(a1, a2)
        a1 = y1 + h * (_A61 * k1 + _A62 * s21 + _A63 * s31 + _A64 * s41 + _A65 * s51)
        a2 = y2 + h * (_A61 * k2 + _A62 * s22 + _A63 * s32 + _A64 * s42 + _A65 * s52)
        s61, s62 = f(a1, a2)
        z1 = y1 + h * (_A71 * k1 + _A73 * s31 + _A74 * s41 + _A75 * s51 + _A76 * s61)
        z2 = y2 + h * (_A71 * k2 + _A73 * s32 + _A74 * s42 + _A75 * s52 + _A76 * s62)
        k1n, k2n = f(z1, z2)
        e1 = h * (_E1 * k1 + _E3 * s31 + _E4 * s41 + _E5 * s51 + _E6 * s61 + _E7 * k1n)
        e2 = h * (_E1 * k2 + _E3 * s32 + _E4 * s42 + _E5 * s52 + _E6 * s62 + _E7 * k2n)
    except (OverflowError, ZeroDivisionError, DomainError):
        # a trial stage left the chart (u-system) or overflowed: reject, shrink
        return False, math.inf
    if not (math.isfinite(z1) and math.isfinite(z2)):
        return False, math.inf
    sc1 = opts.abs_tol + opts.rel_tol * max(abs(y1), abs(z1))
    sc2 = opts.abs_tol + opts.rel_tol * max(abs(y2), abs(z2))
    err = math.sqrt(0.5 * ((e1 / sc1) ** 2 + (e2 / sc2) ** 2))
    if not math.isfinite(err):
        return False, math.inf
    if err > 1.0:
        return False, err
    return True, (z1, z2, err, k1n, k2n)


def _locate_level(t0, t1, y_old, y_new, index, level, opts):
    lo, hi = 0.0, 1.0  # chord fractions; level is crossed in between
    v_old = y_old[index]
    tol = max(opts.event_time_rel_tol * max(t1, 1e-6), 1e-16)
    while (hi - lo) * (t1 - t0) > tol:
        mid = 0.5 * (lo + hi)
        v = v_old + mid * (y_new[index] - v_old)
        crossed = v < level if v_old >= level else v > level
        if crossed:
            hi = mid
        else:
            lo = mid
    frac = 0.5 * (lo + hi)
    te = t0 + frac * (t1 - t0)
    ye1 = y_old[0] + frac * (y_new[0] - y_old[0])
    ye2 = y_old[1] + frac * (y_new[1] - y_old[1])
    return te, ye1, ye2


def integrate(
    p: ModelParams,
    ic: State,
    opts: IntegratorOptions | None = None,
    *,
    stop_when: Callable[[float, State], bool] | None = None,
) -> Trajectory:
    """Integrate the (x1, x2) system from a nonnegative initial condition.

    Terminations: PreyExtinct when x1 falls through the extinction threshold
    (armed only off-axis), PredatorExtinct likewise but only when m2 < 1,
    HorizonReached, StepFailure.  `stop_when` is a coarse halt predicate
    evaluated at accepted states (also at t=0); when it fires the trajectory
    ends with kind STOPPED at that accepted time, no localization.
    """
    if opts is None:
        opts = IntegratorOptions()
    x1 = _check_ic(ic.x1, "x1")
    x2 = _check_ic(ic.x2, "x2")
    events = [_Event(0, opts.extinction_threshold, TerminationKind.PREY_EXTINCT)]
    if p.m2 < 1.0:
        events.append(_Event(1, opts.extinction_threshold, TerminationKind.PREDATOR_EXTINCT))
    return _run(make_rhs(p), (x1, x2), opts, events, stop_when, None)


def integrate_u_system(
    p: ModelParams,
    ic: State,
    opts: IntegratorOptions | None = None,
    *,
    blowup_ceiling: float = U_BLOWUP_CEILING,
) -> Trajectory:
    """Integrate the inverted-prey chart (u, x2) = (1/x1, x2).

    Prey touchdown appears as u blowing up; the run terminates with kind
    Blowup when u exceeds `blowup_ceiling` (default 1e12, i.e. x1 below
    1e-12).  State tuples reuse State with the u value in the x1 slot.
    """
    if opts is None:
        opts = IntegratorOptions()
    if not (ic.x1 > 0.0 and math.isfinite(ic.x1)):
        raise DomainError(f"u-chart initial condition needs u > 0, got {ic.x1!r}")
    x2 = _check_ic(ic.x2, "x2")
    return _run(make_u_rhs(p), (ic.x1, x2), opts, (), None, blowup_ceiling)


def _check_ic(v: float, name: str) -> float:
    if not math.isfinite(v):
        raise DomainError(f"initial {name} must be finite, got {v!r}")
    if v < 0.0:
        if v > -1e-12:
            return 0.0
        raise DomainError(f"initial {name} must be nonnegative, got {v!r}")
    return v
