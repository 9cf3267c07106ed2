"""Adaptive Dormand-Prince 5(4) integration with axis-extinction events.

The stepper is written out against plain floats for the 2D system -- the
separatrix machinery runs thousands of short integrations (three per probe:
one backward trace and two certifying launches), and scalar arithmetic keeps
each step in the microsecond range.  The backward trace is run in the
desingularising prey chart y = x1**(1-m1) (model.make_y_rhs), where the
field is smooth at the prey axis: geometry calls `_run` on that field with
sign -1 and no event, and reads the probe off the last step's continuous
extension (`_dense_term`); the certifying launches are `integrate` runs in
the x-chart.
The step itself is written out inline in the one loop (`_run`) that all
three charts share: in CPython a helper call per step, a tuple per step result,
min/max builtin calls and per-event or per-state objects cost as much as
the field evaluations they wrap.  So the trajectory is stored as float
columns, the stop predicate gets the derivative the step already holds,
and the loop binds the tableau and the options to locals once per
integration and spells min/max as comparisons with the same result.
Error control is the usual embedded-pair estimate with a PI
controller.  An event is located exactly on the step's chord, the straight
line from the accepted state to the trial state: the crossing fraction is
(v_old - level) / (v_old - v_new) in closed form, which serves the downward
extinction threshold and the u-chart's upward blowup ceiling alike.

Events watch for *downward* crossings of a small threshold by a state
component.  An event is armed only if its component starts above threshold
(and re-arms if the component later climbs above twice the threshold), so an
initial condition sitting on an axis integrates as the constant/on-axis
solution instead of reporting extinction at t = 0.  The predator event
exists only for m2 < 1: with m2 = 1 the axis is reached only as t -> inf and
a threshold crossing would misreport a finite extinction time.  A backward
run (`integrate(..., backward=True)`) is the same loop on the field itself
with the step negated, and watches no event.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

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

    def __post_init__(self):
        if not (0.0 < self.rel_tol < math.inf and 0.0 < self.abs_tol < math.inf):
            raise DomainError("tolerances must be positive and finite")
        if not (0.0 < self.min_step < self.max_step):
            raise DomainError("need 0 < min_step < max_step")
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise DomainError("horizon must be positive and finite")
        if not (0.0 < self.extinction_threshold < 1.0):
            raise DomainError("extinction_threshold must lie in (0, 1)")


# stop_when(t, x1, x2, dx1, dx2): halt predicate on an accepted state and
# the field there
StopPredicate = Callable[[float, float, float, float, float], bool]


@dataclass
class Trajectory:
    """An integration as float columns: times[i] and (x1[i], x2[i]) are the
    i-th stored state (in the u-chart the x1 column holds u)."""

    times: list[float] = field(default_factory=list)
    x1: list[float] = field(default_factory=list)
    x2: list[float] = field(default_factory=list)
    termination: Termination | None = None
    # trial steps the error test turned down, the one that ends a
    # STEP_FAILURE run included
    rejected: int = 0

    @property
    def states(self) -> list[State]:
        """The stored states as a new list of State on every access."""
        return list(map(State, self.x1, self.x2))

    @property
    def final_time(self) -> float:
        return self.times[-1]

    @property
    def final_state(self) -> State:
        return State(self.x1[-1], self.x2[-1])

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

_EVENT_KINDS = (TerminationKind.PREY_EXTINCT, TerminationKind.PREDATOR_EXTINCT)


def _initial_step(y1: float, y2: float, f1: float, f2: float,
                  opts: IntegratorOptions) -> float:
    # Hairer-style two-phase guess, simplified for 2 components; (f1, f2)
    # is the field at (y1, y2).
    sc1 = opts.abs_tol + opts.rel_tol * abs(y1)
    sc2 = opts.abs_tol + opts.rel_tol * abs(y2)
    d0 = math.sqrt(0.5 * ((y1 / sc1) ** 2 + (y2 / sc2) ** 2))
    d1 = math.sqrt(0.5 * ((f1 / sc1) ** 2 + (f2 / sc2) ** 2))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    return max(opts.min_step, min(h0, opts.max_step, opts.horizon))


def _run(
    f: Callable[[float, float], tuple[float, float]],
    ic: tuple[float, float],
    opts: IntegratorOptions,
    watch: tuple[bool, bool],
    stop_when: StopPredicate | None,
    blowup_ceiling: float | None,
    sign: float = 1.0,
) -> Trajectory:
    """Core loop shared by the x-system, the u-chart and the y-chart.

    watch[i] switches on the extinction event of component i (the u-chart
    watches neither and ends at blowup_ceiling instead).  stop_when gets the
    field at each accepted state from the step that produced it (FSAL), so
    the predicate costs no field evaluation.  sign = -1.0 runs the orbit
    backward: the stage and error sums take the step as sign * h, and
    stop_when gets sign times the field, the derivative along the run.  As
    IEEE negation is exact, every stage point, state and time is the one the
    loop would give on the negated field with sign 1.0.  The times column
    counts elapsed time either way.  The min/max of
    the textbook loop are written as comparisons with the same result, ties
    and -0.0 included: max(a, b) is `b if b > a else a`, min(a, b) is
    `b if b < a else a`.
    """
    a21, a31, a32, a41, a42, a43 = _A21, _A31, _A32, _A41, _A42, _A43
    a51, a52, a53, a54 = _A51, _A52, _A53, _A54
    a61, a62, a63, a64, a65 = _A61, _A62, _A63, _A64, _A65
    a71, a73, a74, a75, a76 = _A71, _A73, _A74, _A75, _A76
    ew1, ew3, ew4, ew5, ew6, ew7 = _E1, _E3, _E4, _E5, _E6, _E7
    safety, min_factor, max_factor = _SAFETY, _MIN_FACTOR, _MAX_FACTOR
    beta1, beta2 = _BETA1, _BETA2
    horizon, min_step, max_step = opts.horizon, opts.min_step, opts.max_step
    abs_tol, rel_tol = opts.abs_tol, opts.rel_tol
    thr = opts.extinction_threshold
    inf, isfinite, sqrt = math.inf, math.isfinite, math.sqrt
    ceiling = inf if blowup_ceiling is None else blowup_ceiling

    t = 0.0
    y1, y2 = ic
    traj = Trajectory()
    add_t, add_x1, add_x2 = traj.times.append, traj.x1.append, traj.x2.append
    add_t(t)
    add_x1(y1)
    add_x2(y2)

    # An event is armed only if its component starts above the threshold,
    # and re-arms once the component climbs above twice the threshold; an
    # unwatched component never arms (its re-arm level is infinite).
    armed1 = watch[0] and y1 > thr
    armed2 = watch[1] and y2 > thr
    rearm1 = 2.0 * thr if watch[0] else inf
    rearm2 = 2.0 * thr if watch[1] else inf

    # one field evaluation at the initial condition: the predicate's
    # derivative, the step guess and k1
    try:
        k1, k2 = f(y1, y2)
    except (OverflowError, ZeroDivisionError) as exc:
        raise DomainError(f"field not evaluable at the initial condition: {exc}") from exc
    if stop_when is not None and stop_when(t, y1, y2, sign * k1, sign * k2):
        traj.termination = Termination(TerminationKind.STOPPED, t)
        return traj
    h = _initial_step(y1, y2, k1, k2, opts)
    err_prev = 1.0

    while t < horizon:
        rem = horizon - t
        if rem < h:  # min(h, horizon - t)
            h = rem
        if h < min_step:
            h = min_step

        # --- one embedded step; err ends finite, or inf to reject outright --
        sh = sign * h
        try:
            a1 = y1 + sh * a21 * k1
            a2 = y2 + sh * a21 * k2
            s21, s22 = f(a1, a2)
            a1 = y1 + sh * (a31 * k1 + a32 * s21)
            a2 = y2 + sh * (a31 * k2 + a32 * s22)
            s31, s32 = f(a1, a2)
            a1 = y1 + sh * (a41 * k1 + a42 * s21 + a43 * s31)
            a2 = y2 + sh * (a41 * k2 + a42 * s22 + a43 * s32)
            s41, s42 = f(a1, a2)
            a1 = y1 + sh * (a51 * k1 + a52 * s21 + a53 * s31 + a54 * s41)
            a2 = y2 + sh * (a51 * k2 + a52 * s22 + a53 * s32 + a54 * s42)
            s51, s52 = f(a1, a2)
            a1 = y1 + sh * (a61 * k1 + a62 * s21 + a63 * s31 + a64 * s41 + a65 * s51)
            a2 = y2 + sh * (a61 * k2 + a62 * s22 + a63 * s32 + a64 * s42 + a65 * s52)
            s61, s62 = f(a1, a2)
            z1 = y1 + sh * (a71 * k1 + a73 * s31 + a74 * s41 + a75 * s51 + a76 * s61)
            z2 = y2 + sh * (a71 * k2 + a73 * s32 + a74 * s42 + a75 * s52 + a76 * s62)
            k1n, k2n = f(z1, z2)
            e1 = sh * (ew1 * k1 + ew3 * s31 + ew4 * s41 + ew5 * s51 + ew6 * s61 + ew7 * k1n)
            e2 = sh * (ew1 * k2 + ew3 * s32 + ew4 * s42 + ew5 * s52 + ew6 * s62 + ew7 * k2n)
        except (OverflowError, ZeroDivisionError, DomainError):
            # a trial stage left the chart (u-system) or overflowed
            err = inf
        else:
            if isfinite(z1) and isfinite(z2):
                # max(abs(y), abs(z)) per component; a magnitude that comes
                # out as -0.0 leaves abs_tol + rel_tol * big as it is
                big1 = -y1 if y1 < 0.0 else y1
                m = -z1 if z1 < 0.0 else z1
                if m > big1:
                    big1 = m
                big2 = -y2 if y2 < 0.0 else y2
                m = -z2 if z2 < 0.0 else z2
                if m > big2:
                    big2 = m
                sc1 = abs_tol + rel_tol * big1
                sc2 = abs_tol + rel_tol * big2
                err = sqrt(0.5 * ((e1 / sc1) ** 2 + (e2 / sc2) ** 2))
                if not isfinite(err):
                    err = inf
            else:
                err = inf

        if err > 1.0:
            # rejected: shrink and retry
            traj.rejected += 1
            if h <= min_step:
                traj.termination = Termination(
                    TerminationKind.STEP_FAILURE, t,
                    f"step size underflow at t={t!r} (err={err!r})",
                )
                return traj
            if isfinite(err) and err > 0.0:
                fac = safety * err ** (-0.2)
                if not fac > min_factor:  # max(min_factor, fac)
                    fac = min_factor
            else:
                fac = 0.5
            if fac < 1.0:  # h * min(1.0, fac)
                h = h * fac
            if not h > min_step:  # max(min_step, h)
                h = min_step
            continue

        t_new = t + h
        if t_new >= horizon:
            t_new = horizon

        if (armed1 and z1 < thr <= y1) or (armed2 and z2 < thr <= y2):
            te, ye1, ye2, kind = _first_crossing(
                t, t_new, (y1, y2), (z1, z2), (armed1, armed2), thr)
            add_t(te)
            add_x1(0.0 if 0.0 > ye1 else ye1)
            add_x2(0.0 if 0.0 > ye2 else ye2)
            traj.termination = Termination(kind, te)
            return traj

        if z1 > ceiling:
            te, ye1, ye2 = _locate_level(t, t_new, (y1, y2), (z1, z2), 0, ceiling)
            add_t(te)
            add_x1(ye1)
            add_x2(0.0 if 0.0 > ye2 else ye2)
            traj.termination = Termination(TerminationKind.BLOWUP, te)
            return traj

        # accept; (k1, k2) = f(y1, y2) exactly, as the field clamps
        # negative inputs to zero just as this does
        t, k1, k2 = t_new, k1n, k2n
        y1 = 0.0 if 0.0 > z1 else z1  # max(z1, 0.0)
        y2 = 0.0 if 0.0 > z2 else z2
        add_t(t)
        add_x1(y1)
        add_x2(y2)

        if not armed1 and y1 > rearm1:
            armed1 = True
        if not armed2 and y2 > rearm2:
            armed2 = True

        if stop_when is not None and stop_when(t, y1, y2, sign * k1, sign * k2):
            traj.termination = Termination(TerminationKind.STOPPED, t)
            return traj

        # PI controller
        if err == 0.0:
            fac = max_factor
        else:
            fac = safety * err ** (-beta1) * err_prev ** beta2
            if not fac > min_factor:  # min(max_factor, max(min_factor, fac))
                fac = min_factor
            if not fac < max_factor:
                fac = max_factor
        h = h * fac
        if not h < max_step:  # min(max_step, h * fac)
            h = max_step
        err_prev = 1e-10 if 1e-10 > err else err  # max(err, 1e-10)

    traj.termination = Termination(TerminationKind.HORIZON_REACHED, t)
    return traj


def _first_crossing(t0, t1, y_old, y_new, armed, level):
    """The earliest downward crossing of `level` on the chord among the armed
    components, as (te, ye1, ye2, kind); the prey's wins a tie."""
    fired = None
    for index, kind in enumerate(_EVENT_KINDS):
        if armed[index] and y_new[index] < level <= y_old[index]:
            te, ye1, ye2 = _locate_level(t0, t1, y_old, y_new, index, level)
            if fired is None or te < fired[0]:
                fired = (te, ye1, ye2, kind)
    return fired


def _locate_level(t0, t1, y_old, y_new, index, level):
    """Where component `index` meets `level` on the chord from (t0, y_old)
    to (t1, y_new), as (te, ye1, ye2).  The caller has seen the component
    cross the level over the step, so v_old != v_new and the fraction lies
    in [0, 1]; the located component equals the level to rounding."""
    v_old = y_old[index]
    frac = (v_old - level) / (v_old - y_new[index])
    te = t0 + frac * (t1 - t0)
    ye1 = y_old[0] + frac * (y_new[0] - y_old[0])
    ye2 = y_old[1] + frac * (y_new[1] - y_old[1])
    return te, ye1, ye2


def _dense_value(th: float, y0: float, y1: float, hf0: float, hf1: float,
                 q: float) -> float:
    """A step's continuous extension at the fraction th: the cubic Hermite
    interpolant on values y0, y1 and step-scaled derivatives hf0, hf1 at
    its ends, plus th**2 * (1 - th)**2 * q, q the step's quartic term."""
    w = th * (1.0 - th)
    return y0 + th * (hf0 + th * (3.0 * (y1 - y0) - 2.0 * hf0 - hf1
                                  + th * (2.0 * (y0 - y1) + hf0 + hf1))) + w * w * q


# Weights of the quartic term of the step's continuous extension (Hairer,
# Norsett and Wanner, Solving ODEs I, section II.6; dopri5's dense output).
_D1, _D3, _D4, _D5, _D6, _D7 = (
    -12715105075.0 / 11282082432.0, 87487479700.0 / 32700410799.0,
    -10690763975.0 / 1880347072.0, 701980252875.0 / 199316789632.0,
    -1453857185.0 / 822651844.0, 69997945.0 / 29380423.0,
)


def _dense_term(f, y, k, kn, sh):
    """The quartic term of the continuous extension of the accepted step of
    signed size sh from the state y, where the field f is k, to the state
    where it is kn: on that step the state at the fraction th is the cubic
    Hermite on the ends' values and derivatives plus th**2 * (1 - th)**2
    times the pair returned, to the step's own order.  The inner stages are
    formed again as _run forms them (five field calls)."""
    y1, y2 = y
    k1, k2 = k
    a1 = y1 + sh * _A21 * k1
    a2 = y2 + sh * _A21 * k2
    s21, s22 = f(a1, a2)
    a1 = y1 + sh * (_A31 * k1 + _A32 * s21)
    a2 = y2 + sh * (_A31 * k2 + _A32 * s22)
    s31, s32 = f(a1, a2)
    a1 = y1 + sh * (_A41 * k1 + _A42 * s21 + _A43 * s31)
    a2 = y2 + sh * (_A41 * k2 + _A42 * s22 + _A43 * s32)
    s41, s42 = f(a1, a2)
    a1 = y1 + sh * (_A51 * k1 + _A52 * s21 + _A53 * s31 + _A54 * s41)
    a2 = y2 + sh * (_A51 * k2 + _A52 * s22 + _A53 * s32 + _A54 * s42)
    s51, s52 = f(a1, a2)
    a1 = y1 + sh * (_A61 * k1 + _A62 * s21 + _A63 * s31 + _A64 * s41 + _A65 * s51)
    a2 = y2 + sh * (_A61 * k2 + _A62 * s22 + _A63 * s32 + _A64 * s42 + _A65 * s52)
    s61, s62 = f(a1, a2)
    return (sh * (_D1 * k1 + _D3 * s31 + _D4 * s41 + _D5 * s51 + _D6 * s61 + _D7 * kn[0]),
            sh * (_D1 * k2 + _D3 * s32 + _D4 * s42 + _D5 * s52 + _D6 * s62 + _D7 * kn[1]))


def integrate(
    p: ModelParams,
    ic: State,
    opts: IntegratorOptions | None = None,
    *,
    stop_when: StopPredicate | None = None,
    backward: bool = False,
) -> Trajectory:
    """Integrate the (x1, x2) system from a nonnegative initial condition.

    Terminations: PreyExtinct when x1 falls through the extinction threshold
    (armed only off-axis), PredatorExtinct likewise but only when m2 < 1,
    HorizonReached, StepFailure.  `stop_when(t, x1, x2, dx1, dx2)` is a
    coarse halt predicate evaluated at accepted states (also at t=0), where
    (dx1, dx2) is the field at (x1, x2), bit for bit `make_rhs(p)(x1, x2)`;
    when it fires the trajectory ends with kind STOPPED at that accepted
    time, no localization.  The field is evaluated at the initial condition
    before the predicate, so a field that cannot be evaluated there raises
    DomainError even when the predicate would have stopped the run.

    With backward=True the run follows the orbit back in time: the loop
    steps the field with the step negated, (dx1, dx2) handed to `stop_when`
    is the negated field, the times column holds the elapsed backward time
    (0 up to at most the horizon), and no extinction event is watched, so a
    backward run never ends in PreyExtinct or PredatorExtinct.  The states
    are bit for bit those of a forward run on the negated field.
    """
    if opts is None:
        opts = IntegratorOptions()
    x1 = _check_ic(ic.x1, "x1")
    x2 = _check_ic(ic.x2, "x2")
    f = make_rhs(p)
    if backward:
        return _run(f, (x1, x2), opts, (False, False), stop_when, None, -1.0)
    return _run(f, (x1, x2), opts, (True, p.m2 < 1.0), stop_when, None)


def integrate_u_system(
    p: ModelParams,
    ic: State,
    opts: IntegratorOptions | None = None,
) -> Trajectory:
    """Integrate the inverted-prey chart (u, x2) = (1/x1, x2).

    Prey touchdown appears as u blowing up; the run terminates with kind
    Blowup when u exceeds U_BLOWUP_CEILING (1e12, i.e. x1 below 1e-12).  An
    initial u must lie in (0, U_BLOWUP_CEILING].  The trajectory's x1
    column holds u.
    """
    if opts is None:
        opts = IntegratorOptions()
    if not 0.0 < ic.x1 <= U_BLOWUP_CEILING:
        raise DomainError(f"u-chart initial condition needs 0 < u <= "
                          f"{U_BLOWUP_CEILING!r}, got {ic.x1!r}")
    x2 = _check_ic(ic.x2, "x2")
    return _run(make_u_rhs(p), (ic.x1, x2), opts, (False, False), None, U_BLOWUP_CEILING)


def _check_ic(v: float, name: str) -> float:
    if not math.isfinite(v):
        raise DomainError(f"initial {name} must be finite, got {v!r}")
    if v < 0.0:
        if v > -1e-12:
            return 0.0
        raise DomainError(f"initial {name} must be nonnegative, got {v!r}")
    return v
