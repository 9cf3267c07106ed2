"""Adaptive Dormand-Prince 5(4) integration with a prey-extinction event.

The stepper is written out against plain floats for the 2D system -- the
separatrix machinery runs thousands of short integrations (three per probe:
one backward trace and two certifying launches), and scalar arithmetic keeps
each step in the microsecond range.  All three run in the chart
y = x1**(1-m1) (`_y_chart`), smooth at the prey axis: the trace is `_run`
with sign -1 up to the probe's y as its ceiling; the launches, E1's leg
and the extinction and persistence runs are `_fate_run`, to y = thr**(1-m1).
There is one loop, the text `_LOOP`, written out inline against plain
floats: in CPython a helper call per step, a tuple per step result, min/max
builtin calls and per-event or per-state objects cost as much as the field
evaluations they wrap.  So the trajectory is stored as float columns, the
stop predicate gets the derivative the step already holds, and the loop
binds the tableau and the options to locals once per integration and
spells min/max as comparisons with the same result.  The field call is
such a cost too, about a fifth of a step: each chart (x, u, y) gets its own
kernel, the loop with that chart's field text (model._Field) written inline
at its seven evaluation sites, compiled on first use and kept for the
process (`_kernel`).  `_run` runs the kernel for a field the package made
and the generic loop, the text as written, for any other callable, which
sees every evaluation.  Both give the same floats.
Error control is the usual embedded-pair estimate with a PI
controller.  A run's level crossing is located on the step's continuous
extension (Hairer, Norsett and Wanner, Solving ODEs I, section II.6;
dopri5's dense output): the cubic Hermite on the step's ends and their
derivatives plus a quartic term in the stages the step already holds, so
locating costs no field evaluation.  The crossing fraction is bisected
on that polynomial (`_crossing`) and both components are read there
(`_dense_value`).

A run watches the levels it is handed on component 0, the prey
coordinate, and decides a crossing from the step's two ends alone: a step
from on or above the floor to below it ends the run PREY_EXTINCT, a step
from on or below the ceiling to above it BLOWUP.  `integrate` makes the
extinction threshold its floor, so a prey that starts below the threshold
(x1 = 0 included) integrates as it is, and its run ends only where it
falls through the threshold from above.  The predator needs no event:
w1*g*x2**m2 >= 0 gives dx2/dt >= -a2*x2, so x2(t) >= x2(0)*exp(-a2*t) > 0
for every m2 in (0, 1], and a threshold on x2 would report only the
threshold's own decay time.
"""
from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass, field, replace
from typing import Callable

from .model import DomainError, ModelParams, State, make_rhs, make_u_rhs, make_y_rhs

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
    BLOWUP = "blowup"
    STEP_FAILURE = "step_failure"
    STOPPED = "stopped"  # stop_when predicate fired (coarse, not localized)


@dataclass(frozen=True)
class Termination:
    kind: TerminationKind
    time: float
    reason: str = ""


# Did the prey die, by how its run ended: the one fate rule, read by the
# launches, E1's leg, extinction and persistence.  Other ends decide none.
_PREY_DIED = {TerminationKind.PREY_EXTINCT: True, TerminationKind.STOPPED: False,
              TerminationKind.HORIZON_REACHED: False}


def _prey_died(termination: Termination | None) -> bool:
    """_PREY_DIED's answer; DomainError naming the termination otherwise."""
    if termination is None or termination.kind not in _PREY_DIED:
        raise DomainError(f"the run decides no fate of the prey: {termination!r}")
    return _PREY_DIED[termination.kind]


def _y_chart(p: ModelParams, opts: IntegratorOptions):
    """The chart y = x1**(1-m1) of the fate runs and the separatrix trace:
    its field, opts at half rel_tol, and k = 1-m1; a level x1 = c is y = c**k."""
    return make_y_rhs(p), replace(opts, rel_tol=0.5 * opts.rel_tol), 1.0 - p.m1


def _fate_run(p: ModelParams, ic: State, opts: IntegratorOptions,
              stop_when: StopPredicate | None = None, chart=None) -> Trajectory:
    """The run whose end decides the prey's fate: for m1 < 1 a run in
    `chart` (_y_chart(p, opts), built once by callers that launch many)
    down to y = thr**(1-m1), its x1 column holding y and stop_when getting
    dy (dx1's sign); at m1 = 1 integrate's run.  ic is checked as there."""
    if p.m1 >= 1.0:
        return integrate(p, ic, opts, stop_when=stop_when)
    f, yopts, k = chart or _y_chart(p, opts)
    y0, x2 = _check_ic(ic.x1, "x1") ** k, _check_ic(ic.x2, "x2")
    return _run(f, (y0, x2), yopts, stop_when, floor=opts.extinction_threshold ** k)


def _in_x1(p: ModelParams, traj: Trajectory) -> Trajectory:
    """A _fate_run's run with its x1 column mapped back from y to x1 (m1 < 1)."""
    if p.m1 < 1.0:
        traj.x1[:] = [y ** (1.0 / (1.0 - p.m1)) for y in traj.x1]
    return traj


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
    i-th stored state (in the u-chart the x1 column holds u, in the y-chart
    y)."""

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
# Weights of the quartic term of the step's continuous extension (Hairer,
# Norsett and Wanner, Solving ODEs I, section II.6; dopri5's dense output).
_D1, _D3, _D4, _D5, _D6, _D7 = (
    -12715105075.0 / 11282082432.0, 87487479700.0 / 32700410799.0,
    -10690763975.0 / 1880347072.0, 701980252875.0 / 199316789632.0,
    -1453857185.0 / 822651844.0, 69997945.0 / 29380423.0,
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
# PI controller exponents (order p = 5)
_BETA1 = 0.7 / 5.0
_BETA2 = 0.4 / 5.0


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


def _dense_value(th: float, y0: float, y1: float, hf0: float, hf1: float,
                 q: float) -> float:
    """A step's continuous extension at the fraction th: the cubic Hermite
    interpolant on values y0, y1 and step-scaled derivatives hf0, hf1 at
    its ends, plus th**2 * (1 - th)**2 * q, q the step's quartic term."""
    w = th * (1.0 - th)
    return y0 + th * (hf0 + th * (3.0 * (y1 - y0) - 2.0 * hf0 - hf1
                                  + th * (2.0 * (y0 - y1) + hf0 + hf1))) + w * w * q


def _crossing(level: float, y0: float, y1: float, hf0: float, hf1: float,
              q: float) -> float:
    """The fraction of a step at which its continuous extension, as in
    _dense_value, crosses `level`, y0 on the level or before it and y1
    past it (below for a downward crossing, above for an upward one).
    Bisects the extension of y - level until 2**-52 wide: near the
    crossing its values are small and keep the digits that y's own values
    lose when they round to the level.  The end before the crossing is
    returned, so a start on the level gives 0.0 exactly."""
    if y0 == level:
        return 0.0
    d0, d1 = y0 - level, y1 - level
    # _dense_value's sums free of the fraction, in its order: the same bits
    c2 = 3.0 * (d1 - d0) - 2.0 * hf0 - hf1
    c3 = 2.0 * (d0 - d1) + hf0 + hf1
    up = d1 > 0.0
    lo, hi = 0.0, 1.0
    while hi - lo > 2.220446049250313e-16:
        mid = 0.5 * (lo + hi)
        w = mid * (1.0 - mid)
        v = d0 + mid * (hf0 + mid * (c2 + mid * c3)) + w * w * q
        if (v > 0.0) if up else (v < 0.0):
            hi = mid
        else:
            lo = mid
    return lo


# The one Dormand-Prince loop, as a text.  Its seven field evaluations (at
# the initial condition and at the six stages of a step) are the lines
# `A, B = f(C, D)`.  Compiled as written it is the generic loop, which calls
# any field f; _instantiate writes a chart's field text (model._Field)
# inline at those lines instead, on the chart's constants `consts`.  The
# loop's own names are kept apart from those the field texts use.
_LOOP = """\
def run(f, consts, ic, opts, stop_when, floor, ceiling, sign):
    a21, a31, a32, a41, a42, a43 = _A21, _A31, _A32, _A41, _A42, _A43
    a51, a52, a53, a54 = _A51, _A52, _A53, _A54
    a61, a62, a63, a64, a65 = _A61, _A62, _A63, _A64, _A65
    a71, a73, a74, a75, a76 = _A71, _A73, _A74, _A75, _A76
    ew1, ew3, ew4, ew5, ew6, ew7 = _E1, _E3, _E4, _E5, _E6, _E7
    safety, min_factor, max_factor = _SAFETY, _MIN_FACTOR, _MAX_FACTOR
    beta1, beta2 = _BETA1, _BETA2
    horizon, min_step, max_step = opts.horizon, opts.min_step, opts.max_step
    abs_tol, rel_tol = opts.abs_tol, opts.rel_tol
    inf, isfinite, sqrt = math.inf, math.isfinite, math.sqrt

    t = 0.0
    y1, y2 = ic
    traj = Trajectory()
    add_t, add_x1, add_x2 = traj.times.append, traj.x1.append, traj.x2.append
    add_t(t)
    add_x1(y1)
    add_x2(y2)

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
    # err_prev ** beta2 of the PI controller, err_prev = 1.0 before the
    # first accepted step
    prev_pow = 1.0

    while t < horizon:
        rem = horizon - t
        if rem < h:  # min(h, horizon - t)
            h = rem
        if h < min_step:
            h = min_step

        # --- one embedded step; err ends finite, or inf to reject outright --
        sh = sign * h
        sh21 = sh * a21
        try:
            st1 = y1 + sh21 * k1
            st2 = y2 + sh21 * k2
            s21, s22 = f(st1, st2)
            st1 = y1 + sh * (a31 * k1 + a32 * s21)
            st2 = y2 + sh * (a31 * k2 + a32 * s22)
            s31, s32 = f(st1, st2)
            st1 = y1 + sh * (a41 * k1 + a42 * s21 + a43 * s31)
            st2 = y2 + sh * (a41 * k2 + a42 * s22 + a43 * s32)
            s41, s42 = f(st1, st2)
            st1 = y1 + sh * (a51 * k1 + a52 * s21 + a53 * s31 + a54 * s41)
            st2 = y2 + sh * (a51 * k2 + a52 * s22 + a53 * s32 + a54 * s42)
            s51, s52 = f(st1, st2)
            st1 = y1 + sh * (a61 * k1 + a62 * s21 + a63 * s31 + a64 * s41 + a65 * s51)
            st2 = y2 + sh * (a61 * k2 + a62 * s22 + a63 * s32 + a64 * s42 + a65 * s52)
            s61, s62 = f(st1, st2)
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
                mag = -z1 if z1 < 0.0 else z1
                if mag > big1:
                    big1 = mag
                big2 = -y2 if y2 < 0.0 else y2
                mag = -z2 if z2 < 0.0 else z2
                if mag > big2:
                    big2 = mag
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

        if z1 < floor <= y1 or y1 <= ceiling < z1:
            # a level crossed: located on the step's continuous extension,
            # whose quartic term takes the stages the step holds
            level, kind = ((floor, TerminationKind.PREY_EXTINCT) if z1 < floor
                           else (ceiling, TerminationKind.BLOWUP))
            q1 = sh * (_D1 * k1 + _D3 * s31 + _D4 * s41 + _D5 * s51 + _D6 * s61 + _D7 * k1n)
            q2 = sh * (_D1 * k2 + _D3 * s32 + _D4 * s42 + _D5 * s52 + _D6 * s62 + _D7 * k2n)
            hf1, hf2, hn1, hn2 = sh * k1, sh * k2, sh * k1n, sh * k2n
            th = _crossing(level, y1, z1, hf1, hn1, q1)
            te = t + th * (t_new - t)
            ye1 = _dense_value(th, y1, z1, hf1, hn1, q1)
            ye2 = _dense_value(th, y2, z2, hf2, hn2, q2)
            add_t(te)
            add_x1(0.0 if 0.0 > ye1 else ye1)
            add_x2(0.0 if 0.0 > ye2 else ye2)
            traj.termination = Termination(kind, te)
            return traj

        # accept; (k1, k2) = f(y1, y2) exactly, as the field clamps
        # negative inputs to zero just as this does
        t, k1, k2 = t_new, k1n, k2n
        y1 = 0.0 if 0.0 > z1 else z1  # max(z1, 0.0)
        y2 = 0.0 if 0.0 > z2 else z2
        add_t(t)
        add_x1(y1)
        add_x2(y2)

        if stop_when is not None and stop_when(t, y1, y2, sign * k1, sign * k2):
            traj.termination = Termination(TerminationKind.STOPPED, t)
            return traj

        # PI controller
        if err == 0.0:
            fac = max_factor
        else:
            fac = safety * err ** (-beta1) * prev_pow
            if not fac > min_factor:  # min(max_factor, max(min_factor, fac))
                fac = min_factor
            if not fac < max_factor:
                fac = max_factor
        h = h * fac
        if not h < max_step:  # min(max_step, h * fac)
            h = max_step
        prev_pow = (1e-10 if 1e-10 > err else err) ** beta2  # max(err, 1e-10)

    traj.termination = Termination(TerminationKind.HORIZON_REACHED, t)
    return traj
"""

def _instantiate(chart) -> str:
    """_LOOP with the chart's field text written inline at each field call
    (None: _LOOP itself, the generic loop).  At each site the text's state
    is bound to the call's arguments and its return becomes the assignment
    of the call's targets; the chart's constants are unpacked from
    `consts` once per run."""
    if chart is None:
        return _LOOP
    head, _, tail = chart.body.rpartition("return ")

    def inline(site: re.Match) -> str:
        pad, out1, out2, in1, in2 = site.groups()
        text = f"{chart.state} = {in1}, {in2}\n{head}{out1}, {out2} = {tail}"
        return "".join(pad + line for line in text.splitlines(True))

    top, _, rest = _LOOP.partition("\n")
    rest = re.sub(r"^( *)(\w+), (\w+) = f\((\w+), (\w+)\)\n", inline, rest, flags=re.MULTILINE)
    return f"{top}\n    {chart.consts} = consts\n{rest}"


# compiled loops by chart text (None: the generic loop), each compiled on
# first use
_KERNELS: dict = {}


def _kernel(chart) -> Callable:
    run = _KERNELS.get(chart)
    if run is None:
        ns: dict = {}
        name = "generic" if chart is None else chart.name
        exec(compile(_instantiate(chart), f"<dopri5 loop: {name}>", "exec"), globals(), ns)
        run = _KERNELS[chart] = ns["run"]
    return run


def _run(
    f: Callable[[float, float], tuple[float, float]],
    ic: tuple[float, float],
    opts: IntegratorOptions,
    stop_when: StopPredicate | None = None,
    *,
    floor: float = -math.inf,
    ceiling: float = math.inf,
    sign: float = 1.0,
) -> Trajectory:
    """Core loop shared by the x-system, the u-chart and the y-chart.

    A field made by make_rhs, make_u_rhs or make_y_rhs runs its chart's
    kernel, the loop with that field written inline; any other callable
    runs the generic loop, which calls f once at the initial condition and
    once per stage.  Both are instantiations of the one loop text, _LOOP,
    and give the same floats.

    The run watches two levels on component 0, each decided from the
    step's ends alone: it ends with kind PREY_EXTINCT where a step falls
    from on or above `floor` to below it (integrate's extinction threshold,
    the launches' y = thr**(1-m1)), and with kind BLOWUP where a step
    climbs from on or below `ceiling` to above it (the u-chart's
    U_BLOWUP_CEILING, the trace's probe); a pass the other way ends
    nothing.  The crossing is located on the step's continuous extension,
    and a step that starts on the level ends where it starts (a run that
    leaves its floor downward ends at t = 0).  stop_when gets the
    field at each accepted state from the step that produced it (FSAL), so
    the predicate costs no field evaluation.  sign = -1.0 runs the orbit
    backward: the stage, error and extension sums take the step as
    sign * h, and stop_when gets sign times the field, the derivative along
    the run.  As IEEE negation is exact, every stage point, state and time
    is the one the loop would give on the negated field with sign 1.0.  The
    times column counts elapsed time either way.  The min/max of the
    textbook loop are written as comparisons with the same result, ties and
    -0.0 included: max(a, b) is `b if b > a else a`, min(a, b) is
    `b if b < a else a`.
    """
    chart, consts = getattr(f, "chart", (None, None))
    return _kernel(chart)(f, consts, ic, opts, stop_when, floor, ceiling, sign)


def integrate(
    p: ModelParams,
    ic: State,
    opts: IntegratorOptions | None = None,
    *,
    stop_when: StopPredicate | None = None,
) -> Trajectory:
    """Integrate the (x1, x2) system from a nonnegative initial condition.

    Terminations: PreyExtinct where a step takes x1 from on or above the
    extinction threshold to below it, HorizonReached, StepFailure; the
    predator stays positive at every finite time, so no event watches it.
    `stop_when(t, x1, x2, dx1, dx2)` is a coarse halt predicate evaluated
    at accepted states (also at t=0), where (dx1, dx2) is the field at
    (x1, x2), bit for bit `make_rhs(p)(x1, x2)`; when it fires the
    trajectory ends with kind STOPPED at that accepted time, no
    localization.  The field is evaluated at the initial condition
    before the predicate, so a field that cannot be evaluated there raises
    DomainError even when the predicate would have stopped the run.
    """
    if opts is None:
        opts = IntegratorOptions()
    x1 = _check_ic(ic.x1, "x1")
    x2 = _check_ic(ic.x2, "x2")
    return _run(make_rhs(p), (x1, x2), opts, stop_when, floor=opts.extinction_threshold)


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
    return _run(make_u_rhs(p), (ic.x1, x2), opts, ceiling=U_BLOWUP_CEILING)


def _check_ic(v: float, name: str) -> float:
    if not math.isfinite(v):
        raise DomainError(f"initial {name} must be finite, got {v!r}")
    if v < 0.0:
        if v > -1e-12:
            return 0.0
        raise DomainError(f"initial {name} must be nonnegative, got {v!r}")
    return v
