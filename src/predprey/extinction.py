"""Boundedness estimates, the finite-time prey extinction criterion, and the
refuge level that prevents it.

Extinction criterion (m1 < 1, m2 = 1 regime of interest): writing u = 1/x1,
an initial condition with

    x1_0**(1 - m1) * (x1_0 + d)**m1  <=  w0 / a1

launches an orbit whose prey component reaches zero in finite time whenever
the predator stays at or above its launch level long enough -- operationally
the comparison certifies that the u-chart field is superlinear from the
start.  (The growth-rate constant here is a1, the prey intrinsic rate; the
quantity is sometimes typeset a0 elsewhere, which is a typographical slip.)

Refuge threshold:  exposing only the fraction r of the prey weakens the
response to g(r*x1), and

    r* = [ a1 * d**m1 * v0 / (w0 * (b1/a1 + v0)**(2-m1) * K2**m2) ]**(1/m1),
    v0 = 1/x1_0 - b1/a1,

guarantees persistence of the prey from x1_0 for any refuge fraction
r < r*, where K2 bounds the predator: K2 = (w1/(w0*a2)) * K1 with
K1 = (a1 + a2) * (a1/b1 + eps1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .integrate import (IntegratorOptions, TerminationKind, Trajectory, _fate_run, _in_x1,
                        _prey_died, integrate_u_system)
from .model import DomainError, ModelParams, State

__all__ = [
    "BoundsReport",
    "boundedness_bound",
    "dissipative_bound_K2",
    "ExtinctionVerdict",
    "SimulatedExtinction",
    "extinction_ic_condition",
    "simulate_extinction",
    "RefugeThreshold",
    "refuge_threshold",
    "PersistenceVerdict",
    "verify_persistence",
]


@dataclass(frozen=True)
class BoundsReport:
    delta: float
    W1: float                 # (a1 + delta)**2 / (4*b1)
    Q_bound: float            # W1 / delta, ultimate bound for x1 + (w0/w1)*x2
    eps1: float | None = None
    K1: float | None = None   # eventual prey ceiling a1/b1 + eps1, scaled
    K2: float | None = None   # eventual predator ceiling


def boundedness_bound(p: ModelParams, delta: float | None = None) -> BoundsReport:
    """Ultimate bound for Q = x1 + (w0/w1)*x2 from dQ/dt <= W1 - delta*Q.

    delta defaults to a2 (the natural choice; any 0 < delta <= a2 works).
    The interaction cancels in Q: Q' + delta*Q = (a1 + delta)*x1 - b1*x1**2
    - (a2 - delta)*(w0/w1)*x2, at most (a1 + delta)**2/(4*b1) = W1 for every
    parameter set, so Q(t) <= max(Q(0), W1/delta) on every run.
    """
    if delta is None:
        delta = p.a2
    if not (0.0 < delta <= p.a2):
        raise DomainError(f"delta must lie in (0, a2], got {delta!r}")
    w1_ = (p.a1 + delta) ** 2 / (4.0 * p.b1)
    return BoundsReport(delta=delta, W1=w1_, Q_bound=w1_ / delta)


def check_positive_finite(name: str, value: float) -> None:
    """The check dissipative_bound_K2 makes of eps1 and refuge_threshold of K2."""
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {value!r}")


def dissipative_bound_K2(p: ModelParams, eps1: float | None = None) -> BoundsReport:
    """Complete a BoundsReport with the eventual ceilings K1 and K2.

    Prey satisfies limsup x1 <= a1/b1, so eventually x1 <= a1/b1 + eps1 and
    the predator equation forces limsup of w0*x2/w1 under K1/a2-style
    comparison:  K1 = (a1 + a2)*(a1/b1 + eps1),  K2 = (w1/(w0*a2)) * K1.
    eps1 defaults to a relative margin of 1% of a1/b1.
    """
    if eps1 is None:
        eps1 = 0.01 * p.carrying_capacity
    check_positive_finite("eps1", eps1)
    k1 = (p.a1 + p.a2) * (p.carrying_capacity + eps1)
    k2 = (p.w1 / (p.w0 * p.a2)) * k1
    return replace(boundedness_bound(p), eps1=eps1, K1=k1, K2=k2)


@dataclass(frozen=True)
class SimulatedExtinction:
    extinct: bool
    time: float | None            # prey-extinction event time, T(thr)
    termination: TerminationKind
    trajectory: Trajectory | None = field(default=None, repr=False, compare=False)
    u_trajectory: Trajectory | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class ExtinctionVerdict:
    criterion_met: bool
    lhs: float       # x1_0**(1-m1) * (x1_0 + d)**m1
    rhs: float       # w0 / a1
    u0: float        # 1/x1_0
    note: str
    simulated: SimulatedExtinction | None = None


_A0_NOTE = ("growth-rate constant taken as a1 (intrinsic prey rate); "
            "the criterion is sometimes typeset with a0, a typographical slip")


def extinction_ic_condition(x1_0: float, p: ModelParams) -> ExtinctionVerdict:
    """Check x1_0**(1-m1) * (x1_0 + d)**m1 <= w0/a1 (sufficient for
    finite-time prey extinction when the predator pressure holds up)."""
    if not (x1_0 > 0.0 and math.isfinite(x1_0)):
        raise DomainError(f"need x1_0 > 0, got {x1_0!r}")
    if p.m1 >= 1.0:
        return ExtinctionVerdict(
            criterion_met=False,
            lhs=math.inf, rhs=p.w0 / p.a1, u0=1.0 / x1_0,
            note="m1 = 1: field is Lipschitz at the prey axis; "
                 "finite-time extinction impossible",
        )
    lhs = x1_0 ** (1.0 - p.m1) * (x1_0 + p.d) ** p.m1
    rhs = p.w0 / p.a1
    return ExtinctionVerdict(
        criterion_met=lhs <= rhs, lhs=lhs, rhs=rhs, u0=1.0 / x1_0, note=_A0_NOTE)


def simulate_extinction(
    p: ModelParams,
    ic: State,
    opts: IntegratorOptions | None = None,
) -> ExtinctionVerdict:
    """Run the criterion, then confirm dynamically.

    The launches' fate run (integrate._fate_run, for m1 < 1 in y =
    x1**(1-m1), smooth at the prey axis) gives the fate and the time
    T(thr) at which x1 falls through the extinction threshold: 0.1469526
    for OSC from (0.3, 50), scipy's 0.14695262 (integrate's x-chart, at
    abs_tol = thr, gives 0.148002).  A prey that died is also run in
    u = 1/x1 to its blowup at x1 = 1e-12.  Both trajectories are kept, the
    fate run's in (x1, x2).  The fate is integrate._prey_died's: a run
    that decides no fate raises DomainError, and so does a prey at or below
    the threshold, as its event, a fall through the threshold, cannot fire.
    """
    if opts is None:
        opts = IntegratorOptions(horizon=100.0)
    _check_prey_above_threshold(ic, opts)
    verdict = extinction_ic_condition(ic.x1, p)
    traj = _in_x1(p, _fate_run(p, ic, opts))
    end = traj.termination
    if not _prey_died(end):
        return replace(verdict, simulated=SimulatedExtinction(False, None, end.kind, traj))
    u_traj = integrate_u_system(p, State(1.0 / ic.x1, ic.x2), opts)
    return replace(verdict, simulated=SimulatedExtinction(True, end.time, end.kind, traj, u_traj))


@dataclass(frozen=True)
class RefugeThreshold:
    r_star: float        # clamped to (0, 1]
    unclamped: float
    v0: float
    K2: float
    note: str = ""


def refuge_threshold(x1_0: float, p: ModelParams, K2: float | None = None) -> RefugeThreshold:
    """Refuge fraction below which the prey persists from x1_0.

    Needs 0 < x1_0 < a1/b1 (so v0 = 1/x1_0 - b1/a1 > 0).  K2 defaults to the
    dissipative predator ceiling of dissipative_bound_K2.  An unclamped value
    >= 1 means every admissible refuge fraction (r <= 1, even r = 1, i.e.
    no refuge at all) already guarantees persistence.
    """
    if not (0.0 < x1_0 < p.carrying_capacity):
        raise DomainError(
            f"refuge threshold needs 0 < x1_0 < a1/b1 = {p.carrying_capacity!r}, "
            f"got {x1_0!r}")
    if K2 is None:
        K2 = dissipative_bound_K2(p).K2
    check_positive_finite("K2", K2)
    v0 = 1.0 / x1_0 - p.b1 / p.a1
    raw = (p.a1 * p.d ** p.m1 * v0
           / (p.w0 * (p.b1 / p.a1 + v0) ** (2.0 - p.m1) * K2 ** p.m2)) ** (1.0 / p.m1)
    if raw >= 1.0:
        return RefugeThreshold(1.0, raw, v0, K2,
                               "threshold exceeds 1: persistence holds for any "
                               "refuge fraction, including none (r = 1)")
    return RefugeThreshold(raw, raw, v0, K2)


@dataclass(frozen=True)
class PersistenceVerdict:
    persistent: bool
    horizon: float
    min_x1: float
    extinct_at: float | None
    termination: TerminationKind


def verify_persistence(
    p: ModelParams,
    ic: State,
    opts: IntegratorOptions | None = None,
) -> PersistenceVerdict:
    """Run simulate_extinction's fate run to opts.horizon (default 500) and
    report whether the prey survived; min_x1 is the run's least x1, its
    states mapped back from y for m1 < 1.  A run that decides no fate raises
    DomainError, and so does a prey at or below the extinction threshold,
    which the run would report, already gone, as persistent."""
    if opts is None:
        opts = IntegratorOptions(horizon=500.0)
    _check_prey_above_threshold(ic, opts)
    traj = _in_x1(p, _fate_run(p, ic, opts))
    end = traj.termination
    died = _prey_died(end)
    low = min(traj.x1)
    return PersistenceVerdict(not died, opts.horizon, low, end.time if died else None, end.kind)


def _check_prey_above_threshold(ic: State, opts: IntegratorOptions) -> None:
    if not ic.x1 > opts.extinction_threshold:
        raise DomainError(
            f"initial prey x1 = {ic.x1!r} is at or below the extinction threshold "
            f"{opts.extinction_threshold!r}; its extinction event fires only "
            "on a fall through the threshold")
