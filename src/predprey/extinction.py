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

from .integrate import (
    IntegratorOptions,
    TerminationKind,
    Trajectory,
    integrate,
    integrate_u_system,
)
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
    notes: tuple[str, ...] = ()


def boundedness_bound(p: ModelParams, delta: float | None = None) -> BoundsReport:
    """Ultimate bound for Q = x1 + (w0/w1)*x2 from dQ/dt <= W1 - delta*Q.

    delta defaults to a2 (the natural choice; any 0 < delta <= a2 works).
    The differential inequality needs w0 >= w1; both standard parameter sets
    violate that, so the report flags the bound as not guaranteed there.
    """
    if delta is None:
        delta = p.a2
    if not (0.0 < delta <= p.a2):
        raise DomainError(f"delta must lie in (0, a2], got {delta!r}")
    w1_ = (p.a1 + delta) ** 2 / (4.0 * p.b1)
    notes = ()
    if p.w0 < p.w1:
        notes = ("hypothesis w0 >= w1 not satisfied; bound not guaranteed",)
    return BoundsReport(delta=delta, W1=w1_, Q_bound=w1_ / delta, notes=notes)


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
    time: float | None            # prey-extinction event time (x-chart)
    u_blowup_time: float | None   # 1/x1 blowup time (u-chart)
    rel_gap: float | None         # |T_x - T_u| / T_x
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
    """Run the criterion, then confirm dynamically in both charts.

    The (x1, x2) run reports the PreyExtinct event time T_x; the (u, x2) run
    reports the u-blowup time T_u; rel_gap carries their observed mismatch,
    and the result keeps both trajectories.  The gap is not the truncation
    depth (x1 = threshold vs x1 = 1/U_BLOWUP_CEILING) alone: the touchdown
    times at those depths differ by 1.6% (0.146953 and 0.149320 for OSC from
    (0.3, 50), from a tight scipy run), but at the default abs_tol, equal to
    the extinction threshold, the x-chart's error control is off near the
    axis and its 0.148882 is 1.3% off its own depth's time.  A prey at or
    below the extinction threshold raises DomainError: its event never
    arms, so the run could not tell extinction from survival.
    """
    if opts is None:
        opts = IntegratorOptions(horizon=100.0)
    _check_prey_above_threshold(ic, opts)
    verdict = extinction_ic_condition(ic.x1, p)
    traj = integrate(p, ic, opts)
    kind = traj.termination.kind
    if kind is TerminationKind.PREY_EXTINCT:
        t_x = traj.termination.time
        u_traj = integrate_u_system(p, State(1.0 / ic.x1, ic.x2), opts)
        if u_traj.termination.kind is TerminationKind.BLOWUP:
            t_u = u_traj.termination.time
            rel = abs(t_x - t_u) / t_x if t_x > 0.0 else None
        else:
            t_u, rel = None, None
        sim = SimulatedExtinction(True, t_x, t_u, rel, kind, traj, u_traj)
    else:
        sim = SimulatedExtinction(False, None, None, None, kind, traj)
    return replace(verdict, simulated=sim)


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
    """Integrate to opts.horizon (default 500) and report whether the prey
    survived.  A prey at or below the extinction threshold raises
    DomainError: its event never arms, so the run would report a prey
    that is already gone as persistent."""
    if opts is None:
        opts = IntegratorOptions(horizon=500.0)
    _check_prey_above_threshold(ic, opts)
    traj = integrate(p, ic, opts)
    kind = traj.termination.kind
    min_x1 = min(traj.x1)
    if kind is TerminationKind.PREY_EXTINCT:
        return PersistenceVerdict(False, opts.horizon, min_x1, traj.termination.time, kind)
    if kind in (TerminationKind.HORIZON_REACHED, TerminationKind.PREDATOR_EXTINCT):
        return PersistenceVerdict(True, opts.horizon, min_x1, None, kind)
    raise DomainError(f"persistence run failed: {traj.termination!r}")


def _check_prey_above_threshold(ic: State, opts: IntegratorOptions) -> None:
    if not ic.x1 > opts.extinction_threshold:
        raise DomainError(
            f"initial prey x1 = {ic.x1!r} is at or below the extinction threshold "
            f"{opts.extinction_threshold!r}; its extinction event cannot arm")
