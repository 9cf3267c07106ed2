"""Command-line driver: scenario config in, CSV artifacts + report out.

    predprey <command> --config scenario.ini --out results/

Commands: simulate, equilibria, sweep, separatrix, extinction,
refuge-threshold, verify-assumptions.  Exit codes: 0 success, 1 domain error
(the configuration is well formed but the requested computation does not
apply), 2 malformed/invalid configuration, a config file that cannot be read,
or an output directory or file that cannot be made or written.  Output files
are byte-identical across repeated runs on the same config.  In one process,
main() builds its argument parser on the first call and reuses it.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys

from . import csvio
from .bifurcation import (
    branch_sweep,
    detect_hopf,
    detect_saddle_node,
    detect_transcritical,
    transcritical_r,
)
from .config import ConfigError, ScenarioConfig, load_config
from .equilibria import (
    interior_equilibria,
    predator_free_equilibrium,
    trivial_equilibrium,
)
# extinction_ic_condition and integrate_u_system are unused here; they stay
# because the bench trace shim patches them
from .extinction import (  # noqa: F401
    dissipative_bound_K2,
    extinction_ic_condition,
    refuge_threshold,
    simulate_extinction,
)
from .geometry import (
    separatrix_relative_position,
    trace_stable_separatrix_E0,
    trace_unstable_manifold_E1,
)
from .integrate import integrate, integrate_u_system  # noqa: F401
from .model import DomainError, ParameterError, verify_assumptions

__all__ = ["main"]

_F = csvio.fmt_float


def _need(section, name: str):
    if section is None:
        raise ConfigError([f"[{name}]: section required for this command"])
    return section


def _cmd_simulate(cfg: ScenarioConfig, out: str) -> int:
    spec = _need(cfg.simulate, "simulate")
    traj = integrate(cfg.params, spec.ic, spec.integrator)
    csvio.write_trajectory(traj, os.path.join(out, "trajectory.csv"))
    term = traj.termination
    csvio.write_report([
        "command: simulate",
        f"initial: {_F(spec.ic.x1)},{_F(spec.ic.x2)}",
        f"horizon: {_F(spec.integrator.horizon)}",
        f"termination: {term.kind.value}",
        f"termination_time: {_F(term.time)}",
        f"final_x1: {_F(traj.final_state.x1)}",
        f"final_x2: {_F(traj.final_state.x2)}",
        f"steps: {len(traj) - 1}",
    ], os.path.join(out, "report.txt"))
    print(f"termination: {term.kind.value} at t = {_F(term.time)}")
    print(f"wrote {os.path.join(out, 'trajectory.csv')}")
    return 0


def _cmd_equilibria(cfg: ScenarioConfig, out: str) -> int:
    eqs = [trivial_equilibrium(cfg.params), predator_free_equilibrium(cfg.params)]
    interior = interior_equilibria(cfg.params)
    eqs.extend(interior)
    csvio.write_equilibria(eqs, os.path.join(out, "equilibria.csv"))
    lines = ["command: equilibria", f"interior_count: {len(interior)}"]
    for eq in eqs:
        lines.append(
            f"{eq.kind.value}: ({_F(eq.point.x1)}, {_F(eq.point.x2)}) "
            f"{eq.classification.value}")
    csvio.write_report(lines, os.path.join(out, "report.txt"))
    print(f"{len(interior)} interior equilibria; wrote "
          f"{os.path.join(out, 'equilibria.csv')}")
    return 0


def _cmd_sweep(cfg: ScenarioConfig, out: str) -> int:
    spec = _need(cfg.sweep, "sweep")
    branch = branch_sweep(cfg.params, spec.param, spec.lo, spec.hi, spec.n)
    events = detect_saddle_node(branch)
    events += detect_hopf(branch)
    events += detect_transcritical(branch)
    events.sort(key=lambda e: (e.critical_value, e.kind.value))
    csvio.write_branch(branch, os.path.join(out, "branch.csv"))
    csvio.write_events(events, os.path.join(out, "events.csv"))
    lines = [
        "command: sweep",
        f"param: {spec.param}",
        f"range: {_F(spec.lo)},{_F(spec.hi)}",
        f"samples: {spec.n}",
        f"chains: {len(branch.chains)}",
        f"events: {len(events)}",
    ]
    for e in events:
        lines.append(f"event: {e.kind.value} {e.param_name} = {_F(e.critical_value)} "
                     f"at ({_F(e.point.x1)}, {_F(e.point.x2)})")
    if spec.param == "r" and cfg.params.m2 == 1.0 and cfg.params.w1 > cfg.params.a2:
        tc = transcritical_r(cfg.params)
        lines.append(f"flag: transcritical closed form as_derived = {_F(tc.as_derived)}, "
                     f"as_printed = {_F(tc.as_printed)} ({tc.note})")
    csvio.write_report(lines, os.path.join(out, "report.txt"))
    print(f"{len(events)} events on {spec.param} in [{_F(spec.lo)}, {_F(spec.hi)}]; "
          f"wrote {os.path.join(out, 'events.csv')}")
    return 0


def _cmd_separatrix(cfg: ScenarioConfig, out: str) -> int:
    # the manifold first: it refuses every m2 < 1 set before any probe launch
    wu = trace_unstable_manifold_E1(cfg.params, cfg.separatrix.integrator)
    ws = trace_stable_separatrix_E0(cfg.params, opts=cfg.separatrix)
    cmp_ = separatrix_relative_position(ws, wu)
    csvio.write_curve(ws, os.path.join(out, "separatrix_ws.csv"))
    csvio.write_curve(wu, os.path.join(out, "manifold_wu.csv"))
    csvio.write_report([
        "command: separatrix",
        f"extinction_threshold: {_F(cfg.separatrix.integrator.extinction_threshold)}",
        f"verdict: {cmp_.verdict.value}",
        f"margin: {_F(cmp_.margin)}",
        f"x1_range: {_F(cmp_.x1_range[0])},{_F(cmp_.x1_range[1])}",
        f"closest_gap_at_x1: {_F(cmp_.gap_at[0])}",
        f"closest_gap: {_F(cmp_.gap_at[1])}",
        f"manifold_end: {wu.end.kind.value}",
        f"contradicted_probes: {cmp_.contradicted}",
    ], os.path.join(out, "report.txt"))
    print(f"verdict: {cmp_.verdict.value} (margin {_F(cmp_.margin)})")
    return 0


def _cmd_extinction(cfg: ScenarioConfig, out: str) -> int:
    spec = _need(cfg.extinction, "extinction")
    verdict = simulate_extinction(cfg.params, spec.ic, cfg.integrator)
    sim = verdict.simulated
    term = sim.trajectory.termination
    csvio.write_trajectory(sim.trajectory, os.path.join(out, "trajectory.csv"))
    lines = [
        "command: extinction",
        f"initial: {_F(spec.ic.x1)},{_F(spec.ic.x2)}",
        f"criterion_lhs: {_F(verdict.lhs)}",
        f"criterion_rhs: {_F(verdict.rhs)}",
        f"criterion_met: {str(verdict.criterion_met).lower()}",
        f"note: {verdict.note}",
        f"termination: {term.kind.value}",
        f"termination_time: {_F(term.time)}",
    ]
    if sim.u_trajectory is not None:
        u_term = sim.u_trajectory.termination
        csvio.write_trajectory(sim.u_trajectory, os.path.join(out, "u_trajectory.csv"),
                               header="t,u,x2")
        lines.append(f"u_termination: {u_term.kind.value}")
        lines.append(f"u_termination_time: {_F(u_term.time)}")
    csvio.write_report(lines, os.path.join(out, "report.txt"))
    print(f"criterion_met: {str(verdict.criterion_met).lower()}; "
          f"termination: {term.kind.value} at t = {_F(term.time)}")
    return 0


def _cmd_refuge_threshold(cfg: ScenarioConfig, out: str) -> int:
    spec = _need(cfg.refuge, "refuge")
    k2 = spec.k2
    rep = None
    if k2 is None:
        rep = dissipative_bound_K2(cfg.params, eps1=spec.eps1)
        k2 = rep.K2
    th = refuge_threshold(spec.x1_0, cfg.params, K2=k2)
    lines = [
        "command: refuge-threshold",
        f"x1_0: {_F(spec.x1_0)}",
        f"K2: {_F(th.K2)}",
        f"v0: {_F(th.v0)}",
        f"r_star: {_F(th.r_star)}",
        f"r_star_unclamped: {_F(th.unclamped)}",
    ]
    if rep is not None:
        lines.append(f"eps1: {_F(rep.eps1)}")
        lines.append(f"K1: {_F(rep.K1)}")
    if th.note:
        lines.append(f"note: {th.note}")
    csvio.write_report(lines, os.path.join(out, "report.txt"))
    print(f"r_star: {_F(th.r_star)}")
    return 0


def _cmd_verify_assumptions(cfg: ScenarioConfig, out: str) -> int:
    checks = verify_assumptions(cfg.params)
    lines = ["command: verify-assumptions"]
    lines += [f"{c.name}: {c.status} -- {c.detail}" for c in checks]
    csvio.write_report(lines, os.path.join(out, "report.txt"))
    n_pass = sum(1 for c in checks if c.status == "pass")
    print(f"{n_pass}/{len(checks)} assumptions pass "
          f"({sum(1 for c in checks if c.status == 'not applicable')} not applicable)")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "equilibria": _cmd_equilibria,
    "sweep": _cmd_sweep,
    "separatrix": _cmd_separatrix,
    "extinction": _cmd_extinction,
    "refuge-threshold": _cmd_refuge_threshold,
    "verify-assumptions": _cmd_verify_assumptions,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="predprey",
        description="Predator-prey dynamics with generalized response and prey refuge.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="scenario INI file")
        sp.add_argument("--out", required=True, help="output directory")
    return ap


def main(argv: list[str] | None = None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        cfg = load_config(ns.config)
        os.makedirs(ns.out, exist_ok=True)
        return _COMMANDS[ns.command](cfg, ns.out)
    except ConfigError as exc:
        for e in exc.errors:
            print(f"config error: {e}", file=sys.stderr)
        return 2
    except (DomainError, ParameterError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # --out names a file, or an output name is a directory
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
