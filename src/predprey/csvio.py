"""CSV and report serialization with bit-exact round-tripping.

Floats are written with repr-faithful 17 significant digits ('%.17g'), which
float() parses back to the identical bits; files end with a newline and
contain nothing run-dependent (no timestamps, hostnames, or paths), so a
repeated run produces byte-identical output.  None becomes the empty field.
A trajectory, most of the CLI's output bytes, is formatted in blocks of
_TRAJECTORY_BLOCK rows with one '%' operation and one write per block; its
bytes are those of one '%.17g' per field.
"""
from __future__ import annotations

from itertools import chain
from typing import Iterable, Sequence, TextIO

from .bifurcation import BifurcationEvent, Branch
from .equilibria import Equilibrium
from .geometry import PlanarCurve
from .integrate import Trajectory
from .model import DomainError, State

__all__ = [
    "fmt_float",
    "write_trajectory",
    "read_trajectory",
    "write_curve",
    "read_curve",
    "write_equilibria",
    "write_branch",
    "write_events",
    "read_events",
    "write_report",
]

TRAJECTORY_HEADER = "t,x1,x2"
CURVE_HEADER = "x1,x2"
EQUILIBRIA_HEADER = ("kind,x1,x2,classification,tr,det,"
                     "eig1_re,eig1_im,eig2_re,eig2_im")
BRANCH_HEADER = ("param,branch_id,x1,x2,tr,det,"
                 "eig1_re,eig1_im,eig2_re,eig2_im")
EVENTS_HEADER = "kind,param_name,critical_value,x1,x2,diagnostic"

_TRAJECTORY_BLOCK = 2048  # rows per formatting block
_TRAJECTORY_ROW = "%.17g,%.17g,%.17g\n"
_TRAJECTORY_BLOCK_FORMAT = _TRAJECTORY_ROW * _TRAJECTORY_BLOCK


def fmt_float(x: float | None) -> str:
    # '.17g' writes inf, -inf and nan (of either sign) as float() reads them
    if x is None:
        return ""
    return f"{x:.17g}"


def _write_rows(fh: TextIO, header: str, rows: Iterable[Sequence[str]]) -> None:
    fh.write(header + "\n")
    for row in rows:
        fh.write(",".join(row) + "\n")


def write_trajectory(traj: Trajectory, path: str, header: str = TRAJECTORY_HEADER) -> None:
    # fmt_float's format, applied to a block of rows by one '%' on the row
    # format repeated; one write per block bounds the transient string
    times, x1, x2 = traj.times, traj.x1, traj.x2
    n, k = len(times), _TRAJECTORY_BLOCK
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for i in range(0, n, k):
            j = min(i + k, n)
            fmt = _TRAJECTORY_BLOCK_FORMAT if j - i == k else _TRAJECTORY_ROW * (j - i)
            fh.write(fmt % tuple(chain.from_iterable(zip(times[i:j], x1[i:j], x2[i:j]))))


def read_trajectory(path: str) -> tuple[list[float], list[State]]:
    times: list[float] = []
    states: list[State] = []
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header.count(",") != 2:
            raise DomainError(f"unexpected trajectory header {header!r}")
        for line in fh:
            t, x1, x2 = line.rstrip("\n").split(",")
            times.append(float(t))
            states.append(State(float(x1), float(x2)))
    return times, states


def write_curve(curve: PlanarCurve, path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# {curve.label.value}\n")
        _write_rows(fh, CURVE_HEADER, (
            (fmt_float(s.x1), fmt_float(s.x2)) for s in curve.points))


def read_curve(path: str) -> list[State]:
    pts: list[State] = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#") or line == CURVE_HEADER:
                continue
            x1, x2 = line.split(",")
            pts.append(State(float(x1), float(x2)))
    return pts


def _eig_fields(eq: Equilibrium) -> tuple[str, str, str, str]:
    if eq.eigenvalues is None:
        return "", "", "", ""
    l1, l2 = eq.eigenvalues
    return (fmt_float(l1.real), fmt_float(l1.imag),
            fmt_float(l2.real), fmt_float(l2.imag))


def write_equilibria(eqs: Sequence[Equilibrium], path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        _write_rows(fh, EQUILIBRIA_HEADER, (
            (eq.kind.value, fmt_float(eq.point.x1), fmt_float(eq.point.x2),
             eq.classification.value, fmt_float(eq.trace), fmt_float(eq.det),
             *_eig_fields(eq))
            for eq in eqs))


def write_branch(branch: Branch, path: str) -> None:
    """One row per (chain, sample): param,branch_id,x1,x2,tr,det,eigs."""
    def rows():
        for cid, chain in enumerate(branch.chains):
            for (i, j) in chain:
                eq = branch.equilibria[i][j]
                yield (fmt_float(branch.samples[i]), str(cid),
                       fmt_float(eq.point.x1), fmt_float(eq.point.x2),
                       fmt_float(eq.trace), fmt_float(eq.det),
                       *_eig_fields(eq))

    with open(path, "w", newline="\n") as fh:
        _write_rows(fh, BRANCH_HEADER, rows())


def _diag_str(diag: dict[str, float]) -> str:
    return ";".join(f"{k}={fmt_float(v)}" for k, v in sorted(diag.items()))


def _diag_parse(s: str) -> dict[str, float]:
    if not s:
        return {}
    out = {}
    for item in s.split(";"):
        k, _, v = item.partition("=")
        out[k] = float(v)
    return out


def write_events(events: Sequence[BifurcationEvent], path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        _write_rows(fh, EVENTS_HEADER, (
            (e.kind.value, e.param_name, fmt_float(e.critical_value),
             fmt_float(e.point.x1), fmt_float(e.point.x2), _diag_str(e.diagnostics))
            for e in events))


def read_events(path: str) -> list[tuple[str, str, float, float, float, dict[str, float]]]:
    out = []
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("kind,"):
            raise DomainError(f"unexpected events header {header!r}")
        for line in fh:
            f = line.rstrip("\n").split(",")
            out.append((f[0], f[1], float(f[2]), float(f[3]), float(f[4]),
                        _diag_parse(f[5])))
    return out


def write_report(lines: Sequence[str], path: str) -> None:
    """Sidecar structured-text report: 'key: value' lines plus free notes.
    Callers are responsible for keeping the content run-independent."""
    with open(path, "w", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")
