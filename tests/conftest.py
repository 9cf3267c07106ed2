from __future__ import annotations

import math

import pytest

from predprey import ModelParams, transcritical_r, with_params
from predprey.equilibria import interior_scan_function


@pytest.fixture
def osc_params() -> ModelParams:
    # Unique interior repeller with a surrounding limit cycle.
    return ModelParams(a1=0.6, a2=1.0, b1=0.063, w0=1.0, w1=2.0,
                       d=2.0, m1=0.8, m2=1.0)


@pytest.fixture
def bistable_params() -> ModelParams:
    # Interior saddle + stable node pair; both exponents fractional.
    return ModelParams(a1=0.5, a2=0.7, b1=0.05, w0=0.2, w1=4.0,
                       d=0.2, m1=0.5, m2=0.5)


@pytest.fixture
def transcritical_edge_params() -> ModelParams:
    # The transcritical edge, r = r1* * (1 + 1e-9): the closed-form interior
    # root sits at x1/cap = 1 - 1.0e-9, one ulp below the last point of a
    # dense scan of the window, where F is -1e-25, rounding noise of the
    # same sign as the cell before, so no scan of 16, 200 or 2000 points
    # sees the sign change.  Found by drawing rates log-uniform on [0.1, 10]
    # and m1 uniform on [0.01, 1] with m2 = 1 (random.Random(1), draw 1060).
    p = ModelParams(a1=1.6000391345927474, a2=1.9753110598202042,
                    b1=3.1599556125786648, w0=4.187597160591575,
                    w1=5.000220804051425, d=0.13080467954864736,
                    m1=0.4103848419547926, m2=1.0)
    return with_params(p, r=transcritical_r(p).as_derived * (1 + 1e-9))


# --------------------------------------------------------------------------
# The dense-scan oracle for interior equilibria: F's sign changes on an
# even grid over the window 1e-9*cap ... (1-1e-9)*cap, each bisected down
# to adjacent floats.  It cannot see two roots inside one grid cell.

def dense_scan_roots(p: ModelParams, points: int) -> list[float]:
    F = interior_scan_function(p)
    cap = p.carrying_capacity
    xs = [cap * (1e-9 + (1.0 - 2e-9) * k / (points - 1)) for k in range(points)]
    vals = [F(x) for x in xs]
    roots = [x for x, v in zip(xs, vals) if v == 0.0]
    for a, b, fa, fb in zip(xs, xs[1:], vals, vals[1:]):
        if fa * fb < 0.0:
            while math.nextafter(a, b) < b:
                m = 0.5 * (a + b)
                fm = F(m)
                if fm == 0.0:
                    a = m
                    break
                if (fm < 0.0) == (fa < 0.0):
                    a = m
                else:
                    b = m
            roots.append(a)
    return sorted(roots)


def match_dense_scan(got: list[float], p: ModelParams, points: int) -> list[float]:
    """Check the roots `got` against the oracle on `points` grid points:
    every oracle root is in `got` within 1e-9 relative, and the roots the
    oracle cannot see come in pairs sharing one grid cell.  Returns those."""
    extra = list(got)
    for x in dense_scan_roots(p, points):
        near = [g for g in extra if abs(g - x) <= 1e-9 * x]
        assert near, f"scan root {x!r} missing from {got}"
        extra.remove(near[0])
    cap = p.carrying_capacity
    cells = sorted(int((x / cap - 1e-9) / (1.0 - 2e-9) * (points - 1)) for x in extra)
    assert cells[::2] == cells[1::2], f"unpaired extra roots {extra}"
    return extra


@pytest.fixture(scope="session")
def dense_scan():
    """match_dense_scan(got, p, points), the dense-scan oracle check."""
    return match_dense_scan


@pytest.fixture(scope="session")
def scan_roots():
    """dense_scan_roots(p, points), the dense-scan oracle's roots."""
    return dense_scan_roots
