from __future__ import annotations

import pytest

from predprey import ModelParams, transcritical_r, with_params


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
    # ROADMAP item 4's transcritical edge, r = r1* * (1 + 1e-9): the
    # closed-form interior root sits one ulp below the last scan point,
    # where F is -4e-25, rounding noise of the same sign as the cell
    # before, so no scan sees the sign change.
    p = ModelParams(a1=0.7776324733504058, a2=2.7738314292695896,
                    b1=0.28676387647039736, w0=7.772153889796396,
                    w1=6.351187222672731, d=0.115127736469572,
                    m1=0.05396048354285652, m2=1.0)
    return with_params(p, r=transcritical_r(p).as_derived * (1 + 1e-9))
