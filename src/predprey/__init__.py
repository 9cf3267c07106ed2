"""Predator-prey dynamics with a generalized response and a prey refuge.

Library layout:

    model        -- parameters, vector field (x, u and y charts), assumption audit
    integrate    -- adaptive RK with axis-extinction events
    equilibria   -- closed forms, interior root isolation, Jacobian, classification
    geometry     -- nullclines, unstable manifold of E1, extinction separatrix
    bifurcation  -- parameter sweeps; saddle-node / Hopf / transcritical
    extinction   -- bounds, finite-time extinction criterion, refuge threshold
    config, csvio, cli -- scenario files, serialization, command line
"""
from .bifurcation import (
    BifurcationEvent,
    BifurcationKind,
    Branch,
    branch_sweep,
    detect_hopf,
    detect_saddle_node,
    detect_transcritical,
    first_lyapunov_coefficient,
    hopf_a1_fixed_point,
    hopf_critical_a1,
    transcritical_r,
)
from .equilibria import (
    Classification,
    Equilibrium,
    EquilibriumKind,
    classify,
    interior_equilibria,
    jacobian,
    predator_free_equilibrium,
    predator_nullcline_x1,
    trivial_equilibrium,
    x2_of_x1,
)
from .extinction import (
    BoundsReport,
    ExtinctionVerdict,
    PersistenceVerdict,
    RefugeThreshold,
    boundedness_bound,
    dissipative_bound_K2,
    extinction_ic_condition,
    refuge_threshold,
    simulate_extinction,
    verify_persistence,
)
from .geometry import (
    CurveLabel,
    PlanarCurve,
    SeparatrixComparison,
    SeparatrixOptions,
    Verdict,
    predator_nullcline,
    prey_nullcline,
    psi,
    separatrix_boundary_x2,
    separatrix_relative_position,
    trace_stable_separatrix_E0,
    trace_unstable_manifold_E1,
)
from .integrate import (
    IntegratorOptions,
    Termination,
    TerminationKind,
    Trajectory,
    integrate,
    integrate_u_system,
)
from .model import (
    AssumptionCheck,
    DomainError,
    ModelParams,
    ParameterError,
    State,
    eval_f,
    eval_g,
    make_rhs,
    make_u_rhs,
    make_y_rhs,
    validate_params,
    verify_assumptions,
    with_params,
)

__version__ = "0.1.0"
