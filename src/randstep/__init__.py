"""Randomized backward Euler time stepping for ODEs and parabolic PDEs
with time-irregular right-hand sides, plus a Monte Carlo convergence
harness."""

from .rand_nodes import (
    DEFAULT_MASTER_SEED,
    NodeStream,
    SeedSpec,
    TimeGrid,
    node,
)
from .ode_solver import (
    NonConvergence,
    OdeProblem,
    StepRestrictionViolated,
    StepScheme,
    Trajectory,
    conditional_mean_residual,
    local_residual,
    solve,
)
from .fem1d import (
    Mesh,
    TriDiag,
    assemble_mass,
    assemble_nonlinearity,
    assemble_nonlinearity_jacobian,
    assemble_stiffness,
    l2_error,
    l2_project,
    load_vector,
    tridiag_solve,
)
from .pde_solver import (
    EnergyReport,
    PdeProblem,
    energy_bound_check,
    pde_solve,
)
from .problems import (
    ProtheroRobinsonSpec,
    SawtoothSpec,
    TruncatedPowerSpec,
    b_trunc,
    b_trunc_prime,
    pde_exact,
    pde_forcing,
    pde_initial,
    pde_w,
    pde_wdot,
    pr_freeze,
    pr_rhs,
    prothero_robinson_problem,
    sawtooth_g,
    sawtooth_gdot,
    semilinear_heat_problem,
    time_integral_problem,
)
from .harness import (
    ErrorMode,
    ErrorRow,
    ErrorTable,
    ExperimentSpec,
    FIGURES,
    RateFit,
    fit_rate,
    reproduce_figure,
    residual_study,
    run_mc,
)
from .report import emit_svg_loglog

__version__ = "0.1.0"
