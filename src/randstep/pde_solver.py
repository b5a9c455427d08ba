"""Fully discrete scheme for the semilinear parabolic benchmark.

Each step solves, in P1 coordinates,

    (M + k S) U + k N(U) = M U_prev + k F(xi),   F_i = int f(xi, x) psi_i dx

which realizes U^n + k A_h(xi_n) U^n = k P_h f(xi_n) + U^{n-1} without an
extra mass solve.  The operator is monotone, so no step restriction
applies.  The diffusion here is constant, hence S is assembled once; the
step interface still receives the evaluation time so a time-dependent
assembler can be swapped in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .fem1d import (
    DiscreteField,
    Mesh,
    TriDiag,
    _coeffs,
    _element_points,
    _gauss_01,
    assemble_mass,
    assemble_nonlinearity,
    assemble_nonlinearity_jacobian,
    assemble_stiffness,
    l2_project,
    load_vector,
    tridiag_solve,
)
from .ode_solver import (
    NewtonConfig,
    StepScheme,
    _damped_newton,
    _march,
)
from .rand_nodes import TimeGrid


@dataclass
class PdeProblem:
    """Semilinear parabolic data: u_t - u_xx + b(u) = f, zero Dirichlet BC.

    ``forcing(t, x)``, ``initial(x)`` and ``exact(t, x)`` must accept
    numpy arrays of spatial points; ``nonlinearity`` and its derivative
    act pointwise.  ``pde_solve`` passes ``t`` to ``forcing`` as an array
    of shape (steps, replicas, 1, 1), and the sweep passes it to
    ``exact`` as one of shape (times, 1, 1, 1); both broadcast against
    the points.  A forcing that ignores ``t`` may return the points'
    shape; ``pde_step`` passes a float.  The monotonicity constant mu
    enters only the energy diagnostic.
    """

    forcing: Callable
    nonlinearity: Callable
    nonlinearity_prime: Callable
    initial: Callable
    final_time: float
    exact: Optional[Callable] = None
    monotonicity: float = 1.0

    def __post_init__(self):
        if not self.final_time > 0:
            raise ValueError("final_time must be positive")
        if not self.monotonicity > 0:
            raise ValueError("monotonicity constant must be positive")


@dataclass
class PdeTrajectory:
    """Discrete paths of an (R, N) node block: fields[n, r] holds the
    nodal coefficients of row r's U^n, and column r of the (N, R) counts
    its Newton iterations."""

    grid: TimeGrid
    fields: np.ndarray  # (N+1, R, m)
    newton_iteration_counts: np.ndarray  # (N, R)


#: Steps per block of forcing loads (and of time nodes per error
#: evaluation in the sweeps).  A block holds (block, R, m+1, q) quadrature
#: temporaries: longer blocks save numpy calls but cost memory.
STEP_BLOCK = 16


def _fem_parts(system, k, mesh, problem):
    """(residual, update, norm) of system @ U + k N(U) = rhs for ``_damped_newton``.

    The one datum of a step is the (R, m) right-hand side; the update
    solves with the tridiagonal Jacobian and the norm is the max norm.
    """
    b = problem.nonlinearity
    b_prime = problem.nonlinearity_prime

    def residual(u, rhs):
        return system.matvec(u) + k * assemble_nonlinearity(mesh, b, u) - rhs

    def update(u, r, rhs):
        jac = system.plus(assemble_nonlinearity_jacobian(mesh, b_prime, u), scale=k)
        return tridiag_solve(jac, r)

    return residual, update, lambda r: np.abs(r).max(axis=1)


def _newton_fem(parts, rhs, u_start, cfg):
    """One implicit step of every row: ``_damped_newton`` on ``parts``.

    ``rhs`` and ``u_start`` are (R, m); returns (U, iterations) with
    iterations (R,).  A row's tolerance scales with the norm of its
    right-hand side.
    """
    norm = parts[2]
    return _damped_newton(*parts, u_start, (rhs,), cfg, scale=norm(rhs))


def pde_step(
    mass: TriDiag,
    stiffness: TriDiag,
    k: float,
    xi: float,
    u_prev,
    problem: PdeProblem,
    cfg: Optional[NewtonConfig] = None,
) -> DiscreteField:
    """One implicit step of the fully discrete scheme at evaluation time xi."""
    if not k > 0:
        raise ValueError("step size must be positive")
    cfg = cfg or NewtonConfig()
    mesh = Mesh(mass.size)
    u0 = _coeffs(u_prev)
    system = mass.plus(stiffness, scale=k)
    rhs = mass.matvec(u0) + k * load_vector(mesh, lambda x: problem.forcing(xi, x))
    parts = _fem_parts(system, k, mesh, problem)
    u, _ = _newton_fem(parts, rhs[None], u0[None], cfg)
    # a converged start iterate comes back as is: a view of the caller's u_prev
    return DiscreteField(u[0].copy())


def pde_solve(
    problem: PdeProblem,
    mesh: Mesh,
    grid: TimeGrid,
    scheme: StepScheme,
    nodes: np.ndarray,
    cfg: Optional[NewtonConfig] = None,
) -> PdeTrajectory:
    """March the scheme from U^0 = P_h u0 over an (R, N) block of nodes.

    As for ``ode_solver.solve``, the R rows march together as an (R, m)
    field, row r evaluating the forcing of step n at nodes[r, n-1], so
    randomized replicas and the classical row of grid points can share
    one batch.  Every row gets the same bits as when marched alone.  The
    loads of STEP_BLOCK steps are assembled at once, before their Newton
    solves.  ``_march`` names the step and row of a failure.
    """
    if scheme is StepScheme.RANDOMIZED_FORWARD_EULER:
        raise ValueError("no explicit scheme is defined for the PDE benchmark")
    cfg = cfg or NewtonConfig()
    k = grid.step_size
    m = mesh.interior_nodes
    mass = assemble_mass(mesh)
    parts = _fem_parts(mass.plus(assemble_stiffness(mesh), scale=k), k, mesh, problem)
    forcing = problem.forcing

    def loads(t):
        t = t[..., None, None]
        load = load_vector(mesh, lambda x: forcing(t, x))
        # a forcing that ignores t gives one load for every step and row
        return k * np.broadcast_to(load, t.shape[:2] + (m,))

    def step(load, u):
        return _newton_fem(parts, mass.matvec(u) + load, u, cfg)

    u0 = l2_project(mesh, problem.initial).coefficients
    fields, counts = _march(grid, problem.final_time, nodes, u0, STEP_BLOCK, loads, step)
    return PdeTrajectory(grid=grid, fields=fields, newton_iteration_counts=counts)


@dataclass(frozen=True)
class EnergyReport:
    """Accumulated left- and right-hand data of the discrete energy bound.

    left = max_n |U^n|_M^2 + sum_j |U^j - U^{j-1}|_M^2
           + k*mu*sum_j |U^j|_S^2
    right-hand data = T + |U^0|_M^2 + L2(0,T;L2)-norm^2 of the forcing.
    """

    max_state_energy: float
    increment_sum: float
    dissipation_sum: float
    initial_energy: float
    forcing_energy: float
    horizon: float
    flagged: bool

    @property
    def left_side(self) -> float:
        return self.max_state_energy + self.increment_sum + self.dissipation_sum

    @property
    def right_side_data(self) -> float:
        return self.horizon + self.initial_energy + self.forcing_energy


#: Growth beyond this multiple of the right-side data flags instability.
ENERGY_FLAG_FACTOR = 1e6


def forcing_energy(
    problem: PdeProblem, mesh: Mesh, grid: TimeGrid, quad_points: int = 4
) -> float:
    """Quadrature estimate of the squared L2(0,T; L2(0,1)) forcing norm.

    Gauss rules per step in time and per element in space; the forcing
    is evaluated at the time points of STEP_BLOCK steps at once.
    """
    s, w = _gauss_01(quad_points)
    x = _element_points(mesh, s)
    k = grid.step_size
    starts = grid.nodes()[:-1, None]
    total = 0.0
    for lo in range(0, grid.steps, STEP_BLOCK):
        t = (starts[lo : lo + STEP_BLOCK] + k * s)[..., None, None]
        f = np.broadcast_to(problem.forcing(t, x), t.shape[:2] + x.shape)
        space = mesh.spacing * (f * f @ w).sum(axis=-1)
        total += k * float((space @ w).sum())
    return total


def energy_bound_check(trajectory: PdeTrajectory, problem: PdeProblem) -> EnergyReport:
    """Evaluate the a priori energy accumulators for a one-row path.

    The terms of step n are |U^n|_M^2, |U^n - U^{n-1}|_M^2 and |U^n|_S^2,
    where |.|_M is the L2 norm and |.|_S the H1 seminorm of the P1
    function.  Flags a run whose left side exceeds 1e6 times the
    right-side data; no closed-form constant is available, so this is a
    growth alarm, not a sharp bound.
    """
    if trajectory.fields.shape[1] != 1:
        raise ValueError("energy_bound_check takes the path of a single replica")
    fields = trajectory.fields[:, 0]
    mesh = Mesh(fields.shape[1])
    mass = assemble_mass(mesh)

    def squared(u, matrix):
        return (u * matrix.matvec(u)).sum(axis=-1)

    u = fields[1:]
    initial_energy = float(squared(fields[0], mass))
    max_state = max(initial_energy, float(squared(u, mass).max()))
    increment = float(squared(np.diff(fields, axis=0), mass).sum())
    k = trajectory.grid.step_size
    dissipation = k * problem.monotonicity * float(
        squared(u, assemble_stiffness(mesh)).sum()
    )
    f_energy = forcing_energy(problem, mesh, trajectory.grid)
    left = max_state + increment + dissipation
    right = trajectory.grid.final_time + initial_energy + f_energy
    return EnergyReport(
        max_state_energy=max_state,
        increment_sum=increment,
        dissipation_sum=dissipation,
        initial_energy=initial_energy,
        forcing_energy=f_energy,
        horizon=trajectory.grid.final_time,
        flagged=left > ENERGY_FLAG_FACTOR * right,
    )
