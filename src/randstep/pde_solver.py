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
    assemble_mass,
    assemble_nonlinearity,
    assemble_nonlinearity_jacobian,
    assemble_stiffness,
    l2_project,
    load_vector,
    tridiag_solve,
)
from .ode_solver import (
    MAX_DAMPING_HALVINGS,
    NewtonConfig,
    NonConvergence,
    StepScheme,
)
from .rand_nodes import NodeStream, TimeGrid


@dataclass
class PdeProblem:
    """Semilinear parabolic data: u_t - u_xx + b(u) = f, zero Dirichlet BC.

    ``forcing``/``initial``/``exact`` must accept numpy arrays of spatial
    points; ``nonlinearity`` and its derivative act pointwise.  The
    structural constants (monotonicity mu, Lipschitz bound, bound on the
    operator at zero) are metadata for diagnostics.
    """

    forcing: Callable
    nonlinearity: Callable
    nonlinearity_prime: Callable
    initial: Callable
    final_time: float
    exact: Optional[Callable] = None
    monotonicity: float = 1.0
    lipschitz: Optional[float] = None
    rhs_bound: Optional[float] = None

    def __post_init__(self):
        if not self.final_time > 0:
            raise ValueError("final_time must be positive")
        if not self.monotonicity > 0:
            raise ValueError("monotonicity constant must be positive")


@dataclass
class PdeTrajectory:
    """Discrete path: fields[n] holds the nodal coefficients of U^n.

    energy_log[n-1] = (|U^n|_M^2, |U^n - U^{n-1}|_M^2, |U^n|_S^2) where
    |.|_M is the L2 norm and |.|_S the H1 seminorm of the P1 function.
    """

    grid: TimeGrid
    fields: np.ndarray  # (N+1, m)
    nodes_used: np.ndarray
    energy_log: np.ndarray  # (N, 3)
    newton_iteration_counts: np.ndarray
    scheme: StepScheme = StepScheme.RANDOMIZED_BACKWARD_EULER

    def field(self, n: int) -> DiscreteField:
        return DiscreteField(self.fields[n])


def _newton_fem(system, mass, k, mesh, problem, rhs, u_start, cfg):
    """Damped Newton for system @ U + k N(U) = rhs; returns (U, iterations)."""
    b = problem.nonlinearity
    b_prime = problem.nonlinearity_prime
    tol = cfg.abs_tol + cfg.rel_tol * float(np.abs(rhs).max())
    u = u_start.copy()
    r = system.matvec(u) + k * assemble_nonlinearity(mesh, b, u) - rhs
    rnorm = float(np.abs(r).max())
    for it in range(cfg.max_iterations):
        if rnorm <= tol:
            return u, it
        jac = system.plus(assemble_nonlinearity_jacobian(mesh, b_prime, u), scale=k)
        delta = tridiag_solve(jac, r)
        alpha = 1.0
        for _ in range(MAX_DAMPING_HALVINGS + 1):
            ut = u - alpha * delta
            rt = system.matvec(ut) + k * assemble_nonlinearity(mesh, b, ut) - rhs
            rtnorm = float(np.abs(rt).max())
            if rtnorm < rnorm:
                break
            alpha *= 0.5
        else:
            raise NonConvergence("residual not reduced after damped retries")
        u, r, rnorm = ut, rt, rtnorm
    if rnorm <= tol:
        return u, cfg.max_iterations
    raise NonConvergence(
        f"residual {rnorm:.3e} above tolerance after {cfg.max_iterations} iterations"
    )


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
    u, _ = _newton_fem(system, mass, k, mesh, problem, rhs, u0, cfg)
    return DiscreteField(u)


def pde_solve(
    problem: PdeProblem,
    mesh: Mesh,
    grid: TimeGrid,
    scheme: StepScheme,
    stream: Optional[NodeStream] = None,
    cfg: Optional[NewtonConfig] = None,
) -> PdeTrajectory:
    """March the scheme from U^0 = P_h u0; one node draw per step."""
    if scheme is StepScheme.RANDOMIZED_FORWARD_EULER:
        raise ValueError("no explicit scheme is defined for the PDE benchmark")
    if not np.isclose(grid.final_time, problem.final_time, rtol=1e-12, atol=0.0):
        raise ValueError("grid final time does not match the problem")
    if scheme.is_randomized and stream is None:
        raise ValueError(f"scheme {scheme.token} needs a node stream")
    cfg = cfg or NewtonConfig()

    n_steps = grid.steps
    k = grid.step_size
    mass = assemble_mass(mesh)
    stiffness = assemble_stiffness(mesh)
    system = mass.plus(stiffness, scale=k)

    fields = np.empty((n_steps + 1, mesh.interior_nodes))
    fields[0] = l2_project(mesh, problem.initial).coefficients
    energy = np.empty((n_steps, 3))
    counts = np.zeros(n_steps, dtype=np.int64)
    if scheme.is_randomized:
        nodes_used = grid.random_nodes([stream])[0]
        evals = nodes_used.tolist()
    else:
        nodes_used = np.empty(0)
        evals = grid.nodes()[1:].tolist()

    forcing = problem.forcing
    u = fields[0].copy()
    for n in range(1, n_steps + 1):
        t_eval = evals[n - 1]
        rhs = mass.matvec(u) + k * load_vector(mesh, lambda x: forcing(t_eval, x))
        try:
            u_next, iters = _newton_fem(system, mass, k, mesh, problem, rhs, u, cfg)
        except NonConvergence as err:
            raise NonConvergence(f"step {n}: {err}", step=n) from err
        counts[n - 1] = iters
        diff = u_next - u
        energy[n - 1] = (
            float(u_next @ mass.matvec(u_next)),
            float(diff @ mass.matvec(diff)),
            float(u_next @ stiffness.matvec(u_next)),
        )
        fields[n] = u_next
        u = u_next

    return PdeTrajectory(
        grid=grid,
        fields=fields,
        nodes_used=nodes_used,
        energy_log=energy,
        newton_iteration_counts=counts,
        scheme=scheme,
    )


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
    """Quadrature estimate of the squared L2(0,T; L2(0,1)) forcing norm."""
    s, w = np.polynomial.legendre.leggauss(quad_points)
    s = 0.5 * (s + 1.0)
    w = 0.5 * w
    sx, wx = np.polynomial.legendre.leggauss(quad_points)
    sx = 0.5 * (sx + 1.0)
    wx = 0.5 * wx
    h = mesh.spacing
    e = np.arange(mesh.interior_nodes + 1)[:, None]
    x = (e + sx[None, :]) * h
    k = grid.step_size
    total = 0.0
    for n in range(grid.steps):
        t0 = grid.node(n)
        for s_hat, w_hat in zip(s, w):
            t = t0 + k * s_hat
            f_vals = np.asarray(problem.forcing(t, x), dtype=float)
            space = h * float((f_vals * f_vals @ wx).sum())
            total += k * w_hat * space
    return total


def energy_bound_check(trajectory: PdeTrajectory, problem: PdeProblem) -> EnergyReport:
    """Evaluate the a priori energy accumulators for a computed path.

    Flags a run whose left side exceeds 1e6 times the right-side data;
    no closed-form constant is available, so this is a growth alarm, not
    a sharp bound.
    """
    mesh = Mesh(trajectory.fields.shape[1])
    mass = assemble_mass(mesh)
    u0 = trajectory.fields[0]
    initial_energy = float(u0 @ mass.matvec(u0))
    log = trajectory.energy_log
    max_state = max(initial_energy, float(log[:, 0].max())) if log.size else initial_energy
    increment = float(log[:, 1].sum()) if log.size else 0.0
    k = trajectory.grid.step_size
    dissipation = k * problem.monotonicity * float(log[:, 2].sum()) if log.size else 0.0
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
