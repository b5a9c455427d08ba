"""Fully discrete scheme for the semilinear parabolic benchmark.

Each step solves, in P1 coordinates,

    (M + k S) U + k N(U) = M U_prev + k F(xi),   F_i = int f(xi, x) psi_i dx

which realizes U^n + k A_h(xi_n) U^n = k P_h f(xi_n) + U^{n-1} without an
extra mass solve.  The operator is monotone, so no step restriction
applies.  The diffusion here is constant, hence S is assembled once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .fem1d import (
    LOAD_POINTS,
    NONLINEARITY_POINTS,
    Mesh,
    _element_points,
    _element_values,
    _gauss_01,
    _weighted_sum,
    assemble_mass,
    assemble_nonlinearity,
    assemble_nonlinearity_jacobian,
    assemble_stiffness,
    l2_project,
    load_vector,
    tridiag_solve,
)
from .ode_solver import (StepScheme, Trajectory, _damped_newton, _each_step, _march,
                         _node_blocks)
from .rand_nodes import TimeGrid


@dataclass
class PdeProblem:
    """Semilinear parabolic data: u_t - u_xx + b(u) = f, zero Dirichlet BC.

    ``forcing(t, x)``, ``initial(x)`` and ``exact(t, x)`` must accept
    numpy arrays of spatial points; ``nonlinearity`` and its derivative
    act pointwise.  ``pde_solve`` passes ``t`` to ``forcing`` as an array
    of shape (steps, rows, 1, 1), and the sweep passes it to ``exact`` as
    one of shape (times, step sizes, 1, 1, 1); both broadcast against
    the (q, m+1) array of quadrature points, Gauss point by element.  A
    forcing that ignores ``t`` may return the points' shape or a
    constant.  Time runs over [0, 1].  With the H^1 seminorm as the
    V-norm the diffusion part is monotone with constant mu = 1, the
    value that the energy diagnostic uses.
    """

    forcing: Callable
    nonlinearity: Callable
    nonlinearity_prime: Callable
    initial: Callable
    exact: Optional[Callable] = None


#: Steps per block of forcing loads (and of time nodes per error
#: evaluation in the sweeps).  A block holds (block, R, q, m+1) quadrature
#: temporaries: longer blocks save numpy calls but cost memory.
STEP_BLOCK = 16


def _fem_parts(mesh, problem):
    """(residual, update, norm) of system @ U + k N(U) = rhs for ``_damped_newton``.

    The data of a step are the rows' (R, m) right-hand sides, their
    systems M + kS and their (R, 1) step sizes k; the update
    solves with the tridiagonal Jacobian and the norm is the max norm.
    Each iterate is evaluated once: a residual at the last residual's
    iterate (a step starts at the last step's root) reuses its operator
    value system @ U + k N(U), and the Jacobian there its P1 values at the
    Gauss points, with the bits of evaluating afresh.
    """
    b = problem.nonlinearity
    b_prime = problem.nonlinearity_prime
    # Keyed by array identity: sound because ``_damped_newton`` writes into
    # a trial iterate only after the damped rows' residual replaced the
    # entry, and an iterate's rows, so their systems, never change.
    last = [None, None, None]  # iterate, operator value, element values

    def residual(u, rhs, system, k):
        if u is not last[0]:
            values = _element_values(mesh, u, NONLINEARITY_POINTS)
            op = system.matvec(u) + k * assemble_nonlinearity(mesh, b, u, values)
            last[:] = u, op, values
        return last[1] - rhs

    def update(u, r, rhs, system, k):
        values = last[2] if u is last[0] else None
        jac = assemble_nonlinearity_jacobian(mesh, b_prime, u, values)
        return tridiag_solve(system.plus(jac, scale=k), r)

    return residual, update, lambda r: np.abs(r).max(axis=1)


def _newton_fem(parts, rhs, u_start, system, k):
    """One implicit step of every row: ``_damped_newton`` on ``parts``.

    ``rhs`` and ``u_start`` are (R, m), ``system`` holds the rows'
    matrices M + kS and ``k`` their (R, 1) step sizes; returns (U,
    iterations) with iterations (R,).  A row's tolerance scales with the
    norm of its right-hand side.
    """
    norm = parts[2]
    return _damped_newton(*parts, u_start, (rhs, system, k), scale=norm(rhs))


def pde_solve(problem: PdeProblem, mesh: Mesh, scheme: StepScheme, nodes, reduce=None):
    """March the scheme from U^0 = P_h u0 over node blocks; returns ``reduce``.

    As for ``ode_solver.solve``, ``nodes`` is an (R, N) block or a list of
    blocks whose widths N do not increase, a block's width fixes its rows'
    k, and the rows march together as an (R, m) field, row r evaluating
    the forcing of step n at its n-th node, so randomized replicas and the
    classical row of grid points, at every step size, can share one
    batch.  Every row gets the same bits as when marched alone.  The loads
    of up to STEP_BLOCK steps are assembled at once; one stepper call then
    runs their Newton solves, one ``_newton_fem`` per step, and hands the
    last iterate itself to the next block, so that the residual cache of
    ``_fem_parts`` still holds.  ``reduce`` receives blocks of the rows'
    U^n, as (steps, rows, m) nodal coefficients (see
    ``ode_solver._march``); by default an ``ode_solver.Trajectory`` stores
    them all.  ``_march`` names the step and row of a failure.
    """
    if scheme is StepScheme.RANDOMIZED_FORWARD_EULER:
        raise ValueError("no explicit scheme is defined for the PDE benchmark")
    blocks, k = _node_blocks(nodes)
    k = k[:, None]
    m = mesh.interior_nodes
    mass = assemble_mass(mesh)
    system = mass.plus(assemble_stiffness(mesh), scale=k)
    parts = _fem_parts(mesh, problem)
    forcing = problem.forcing

    def loads(t):
        rows = t.shape[1]
        t = t[..., None, None]
        load = load_vector(mesh, lambda x: forcing(t, x))
        # a forcing that ignores t gives one load for every step and row
        return k[:rows] * np.broadcast_to(load, t.shape[:2] + (m,))

    def step(loads, u, k, out, counts):
        live = system[: len(u)]
        return _each_step(lambda load, u: _newton_fem(parts, mass.matvec(u) + load, u, live, k),
                          loads, u, out, counts)

    if reduce is None:
        reduce = Trajectory.empty(blocks[0].shape[1], len(k), (m,))
    _march(blocks, k, l2_project(mesh, problem.initial), STEP_BLOCK, loads, step, reduce)
    return reduce


@dataclass(frozen=True)
class EnergyReport:
    """Accumulated left- and right-hand data of the discrete energy bound.

    left = max_n |U^n|_M^2 + sum_j |U^j - U^{j-1}|_M^2
           + k*mu*sum_j |U^j|_S^2
    right-hand data = T + |U^0|_M^2 + L2(0,T;L2)-norm^2 of the forcing

    with the horizon T = 1 and mu = 1, the constant of monotone diffusion.
    """

    max_state_energy: float
    increment_sum: float
    dissipation_sum: float
    initial_energy: float
    forcing_energy: float

    @property
    def left_side(self) -> float:
        return self.max_state_energy + self.increment_sum + self.dissipation_sum

    @property
    def right_side_data(self) -> float:
        return 1.0 + self.initial_energy + self.forcing_energy

    @property
    def flagged(self) -> bool:
        return self.left_side > ENERGY_FLAG_FACTOR * self.right_side_data


#: Growth beyond this multiple of the right-side data flags instability.
ENERGY_FLAG_FACTOR = 1e6


def forcing_energy(problem: PdeProblem, mesh: Mesh, grid: TimeGrid) -> float:
    """Quadrature estimate of the squared L2(0,1; L2(0,1)) forcing norm.

    LOAD_POINTS-point Gauss rules per step in time and per element in
    space; the forcing is evaluated at the time points of STEP_BLOCK
    steps at once.
    """
    s, w = _gauss_01(LOAD_POINTS)
    x = _element_points(mesh, s)
    k = grid.step_size
    starts = grid.nodes()[:-1, None]
    total = 0.0
    for lo in range(0, grid.steps, STEP_BLOCK):
        t = (starts[lo : lo + STEP_BLOCK] + k * s)[..., None, None]
        f = np.broadcast_to(problem.forcing(t, x), t.shape[:2] + x.shape)
        space = mesh.spacing * _weighted_sum(f * f, w)
        total += k * float((space @ w).sum())
    return total


def energy_bound_check(trajectory: Trajectory, problem: PdeProblem) -> EnergyReport:
    """Evaluate the a priori energy accumulators for a one-row path.

    The terms of step n are |U^n|_M^2, |U^n - U^{n-1}|_M^2 and |U^n|_S^2,
    where |.|_M is the L2 norm and |.|_S the H1 seminorm of the P1
    function.  Flags a run whose left side exceeds 1e6 times the
    right-side data; no closed-form constant is available, so this is a
    growth alarm, not a sharp bound.
    """
    if trajectory.states.shape[1] != 1:
        raise ValueError("energy_bound_check takes the path of a single replica")
    fields = trajectory.states[:, 0]
    mesh = Mesh(fields.shape[1])
    mass = assemble_mass(mesh)

    def squared(u, matrix):
        return (u * matrix.matvec(u)).sum(axis=-1)

    u = fields[1:]
    initial_energy = float(squared(fields[0], mass))
    max_state = max(initial_energy, float(squared(u, mass).max()))
    increment = float(squared(np.diff(fields, axis=0), mass).sum())
    k = trajectory.grid.step_size
    dissipation = k * float(squared(u, assemble_stiffness(mesh)).sum())
    return EnergyReport(
        max_state_energy=max_state,
        increment_sum=increment,
        dissipation_sum=dissipation,
        initial_energy=initial_energy,
        forcing_energy=forcing_energy(problem, mesh, trajectory.grid),
    )
