"""Test oracles shared by the solver and FEM tests: single steps of the
ODE and PDE schemes, dense tridiagonal matrices, one-path node blocks and
the per-row Newton counts of a batch."""

import dataclasses

import numpy as np

from randstep.fem1d import Mesh, load_vector
from randstep.ode_solver import solve
from randstep.pde_solver import _fem_parts, _newton_fem
from randstep.rand_nodes import NodeStream, SeedSpec, TimeGrid


def one_row(grid, scheme, seed=SeedSpec(1, 0)):
    """The node block of one path: drawn from ``seed``'s stream for a
    randomized scheme, the grid points t_1..t_N for the classical one."""
    if scheme.is_randomized:
        return grid.random_nodes([NodeStream(seed)])
    return grid.nodes()[None, 1:]


def step_once(problem, t, u, k, scheme):
    """U^1 of ``scheme`` from U^0 = u with f evaluated at t: a one-step
    ``solve`` of the unsplit problem on [0, k]; a float."""
    one_step = dataclasses.replace(problem, final_time=k, initial_value=u, split=None)
    return solve(one_step, TimeGrid(k, 1), scheme, np.array([[t]])).states[1, 0]


def pde_step(mass, stiffness, k, xi, u_prev, problem):
    """Coefficients of one implicit step of the fully discrete scheme from
    the coefficients ``u_prev``, with the forcing evaluated at the float xi:

        (M + k S) U + k N(U) = M U_prev + k F(xi)

    assembled for this step alone, and solved by ``pde_solver``'s Newton."""
    mesh = Mesh(mass.size)
    u0 = np.asarray(u_prev, dtype=float)
    rhs = mass.matvec(u0) + k * load_vector(mesh, lambda x: problem.forcing(xi, x))
    parts = _fem_parts(mass.plus(stiffness, scale=k), k, mesh, problem)
    u, _ = _newton_fem(parts, rhs[None], u0[None])
    # a converged start iterate comes back as is: a view of the caller's u_prev
    return u[0].copy()


def dense(t):
    """The dense matrix of a ``TriDiag``."""
    out = np.diag(t.diag)
    if t.size > 1:
        out += np.diag(t.sub, -1) + np.diag(t.sup, 1)
    return out


def assert_counts_are_each_rows_own(march, grid, rows):
    """The (N, R) int64 Newton counts of the batch of ``rows`` (one-row
    node blocks) equal, column by column, each row's counts marched alone."""
    counts = march(np.concatenate(rows)).newton_iteration_counts
    assert counts.shape == (grid.steps, len(rows)) and counts.dtype == np.int64
    for r, nodes in enumerate(rows):
        alone = march(nodes).newton_iteration_counts
        assert alone.shape == (grid.steps, 1) and alone.dtype == np.int64
        assert np.array_equal(alone[:, 0], counts[:, r])
    return counts
