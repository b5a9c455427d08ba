"""Test oracles shared by the solver, harness and FEM tests: the scalar
grid point and node rules, numpy's own per-replica uniform stream, single
steps of the ODE and PDE schemes, dense tridiagonal matrices, one-path
node blocks, the per-row Newton counts of a batch, an error table's row
and the residual study's slopes."""

import math

import numpy as np

from randstep.fem1d import Mesh, load_vector
from randstep.harness import _loglog_fit
from randstep.ode_solver import _newton_parts, _newton_scalar, check_step_restriction
from randstep.pde_solver import _fem_parts, _newton_fem


def grid_node(grid, n):
    """Grid point t_n = n/N (no cumulative addition)."""
    if not 0 <= n <= grid.steps:
        raise IndexError(f"grid index {n} outside 0..{grid.steps}")
    return n / grid.steps


def node(grid, n, tau):
    """Randomized node xi_n = t_{n-1} + k*tau inside the n-th step interval.

    Guarantees t_{n-1} <= xi_n < t_n; the half-open right end keeps the
    node strictly inside the step even when tau*k rounds up.  This is the
    scalar rule that ``TimeGrid.nodes_from_taus`` is compared against.
    """
    if not 1 <= n <= grid.steps:
        raise IndexError(f"step index {n} outside 1..{grid.steps}")
    if not (0.0 <= tau < 1.0):
        raise ValueError("tau must lie in [0, 1)")
    t_prev = grid_node(grid, n - 1)
    t_next = grid_node(grid, n)
    xi = t_prev + grid.step_size * tau
    if xi >= t_next:
        xi = math.nextafter(t_next, t_prev)
    return xi


def numpy_taus(master_seed, replica, count):
    """The first ``count`` draws of the substream (master_seed, replica) as
    numpy builds it alone: a Philox keyed by a spawned seed sequence."""
    sequence = np.random.SeedSequence(master_seed, spawn_key=(replica,))
    return np.random.Generator(np.random.Philox(sequence)).random(count)


def one_row(grid, scheme, master_seed=1, replica=0):
    """The node block of one path: drawn from the substream (master_seed,
    replica) for a randomized scheme, the grid points t_1..t_N for the
    classical one."""
    if scheme.is_randomized:
        return grid.random_nodes(master_seed, [replica])
    return grid.nodes()[None, 1:]


def step_once(problem, t, u, k, scheme):
    """One step of ``scheme`` from the float u with step size k and f
    evaluated at the float t, as a one-row batch: for an implicit scheme
    the step restriction and ``_newton_scalar`` on the ``_newton_parts``,
    for the explicit one u + k*f; a float."""
    at, u = problem.freeze(np.array([t])), np.array([float(u)])
    if not scheme.is_implicit:
        return (u + k * problem.rhs(at, u))[0]
    check_step_restriction(k, problem.one_sided_constant)
    parts = _newton_parts(problem.rhs, problem.jacobian, k)
    return _newton_scalar(parts, at, u, problem.affine)[0][0]


def pde_step(mass, stiffness, k, xi, u_prev, problem):
    """Coefficients of one implicit step of the fully discrete scheme from
    the coefficients ``u_prev``, with the forcing evaluated at the float xi:

        (M + k S) U + k N(U) = M U_prev + k F(xi)

    assembled for this step alone, and solved by ``pde_solver``'s Newton."""
    mesh = Mesh(mass.diag.shape[-1])
    u0 = np.asarray(u_prev, dtype=float)
    rhs = mass.matvec(u0) + k * load_vector(mesh, lambda x: problem.forcing(xi, x))
    parts = _fem_parts(mass.plus(stiffness, scale=k), k, mesh, problem)
    u, _ = _newton_fem(parts, rhs[None], u0[None])
    # a converged start iterate comes back as is: a view of the caller's u_prev
    return u[0].copy()


def dense(t):
    """The dense matrix of a ``TriDiag``."""
    return np.diag(t.diag) + np.diag(t.off, -1) + np.diag(t.off, 1)


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


def table_row(table, scheme, exponent):
    """The ``ErrorRow`` of ``scheme`` at step size 2^-exponent."""
    for r in table.rows:
        if r.scheme == scheme and r.exponent == exponent:
            return r
    raise KeyError(f"no row for scheme={scheme}, n={exponent}")


def fit_residual_slopes(rows, window):
    """(pathwise, conditional-mean) log2-log2 slopes of residual-study rows
    over an exponent window, by the fit that ``fit_rate`` uses."""
    sel = [r for r in rows if window[0] <= r.exponent <= window[1]]
    steps = [r.step_size for r in sel]
    return tuple(
        _loglog_fit(window, steps, [getattr(r, column) for r in sel], column).slope
        for column in ("rms_residual", "mean_residual")
    )
