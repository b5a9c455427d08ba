"""Time stepping for scalar ODEs, with a sweep's replicas as one (R,) state.

Three one-step schemes:

* randomized backward Euler   U^n = U^{n-1} + k f(xi_n, U^n)
* classical backward Euler    U^n = U^{n-1} + k f(t_n, U^n)
* randomized forward Euler    U^n = U^{n-1} + k f(xi_n, U^{n-1})

on the grid t_n = n/N of [0, 1] with step size k = 1/N, and xi_n
drawn uniformly from the n-th step interval [t_{n-1}, t_n).  The implicit
solve uses damped Newton iteration; under the one-sided Lipschitz
restriction k*nu < 1 the per-step root is unique.  A problem that is
affine in the state takes Newton's first iterate as its step, since
that is the root up to rounding.  ``pde_solver``, the systems case,
shares the Newton core and the step loop.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .fem1d import _gauss_legendre
from .rand_nodes import TimeGrid

#: Newton's tolerance on a row: norm(residual) <= ABS_TOL + REL_TOL * s.
ABS_TOL = 1e-12
REL_TOL = 1e-10

#: Newton iterations per step before NonConvergence.
MAX_ITERATIONS = 50

#: Damped Newton halves the update at most this many times per iteration.
MAX_DAMPING_HALVINGS = 30

#: Steps whose nodes ``solve`` freezes at once; a block's frozen data are
#: (block, R, ...) temporaries, so longer blocks cost memory.
FREEZE_BLOCK = 64

#: Quadrature points that ``conditional_mean_residual`` evaluates at once:
#: 512 KiB per temporary.  The residual study's 4 * 2^K points per grid
#: are one block up to K = 14.
QUAD_BLOCK = 2**16


class StepScheme(Enum):
    RANDOMIZED_BACKWARD_EULER = "rbe"
    CLASSICAL_BACKWARD_EULER = "be"
    RANDOMIZED_FORWARD_EULER = "rfe"

    @property
    def token(self) -> str:
        return self.value

    @property
    def is_implicit(self) -> bool:
        return self is not StepScheme.RANDOMIZED_FORWARD_EULER

    @property
    def is_randomized(self) -> bool:
        return self is not StepScheme.CLASSICAL_BACKWARD_EULER

    @classmethod
    def parse(cls, token: str) -> "StepScheme":
        for scheme in cls:
            if scheme.value == token:
                return scheme
        raise ValueError(f"unknown scheme {token!r}; expected one of rbe, be, rfe")


class NonConvergence(RuntimeError):
    """Newton failed to reduce the step residual below tolerance."""

    def __init__(
        self, message: str, step: Optional[int] = None, replica: Optional[int] = None
    ):
        super().__init__(message)
        self.step = step
        #: position of the failing replica in its batch, for batched solves
        self.replica = replica


class StepRestrictionViolated(ValueError):
    """Implicit step attempted with k*nu >= 1 (root may not exist)."""


class StepSizeWarning(UserWarning):
    """k*nu >= 1/4: outside the hypothesis of the stability estimate."""


@dataclass
class OdeProblem:
    """Initial value problem du/dt = f(t, u), u(0) = u0 on [0, 1].

    f's time dependence is kept apart: ``freeze`` maps an array of times
    to the data f needs, the times' axes first (by default the times
    themselves), and f(t, x) is ``rhs(freeze(t), x)``.  ``freeze`` must
    accept every floating-point t in [0, 1]; how an almost-everywhere-
    defined right-hand side is represented is the caller's choice.  The
    state is one number, and ``rhs`` and ``jacobian`` act elementwise on
    floats or on arrays that hold one entry per replica.
    ``jacobian(freeze(t), x)`` is the derivative df/dx that Newton
    divides by.  ``one_sided_constant`` is the nu of the one-sided
    Lipschitz condition (f(t,x)-f(t,y), x-y) <= nu |x-y|^2; nonpositive
    values impose no step restriction.  ``exact`` is an optional
    reference solution used by benchmarks.

    ``affine`` declares f affine in x, f(t, x) = a(t) x + b(t), so that
    one Newton step from any start is the step's root up to rounding:
    an implicit step is then that one step, with count 1, and no
    residual is tested (see ``_newton_scalar``).
    """

    rhs: Callable
    initial_value: float
    jacobian: Callable
    one_sided_constant: float = 0.0
    exact: Optional[Callable] = None
    freeze: Callable = lambda t: t
    affine: bool = False

    def __post_init__(self):
        if np.ndim(self.initial_value) != 0:
            raise ValueError("initial_value must be a single number")


@dataclass
class Trajectory:
    """Computed paths of an (R, N) node block: states[n, r] = U^n of row r.

    Row r's Newton iteration counts are column r of the (N, R) counts.
    """

    states: np.ndarray  # (N+1, R); (N+1, R, m) for the PDE
    newton_iteration_counts: np.ndarray  # (N, R); zeros if explicit

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid(len(self.states) - 1)


def _node_grid(nodes) -> TimeGrid:
    """TimeGrid(N) of an (R, N) node block, a 2-D ndarray with R, N >= 1."""
    if isinstance(nodes, np.ndarray) and nodes.ndim == 2 and nodes.size:
        return TimeGrid(nodes.shape[1])
    got = nodes.shape if isinstance(nodes, np.ndarray) else type(nodes).__name__
    raise ValueError(f"need an (R, N) node block with R, N >= 1, got {got}")


def check_step_restriction(k: float, nu: float) -> None:
    """Reject k*nu >= 1, warn at k*nu >= 1/4; no-op for nu <= 0."""
    if nu <= 0.0:
        return
    knu = k * nu
    if knu >= 1.0:
        raise StepRestrictionViolated(
            f"k*nu = {knu:.6g} >= 1; the implicit step may have no root"
        )
    if knu >= 0.25:
        warnings.warn(
            f"k*nu = {knu:.6g} >= 1/4; outside the stability hypothesis",
            StepSizeWarning,
            stacklevel=3,
        )


def _damped_newton(residual, update, norm, x, data, scale=None):
    """Damped Newton for residual(x, *data) = 0, one row of x per replica.

    ``x`` holds one row per replica and ``data`` a tuple of arrays whose
    first axis runs over the same rows; ``update(x, r, *data)`` returns
    the Newton step for the residual r, and ``norm`` maps rows to their
    (R,) norms.  A row has converged once norm(r) <= ABS_TOL + REL_TOL *
    s, with s = norm(x), or the row's ``scale`` when one is given, and
    fails if it has not after MAX_ITERATIONS iterations.  Returns (roots,
    iterations): iterations is the (R,) count of each row, or one ``int``
    when every row converges in the same iteration.  Every replica runs
    exactly the single-row iteration: its own tolerance test, Newton
    step, damping halvings and iteration count, so its bits do not
    depend on which replicas share the batch.  Converged replicas leave
    the batch, and only replicas whose trial step fails to reduce the
    residual norm are retried with a halved step (cf. Deuflhard, *Newton
    Methods for Nonlinear Problems*, 2004).  A failure, or a
    NonConvergence that ``update`` raises for a row, raises
    NonConvergence naming the first failing replica's batch position.
    """
    r = residual(x, *data)
    rnorm = norm(r)
    tol = None if scale is None else ABS_TOL + REL_TOL * scale
    roots = iters = None
    live = None  # batch positions still iterating; None while it is all of them

    def fail(message, pos):
        raise NonConvergence(message, replica=int(pos if live is None else live[pos]))

    for it in range(MAX_ITERATIONS + 1):
        done = rnorm <= (ABS_TOL + REL_TOL * norm(x) if tol is None else tol)
        finished = np.count_nonzero(done)
        if finished == len(done):
            if live is None:
                return x, it
            roots[live], iters[live] = x, it
            return roots, iters
        if it == MAX_ITERATIONS:
            first = np.flatnonzero(~done)[0]
            fail(f"residual {rnorm[first]:.3e} above tolerance after "
                 f"{MAX_ITERATIONS} iterations", first)
        if finished:
            if live is None:
                live = np.arange(len(x))
                roots, iters = np.empty_like(x), np.empty(len(x), dtype=np.int64)
            roots[live[done]], iters[live[done]] = x[done], it
            keep = ~done
            live, x, r, rnorm = live[keep], x[keep], r[keep], rnorm[keep]
            data = tuple(a[keep] for a in data)
            tol = None if tol is None else tol[keep]
        try:
            delta = update(x, r, *data)
        except NonConvergence as err:
            fail(str(err), err.replica)
        xt = x - delta
        rt = residual(xt, *data)
        rtnorm = norm(rt)
        reduced = rtnorm < rnorm
        if np.count_nonzero(reduced) < len(reduced):
            retry = np.flatnonzero(~reduced)
            alpha = 1.0
            for _ in range(MAX_DAMPING_HALVINGS):
                alpha *= 0.5
                xb = x[retry] - alpha * delta[retry]
                rb = residual(xb, *(a[retry] for a in data))
                nb = norm(rb)
                xt[retry], rt[retry], rtnorm[retry] = xb, rb, nb
                retry = retry[~(nb < rnorm[retry])]
                if not retry.size:
                    break
            else:
                fail("residual not reduced after damped retries", retry[0])
        x, r, rnorm = xt, rt, rtnorm


def _newton_parts(rhs, jac, k):
    """(residual, update, norm) of the step equation x = u_prev + k*rhs(c, x).

    The data of a step are the rows' frozen data c and previous states.
    A row's update divides by its derivative 1 - k*jac(c, x).
    """

    def residual(x, c, u_prev):
        return x - u_prev - k * rhs(c, x)

    def update(x, r, c, u_prev):
        deriv = 1.0 - k * jac(c, x)
        singular = deriv == 0.0
        # a Jacobian callback returning a float gives a plain bool here
        if singular is not False and np.any(singular):
            raise NonConvergence("singular Newton derivative",
                                 replica=np.flatnonzero(singular)[0])
        return r / deriv

    return residual, update, np.abs


def _newton_scalar(parts, at, u_prev, affine):
    """One implicit step of every row: ``_damped_newton`` on the
    ``_newton_parts``, or for an ``affine`` problem one Newton step.

    ``at`` holds the rows' frozen data; the initial guess is
    u_prev, an O(k)-accurate predictor.  For an ``affine`` problem one
    Newton step is the root up to rounding, so the step is Newton's
    first iterate from u_prev, bit for bit ((u - u) - k*f is exactly
    -(k*f)), with the count 1 for every row; its residual is not tested.
    A row whose start already meets the tolerance therefore takes the
    step with count 1, where damped Newton keeps u_prev with count 0.
    """
    if affine:
        residual, update, _ = parts
        return u_prev - update(u_prev, residual(u_prev, at, u_prev), at, u_prev), 1
    return _damped_newton(*parts, u_prev, (at, u_prev))


def solve(problem: OdeProblem, scheme: StepScheme, nodes: np.ndarray) -> Trajectory:
    """March the selected one-step rule over an (R, N) block of nodes.

    The block's width N fixes k = 1/N.  The R rows march together, row r as
    column r of an (R,) state, and step n of row r evaluates f at
    nodes[r, n-1].  Rows from ``TimeGrid.random_nodes`` march randomized
    replicas and a row of grid points t_1..t_N the classical scheme, so
    one batch can hold both; ``scheme`` only chooses between implicit and
    explicit steps.  Every row gets the same bits as when marched alone.
    The problem's ``freeze`` takes the nodes of FREEZE_BLOCK steps at once
    (a node outside its domain raises there), and Newton evaluates only
    f's state dependence.  ``_march`` names the step and row of a failure.
    """
    k = _node_grid(nodes).step_size
    freeze, rhs = problem.freeze, problem.rhs
    if scheme.is_implicit:
        check_step_restriction(k, problem.one_sided_constant)
        parts = _newton_parts(rhs, problem.jacobian, k)
        affine = problem.affine

        def step(at, u):
            return _newton_scalar(parts, at, u, affine)
    else:
        def step(at, u):
            return u + k * rhs(at, u), 0

    u0 = np.asarray(problem.initial_value, dtype=float)
    states, counts = _march(nodes, u0, FREEZE_BLOCK, freeze, step)
    return Trajectory(states=states, newton_iteration_counts=counts)


def _march(nodes, u0, width, freeze, step):
    """The (N+1, R, ...) path and (N, R) iteration counts of an (R, N) block.

    Every row starts from the state ``u0`` and its step n evaluates at
    nodes[r, n-1].  ``freeze`` maps the (steps, R) nodes of ``width``
    steps at a time to per-step data, and ``step(data, u)`` maps the
    data of step n and the (R, ...) state U^{n-1} to U^n and the rows'
    (R,) iteration counts, or one count for all rows.  Overflow is left
    to the finiteness check after the march: a NonConvergence of a step,
    or a non-finite state, is raised naming the step and the row.
    """
    rows, n_steps = nodes.shape
    states = np.empty((n_steps + 1, rows) + u0.shape)
    states[0] = u0
    counts = np.zeros((n_steps, rows), dtype=np.int64)
    u = states[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n_steps, width):
            for n, data in enumerate(freeze(nodes[:, lo : lo + width].T), start=lo + 1):
                try:
                    u, counts[n - 1] = step(data, u)
                except NonConvergence as err:
                    raise NonConvergence(f"step {n}: {err}", step=n,
                                         replica=err.replica) from err
                states[n] = u
    finite = np.isfinite(states).reshape(n_steps + 1, rows, -1).all(axis=2)
    if not finite.all():
        n, row = (int(i) for i in np.argwhere(~finite)[0])
        raise NonConvergence(f"step {n}: non-finite state", step=n, replica=row)
    return states, counts


def local_residual(problem, exact_at_grid, xi):
    """(..., N) defects k f(xi_n, V^n) - V^n + V^{n-1} of grid values V^0..V^N.

    Entry n-1 of the last axis of ``xi`` is step n's node, so that axis
    fixes k = 1/N; one ``rhs`` call gets the (..., N) nodes' frozen data
    and the (N,) values V^1..V^N.
    """
    v, k = exact_at_grid, TimeGrid(xi.shape[-1]).step_size
    return k * problem.rhs(problem.freeze(xi), v[1:]) - v[1:] + v[:-1]


def conditional_mean_residual(problem, grid: TimeGrid, panels: int):
    """Mean residual of the exact solution over every step: an (N,) array.

    Entry n-1 is the deterministic integral

        int_{t_{n-1}}^{t_n} [ f(s, u(t_n)) - f(s, u(s)) ] ds

    of u = ``problem.exact``, by composite 4-point Gauss-Legendre
    quadrature on each of ``panels`` equal subintervals.  Aligning the
    panels with the breakpoints of a piecewise right-hand side makes the
    rule exact.  ``exact``, ``freeze`` and ``rhs`` must act elementwise on
    arrays of times: one ``exact`` call, one ``freeze`` call and two
    ``rhs`` calls evaluate each block of whole steps, as many as
    QUAD_BLOCK points hold and at least one.  Rows do not mix, so the
    blocks do not change the bits.
    """
    if panels < 1:
        raise ValueError("panels must be at least 1")
    t = grid.nodes()
    exact, freeze, rhs = problem.exact, problem.freeze, problem.rhs
    nodes, weights = _gauss_legendre(4)
    width = max(1, QUAD_BLOCK // (panels * 4))
    means = np.empty(grid.steps)
    for lo in range(0, grid.steps, width):
        tb = t[lo : lo + width + 1]
        edges = np.linspace(tb[:-1], tb[1:], panels + 1, axis=1)
        mid = 0.5 * (edges[:, :-1] + edges[:, 1:])
        half = 0.5 * (edges[:, 1:] - edges[:, :-1])
        # every point of every panel of a step, panel by panel in order
        s = (mid[..., None] + half[..., None] * nodes).reshape(len(edges), -1)
        w = (half[..., None] * weights).reshape(len(edges), -1)
        c = freeze(s)
        terms = w * (rhs(c, exact(tb[1:])[:, None]) - rhs(c, exact(s)))
        # a row-wise cumsum adds in point order, as the scalar recursion did
        means[lo : lo + width] = np.cumsum(terms, axis=1)[:, -1]
    return means
