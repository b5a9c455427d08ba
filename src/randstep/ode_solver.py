"""Time stepping for finite-dimensional ODE systems.

Three one-step schemes:

* randomized backward Euler   U^n = U^{n-1} + k f(xi_n, U^n)
* classical backward Euler    U^n = U^{n-1} + k f(t_n, U^n)
* randomized forward Euler    U^n = U^{n-1} + k f(xi_n, U^{n-1})

with xi_n drawn uniformly from the n-th step interval.  The implicit
solve uses damped Newton iteration; under the one-sided Lipschitz
restriction k*nu < 1 the per-step root is unique.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .rand_nodes import TimeGrid

_SQRT_EPS = math.sqrt(np.finfo(float).eps)

#: Damped Newton halves the update at most this many times per iteration.
MAX_DAMPING_HALVINGS = 30

#: Steps whose nodes ``solve`` freezes at once; a block's frozen data are
#: (block, R, ...) temporaries, so longer blocks cost memory.
FREEZE_BLOCK = 64


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


@dataclass(frozen=True)
class NewtonConfig:
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_iterations: int = 50
    fd_jacobian_step: float = _SQRT_EPS  # scaled per column by 1 + |x_i|

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0 or self.fd_jacobian_step <= 0:
            raise ValueError("Newton tolerances must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass
class OdeProblem:
    """Initial value problem du/dt = f(t, u), u(0) = u0 on [0, T].

    ``rhs`` must be callable at every floating-point t in [0, T]; how an
    almost-everywhere-defined right-hand side is represented is the
    caller's choice.  For dimension 1 the callbacks act elementwise on
    floats or on arrays that hold one entry per replica.
    ``one_sided_constant`` is the nu of the one-sided Lipschitz
    condition (f(t,x)-f(t,y), x-y) <= nu |x-y|^2; nonpositive values
    impose no step restriction.  ``exact`` is an optional reference
    solution used by benchmarks.

    The optional ``split = (freeze, rhs_frozen)`` separates f's time
    dependence: ``freeze`` maps an array of times to the data f needs,
    times' axes first, and ``rhs_frozen(freeze(t), x)`` equals
    ``rhs(t, x)`` bit for bit.  ``solve`` then hands each step's frozen
    data to ``rhs_frozen`` and ``jacobian``; without a split, the times.
    """

    dimension: int
    rhs: Callable
    initial_value: object
    final_time: float
    jacobian: Optional[Callable] = None
    one_sided_constant: float = 0.0
    exact: Optional[Callable] = None
    split: Optional[tuple[Callable, Callable]] = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        if not self.final_time > 0:
            raise ValueError("final_time must be positive")


@dataclass
class Trajectory:
    """Computed paths of an (R, N) node block: states[n, r] = U^n of row r.

    Row r's Newton iteration counts are column r of the (N, R) counts.
    """

    grid: TimeGrid
    states: np.ndarray  # (N+1, R); (N+1, 1, d) for a d > 1 problem
    newton_iteration_counts: np.ndarray  # (N, R); zeros if explicit


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


def _damped_newton(residual, update, norm, x, data, cfg, scale=None):
    """Damped Newton for residual(x, *data) = 0, one row of x per replica.

    ``x`` holds one row per replica and ``data`` a tuple of arrays whose
    first axis runs over the same rows; ``update(x, r, *data)`` returns
    the Newton step for the residual r, and ``norm`` maps rows to their
    (R,) norms.  A row has converged once norm(r) <= abs_tol + rel_tol *
    s, with s = norm(x), or the row's ``scale`` when one is given.
    Returns (roots, iterations), iterations (R,).  Every replica runs
    exactly the single-row iteration: its own tolerance test, Newton
    step, damping halvings and iteration count, so its bits do not depend
    on which replicas share the batch.  Converged replicas leave the
    batch, and only replicas whose trial step fails to reduce the
    residual norm are retried with a halved step (cf. Deuflhard, *Newton
    Methods for Nonlinear Problems*, 2004).  A failure, or a
    NonConvergence that ``update`` raises for a row, raises
    NonConvergence naming the first failing replica's batch position.
    """
    r = residual(x, *data)
    rnorm = norm(r)
    tol = None if scale is None else cfg.abs_tol + cfg.rel_tol * scale
    roots = iters = None
    live = None  # batch positions still iterating; None while it is all of them

    def finish(x, it):
        if live is None:
            return x, np.full(len(x), it)
        roots[live], iters[live] = x, it
        return roots, iters

    def fail(message, pos):
        raise NonConvergence(message, replica=int(pos if live is None else live[pos]))

    for it in range(cfg.max_iterations + 1):
        done = rnorm <= (cfg.abs_tol + cfg.rel_tol * norm(x) if tol is None else tol)
        if done.all():
            return finish(x, it)
        if it == cfg.max_iterations:
            first = np.flatnonzero(~done)[0]
            fail(f"residual {rnorm[first]:.3e} above tolerance after "
                 f"{cfg.max_iterations} iterations", first)
        if done.any():
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
        if not reduced.all():
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


def _row_callbacks(rhs, jac, dimension):
    """``rhs`` and ``jac`` as called on the rows that Newton and the step
    loop march: unchanged for a scalar problem, whose rows are floats.
    A d > 1 problem marches one replica as a (1, d) row, and its
    callbacks get the replica's time and (d,) state."""
    if dimension == 1:
        return rhs, jac

    def lift(fn):
        return lambda t, x: np.asarray(fn(t[0], x[0]), dtype=float)[None]

    return lift(rhs), jac and lift(jac)


def _newton_parts(rhs, jac, dimension, k, cfg):
    """(residual, update, norm) of the step equation x = u_prev + k*rhs(t, x).

    ``rhs`` and ``jac`` act on rows, as ``_row_callbacks`` returns them.
    The data of a step are the rows' times, or their frozen data, and
    previous states.  A scalar row's update divides by its derivative, a
    forward difference when ``jac`` is None; a (1, d) row's update is a
    dense solve, with forward-difference columns when ``jac`` is None.
    """
    step = cfg.fd_jacobian_step

    def residual(x, t, u_prev):
        return x - u_prev - k * rhs(t, x)

    if dimension == 1:
        def update(x, r, t, u_prev):
            if jac is not None:
                df = jac(t, x)
            else:
                dx = step * (1.0 + np.abs(x))
                df = (rhs(t, x + dx) - rhs(t, x)) / dx
            deriv = 1.0 - k * df
            singular = deriv == 0.0
            # a Jacobian callback returning a float gives a plain bool here
            if singular is not False and np.any(singular):
                raise NonConvergence("singular Newton derivative",
                                     replica=np.flatnonzero(singular)[0])
            return r / deriv

        return residual, update, np.abs

    def update(x, r, t, u_prev):
        if jac is not None:
            df = jac(t, x)[0]
        else:
            fx = rhs(t, x)
            df = np.empty((dimension, dimension))
            for i in range(dimension):
                xp = x.copy()
                dx = step * (1.0 + abs(xp[0, i]))
                xp[0, i] += dx
                df[:, i] = ((rhs(t, xp) - fx) / dx)[0]
        return np.linalg.solve(np.eye(dimension) - k * df, r[0])[None]

    return residual, update, lambda r: np.linalg.norm(r, axis=1)


def _newton_scalar(parts, at, u_prev, cfg):
    """``_damped_newton`` on the ``_newton_parts`` of one step of every row.

    ``at`` holds the rows' times or frozen data; the initial guess is
    u_prev, an O(k)-accurate predictor.
    """
    return _damped_newton(*parts, u_prev, (at, u_prev), cfg)


def implicit_step(problem, t_eval, u_prev, k, cfg: Optional[NewtonConfig] = None):
    """Solve x = u_prev + k*f(t_eval, x); returns the d-vector root."""
    if not k > 0:
        raise ValueError("step size must be positive")
    cfg = cfg or NewtonConfig()
    check_step_restriction(k, problem.one_sided_constant)
    d = problem.dimension
    parts = _newton_parts(*_row_callbacks(problem.rhs, problem.jacobian, d), d, k, cfg)
    u0 = np.array(u_prev, dtype=float).reshape((1, d) if d > 1 else 1)
    x, _ = _newton_scalar(parts, np.array([t_eval], dtype=float), u0, cfg)
    return x.reshape(d)


def explicit_step(problem, t_eval, u_prev, k):
    """One forward Euler update u_prev + k*f(t_eval, u_prev)."""
    if not k > 0:
        raise ValueError("step size must be positive")
    u0 = np.asarray(u_prev, dtype=float).reshape(problem.dimension)
    t = np.array([t_eval], dtype=float) if problem.dimension == 1 else t_eval
    return u0 + k * np.asarray(problem.rhs(t, u0), dtype=float)


def solve(
    problem: OdeProblem,
    grid: TimeGrid,
    scheme: StepScheme,
    nodes: np.ndarray,
    cfg: Optional[NewtonConfig] = None,
) -> Trajectory:
    """March the selected one-step rule over an (R, N) block of nodes.

    The R rows march together, row r as column r of an (R,) state, and
    step n of row r evaluates f at nodes[r, n-1].  Rows from
    ``TimeGrid.random_nodes`` march randomized replicas and a row of grid
    points t_1..t_N the classical scheme, so one batch can hold both;
    ``scheme`` only chooses between implicit and explicit steps.  Every
    row gets the same bits as when marched alone.  A d > 1 problem
    marches a one-row block as a (1, d) row in the same loop.  A
    problem's ``split`` freezes the nodes of FREEZE_BLOCK steps at once
    (a node outside its domain raises there), and Newton evaluates only
    f's state dependence.  ``_march`` names the step and row of a
    failure.
    """
    d = problem.dimension
    if d > 1 and isinstance(nodes, np.ndarray) and nodes.shape[:1] != (1,):
        raise ValueError("a d > 1 problem marches a one-row node block")
    cfg = cfg or NewtonConfig()
    k = grid.step_size
    freeze, rhs = problem.split or (lambda t: t, problem.rhs)
    rhs, jac = _row_callbacks(rhs, problem.jacobian, d)
    if scheme.is_implicit:
        check_step_restriction(k, problem.one_sided_constant)
        parts = _newton_parts(rhs, jac, d, k, cfg)

        def step(at, u):
            return _newton_scalar(parts, at, u, cfg)
    else:
        def step(at, u):
            return u + k * rhs(at, u), 0

    u0 = np.asarray(problem.initial_value, dtype=float).reshape(() if d == 1 else (d,))
    states, counts = _march(grid, problem.final_time, nodes, u0, FREEZE_BLOCK,
                            freeze, step)
    return Trajectory(grid=grid, states=states, newton_iteration_counts=counts)


def _march(grid, final_time, nodes, u0, width, freeze, step):
    """The (N+1, R, ...) path and (N, R) iteration counts of an (R, N) block.

    Every row starts from the state ``u0`` and its step n evaluates at
    nodes[r, n-1].  ``freeze`` maps the (steps, R) nodes of ``width``
    steps at a time to per-step data, and ``step(data, u)`` maps the
    data of step n and the (R, ...) state U^{n-1} to U^n and the rows'
    iteration counts.  Overflow is left to the finiteness check after
    the march: a NonConvergence of a step, or a non-finite state, is
    raised naming the step and the row.
    """
    if not math.isclose(grid.final_time, final_time, rel_tol=1e-12):
        raise ValueError("grid final time does not match the problem")
    if not (isinstance(nodes, np.ndarray) and nodes.ndim == 2 and len(nodes)
            and nodes.shape[1] == grid.steps):
        got = nodes.shape if isinstance(nodes, np.ndarray) else type(nodes).__name__
        raise ValueError(f"need an (R, {grid.steps}) node block with R >= 1, got {got}")
    n_steps, rows = grid.steps, len(nodes)
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


def local_residual(problem, exact_at_grid, xi, k):
    """(..., N) defects k f(xi_n, V^n) - V^n + V^{n-1} of grid values V^0..V^N.

    Entry n-1 of the last axis of ``xi`` is step n's node; one ``rhs``
    call gets the (..., N) nodes and the (N,) values V^1..V^N.
    """
    v = exact_at_grid
    return k * problem.rhs(xi, v[1:]) - v[1:] + v[:-1]


def conditional_mean_residual(
    problem, exact, grid: TimeGrid, quad_points: int = 4, panels: int = 1
):
    """Mean residual of the exact solution over every step: an (N,) array.

    Entry n-1 is the deterministic integral

        int_{t_{n-1}}^{t_n} [ f(s, u(t_n)) - f(s, u(s)) ] ds

    by composite Gauss-Legendre quadrature with ``quad_points`` nodes on
    each of ``panels`` equal subintervals.  Aligning the panels with the
    breakpoints of a piecewise right-hand side makes the rule exact.  The
    problem must be scalar, and ``exact`` and ``rhs`` must act
    elementwise on arrays of times: one ``exact`` call and two ``rhs``
    calls evaluate an (N, panels*quad_points) block of points, which
    costs 8*N*panels*quad_points bytes per temporary (4 * 2^max(K, n)
    points in the residual study).
    """
    if problem.dimension != 1:
        raise ValueError("the conditional mean residual needs a scalar problem")
    if quad_points < 2:
        raise ValueError("quad_points must be at least 2")
    if panels < 1:
        raise ValueError("panels must be at least 1")
    t = grid.nodes()
    nodes, weights = np.polynomial.legendre.leggauss(quad_points)
    edges = np.linspace(t[:-1], t[1:], panels + 1, axis=1)
    mid = 0.5 * (edges[:, :-1] + edges[:, 1:])
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])
    # every point of every panel of a step, panel by panel in order
    s = (mid[..., None] + half[..., None] * nodes).reshape(grid.steps, -1)
    w = (half[..., None] * weights).reshape(grid.steps, -1)
    terms = w * (problem.rhs(s, exact(t[1:])[:, None]) - problem.rhs(s, exact(s)))
    # a row-wise cumsum adds in point order, as the scalar recursion did
    return np.cumsum(terms, axis=1)[:, -1]
