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
that is the root up to rounding.  The solvers hand each block of steps
to one stepper call (see ``_march``): for the ODE, FREEZE_BLOCK steps of
the rows that march every step, or FREEZE_FLOOR row-steps where those
are more.  Its per-step loop for an affine or explicit step is three
in-place ufuncs.
``pde_solver``, the systems case, shares the Newton core and the march.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import partial
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

#: Steps of the rows that march every step whose nodes ``solve`` freezes
#: at once (see ``block_steps``); a block's frozen data are (block, R, ...)
#: temporaries, so longer blocks cost memory.
FREEZE_BLOCK = 64

#: Row-steps that an ODE block holds at least, 64 KiB per float64
#: temporary: each block pays a fixed cost (about 77 us on a shared
#: 2-core Xeon), so a batch of few rows marches in longer blocks.  From
#: 128 rows per step size on, FREEZE_BLOCK steps are as many row-steps.
FREEZE_FLOOR = 2**13

#: Quadrature points that ``conditional_mean_residual`` evaluates at once:
#: 512 KiB per temporary.  The residual study's 4 * 2^K points per grid
#: are one block up to K = 14.
QUAD_BLOCK = 2**16


class StepScheme(Enum):
    RANDOMIZED_BACKWARD_EULER = "rbe"
    CLASSICAL_BACKWARD_EULER = "be"
    RANDOMIZED_FORWARD_EULER = "rfe"

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
    """Newton failed to reduce the step residual below tolerance.

    ``args[0]`` is the bare message; ``str`` prefixes ``step n: `` once
    ``step`` is set.
    """

    def __init__(
        self, message: str, step: Optional[int] = None, replica: Optional[int] = None
    ):
        super().__init__(message)
        self.step = step
        #: position of the failing replica in its batch, for batched solves
        self.replica = replica

    def __str__(self):
        message = self.args[0]
        return message if self.step is None else f"step {self.step}: {message}"


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
    residual is tested (see ``_newton_scalar``).  An affine problem's
    ``jacobian(c, x)`` is then a(c), independent of x: it is called once
    per block of steps, with the block's (steps, rows, ...) frozen data.
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
    """Computed paths of a batch: states[n, r] = U^n of row r.

    Row r's Newton iteration counts are column r of the (N, R) counts,
    N the most steps of any row.  As the reducer of a march it stores
    every state it is handed; a row of fewer steps holds NaN states and
    zero counts past its last step.
    """

    states: np.ndarray  # (N+1, R); (N+1, R, m) for the PDE
    newton_iteration_counts: np.ndarray  # (N, R); zeros if explicit

    @classmethod
    def empty(cls, steps: int, rows: int, shape=()) -> "Trajectory":
        """A path of ``rows`` rows and ``steps`` steps, not yet computed."""
        return cls(np.full((steps + 1, rows) + shape, np.nan),
                   np.zeros((steps, rows), dtype=np.int64))

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid(len(self.states) - 1)

    def __call__(self, first, states, counts):
        """Store a block of a march's states and counts (see ``_march``)."""
        rows, stop = states.shape[1], first + len(states)
        self.states[first:stop, :rows] = states
        self.newton_iteration_counts[stop - 1 - len(counts) : stop - 1, :rows] = counts


def _node_blocks(nodes):
    """The (R_i, N_i) node blocks of ``nodes`` and the (R,) step sizes of
    their rows.

    ``nodes`` is one block, a 2-D ndarray with R, N >= 1, or a list or
    tuple of such blocks whose widths N do not increase.
    """
    blocks = list(nodes) if isinstance(nodes, (list, tuple)) else [nodes]
    if not blocks:
        raise ValueError("need an (R, N) node block with R, N >= 1, got no block")
    for block in blocks:
        if not (isinstance(block, np.ndarray) and block.ndim == 2 and block.size):
            got = block.shape if isinstance(block, np.ndarray) else type(block).__name__
            raise ValueError(f"need an (R, N) node block with R, N >= 1, got {got}")
    widths = [block.shape[1] for block in blocks]
    if any(b > a for a, b in zip(widths, widths[1:])):
        raise ValueError(f"node block widths must not increase, got {widths}")
    k = np.repeat([TimeGrid(n).step_size for n in widths], [len(b) for b in blocks])
    return blocks, k


def check_step_restriction(k: float, nu: float, stacklevel: int = 2) -> None:
    """Reject k*nu >= 1, warn at k*nu >= 1/4 (at the caller's ``stacklevel``,
    as ``warnings.warn`` counts it); no-op for nu <= 0."""
    if nu <= 0.0:
        return
    knu = k * nu
    if knu >= 1.0:
        raise StepRestrictionViolated(
            f"k*nu = {knu:.6g} >= 1 at k = {k:.6g}; the implicit step may have no root"
        )
    if knu >= 0.25:
        warnings.warn(
            f"k*nu = {knu:.6g} >= 1/4; outside the stability hypothesis",
            StepSizeWarning,
            stacklevel=stacklevel + 1,
        )


def _damped_newton(residual, update, norm, x, data, scale=None):
    """Damped Newton for residual(x, *data) = 0, one row of x per replica.

    ``x`` holds one row per replica and ``data`` a tuple of arrays, or
    of batches such as ``fem1d.TriDiag`` that index like them, whose first
    axis runs over the same rows; ``update(x, r, *data)`` returns the
    Newton step for the residual r, and ``norm`` maps rows to their
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


def _newton_parts(rhs, jac):
    """(residual, update, norm) of the step equation x = u_prev + k*rhs(c, x).

    The data of a step are the rows' frozen data c, previous states and
    step sizes k.  A row's update divides by its derivative 1 - k*jac(c, x).
    """

    def residual(x, c, u_prev, k):
        return x - u_prev - k * rhs(c, x)

    def update(x, r, c, u_prev, k):
        deriv = 1.0 - k * jac(c, x)
        singular = deriv == 0.0
        if singular.any():
            raise NonConvergence("singular Newton derivative",
                                 replica=np.flatnonzero(singular)[0])
        return r / deriv

    return residual, update, np.abs


def _newton_scalar(problem, data, u, k, out, counts):
    """The implicit steps of a block, a ``step`` of ``_march``.

    Step j solves x = u_prev + k*f(c, x) from the O(k)-accurate predictor
    u_prev: by ``_damped_newton`` on the ``_newton_parts``, or for an
    ``affine`` problem by Newton's first iterate, the root up to rounding:
    u_prev + (k*f)/d with d = 1 - k*a(c), bit for bit for a finite u_prev
    ((u - u) - k*f is exactly -(k*f)), with the count 1 and no residual
    test, so a row whose start already meets the tolerance counts 1 where
    damped Newton keeps u_prev and counts 0.  One ``jacobian`` call gives
    the block's d, and a zero d raises before any step, naming its first
    step and row in step order, then row order.
    """
    rhs, jac = problem.rhs, problem.jacobian
    if not problem.affine:
        parts = _newton_parts(rhs, jac)
        return _each_step(lambda at, u: _damped_newton(*parts, u, (at, u, k)),
                          data, u, out, counts)
    d = np.broadcast_to(1.0 - k * jac(data, u), counts.shape)
    singular = np.argwhere(d == 0.0)
    if len(singular):
        j, row = singular[0]
        raise NonConvergence("singular Newton derivative", step=int(j), replica=int(row))
    counts[...] = 1
    return _direct_steps(rhs, d, data, u, k, out)


def _direct_steps(rhs, d, data, u, k, out, counts=None):
    """March a block by u + (k*f)/d_j per step in place, one ``rhs`` call
    each; with ``d`` None it is the explicit step, whose counts stay 0."""
    # the callbacks' results are never written into: rhs may return its
    # frozen data, which may be the nodes themselves
    buf = np.empty_like(u)
    for at, dj, o in zip(data, itertools.repeat(None) if d is None else d, out):
        np.multiply(k, rhs(at, u), out=buf)
        if dj is not None:
            buf /= dj
        u = np.add(u, buf, out=o)
    # a view of ``out`` would keep the block's states alive into the next
    return u.copy()


def _each_step(newton, data, u, out, counts):
    """March a block one ``newton(at, u)`` per step, which maps step j's
    frozen data and the rows' states to their next states and iteration
    counts; returns the last state, the object ``newton`` returned.  A
    NonConvergence leaves with ``step`` set to j.
    """
    for j, at in enumerate(data):
        try:
            u, counts[j] = newton(at, u)
        except NonConvergence as err:
            err.step = j
            raise
        out[j] = u
    return u


def solve(problem: OdeProblem, scheme: StepScheme, nodes, reduce=None):
    """March the selected one-step rule over node blocks; returns ``reduce``.

    ``nodes`` is an (R, N) block, or a list of blocks whose widths N do
    not increase (see ``_march``).  A block's width N fixes its rows'
    k = 1/N, and step n of row r evaluates f at the row's n-th node.  Rows
    of ``rand_nodes.random_node_blocks`` march randomized replicas and a
    row of grid points t_1..t_N the classical scheme, so one batch holds
    both, at every step size; ``scheme`` only picks implicit or explicit
    steps.  Every row gets the same bits as when marched alone.
    The problem's ``freeze`` takes the nodes of a block of steps at once
    (see ``block_steps``; a node outside its domain raises there), and
    one stepper call marches that block: ``_newton_scalar`` for an
    implicit scheme and ``_direct_steps`` for the explicit one.  The steps
    evaluate only f's state dependence, one ``rhs`` call per step for an
    affine problem or an explicit scheme.  ``reduce`` receives the march's
    states (see ``_march``); by default a ``Trajectory`` stores them all.
    ``_march`` names the step and row of a failure.
    """
    blocks, k = _node_blocks(nodes)
    if scheme.is_implicit:
        # coarsest first, as a sweep of one step size at a time meets them
        for steps in sorted({block.shape[1] for block in blocks}):
            check_step_restriction(TimeGrid(steps).step_size, problem.one_sided_constant)
        step = partial(_newton_scalar, problem)
    else:
        step = partial(_direct_steps, problem.rhs, None)
    if reduce is None:
        reduce = Trajectory.empty(blocks[0].shape[1], len(k))
    u0 = np.asarray(problem.initial_value, dtype=float)
    _march(blocks, k, u0, FREEZE_BLOCK, problem.freeze, step, reduce, FREEZE_FLOOR)
    return reduce


def block_steps(rows, full, width, floor):
    """Steps of a block of ``rows`` live rows, ``full`` of which march
    every step: it holds ``width`` steps of the ``full`` rows or
    ``floor`` row-steps, whichever is more, and at least one step."""
    return max(1, max(width * full, floor) // rows)


def _march(blocks, k, u0, width, freeze, step, reduce, floor=0):
    """March every row of the node ``blocks`` in lockstep from the state ``u0``.

    ``blocks`` are (R_i, N_i) node arrays whose widths do not increase,
    and ``k`` the (R,) or (R, 1) step sizes of their rows, in order.  Step
    n advances every row with N_i >= n, a prefix of the rows, and a row
    retires after its own N_i steps.

    The steps go in blocks.  ``freeze`` maps a block's (steps, rows) nodes
    to its frozen data, step by step.  A block holds ``block_steps``:
    ``width`` steps of the rows that march every step, or ``floor``
    row-steps where those are more, and fewer steps where more rows are
    live, so its temporaries stay the size of a batch of one step size;
    it ends early where a row retires inside it.
    ``step(data, u, k, out, counts)`` marches a block: from the block's
    frozen data, the (rows, ...) states U^lo and the rows' step sizes
    ``k[:rows]``, it writes U^{lo+1+j} to
    ``out[j]`` and the rows' iteration counts of that step to
    ``counts[j]``, and returns U^hi, the object that the next block
    starts from.  After each block ``reduce(first, states, counts)``
    receives the states U^first.. of the block's rows, the first block's
    beginning with U^0, and the iteration counts of the steps to the last
    len(counts) of them.

    A NonConvergence, which a ``step`` raises with the index j of its
    step in the block, leaves with ``step`` re-based to lo+1+j.  Overflow
    is left to a finiteness check: the first block that holds a
    non-finite state raises NonConvergence naming its first such step,
    then row.  Blocks run in step order, so either names the march's
    first failing step and its row.
    """
    widths = [block.shape[1] for block in blocks]
    rows = list(itertools.accumulate(len(block) for block in blocks))
    full = rows[widths.count(widths[0]) - 1]  # the rows that march every step
    u = np.empty((rows[-1],) + u0.shape)
    u[...] = u0
    live, lo = len(blocks), 0
    with np.errstate(over="ignore", invalid="ignore"):
        while lo < widths[0]:
            while widths[live - 1] <= lo:
                live -= 1
            r = rows[live - 1]
            hi = min(lo + block_steps(r, full, width, floor), widths[live - 1])
            if r < len(u):
                u = u[:r]
            nodes = np.concatenate([b[:, lo:hi].T for b in blocks[:live]], axis=1)
            head = int(lo == 0)  # the first block's states begin with U^0
            states = np.empty((hi - lo + head, r) + u0.shape)
            if head:
                states[0] = u
            counts = np.zeros((hi - lo, r), dtype=np.int64)
            data = freeze(nodes)
            try:
                u = step(data, u, k[:r], states[head:], counts)
            except NonConvergence as err:
                err.step += lo + 1
                raise
            if not np.isfinite(states).all():
                finite = np.isfinite(states).reshape(len(states), r, -1).all(axis=2)
                i, row = (int(i) for i in np.argwhere(~finite)[0])
                raise NonConvergence("non-finite state", step=lo + 1 - head + i,
                                     replica=row)
            reduce(lo + 1 - head, states, counts)
            lo = hi


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
