"""Monte Carlo error estimation, rate fitting, and the benchmark sweeps.

``_setup`` resolves a sweep's problem id: it builds the problem (the
scalar ODE or the Galerkin PDE) with its solver and its error
reduction, for the spec's checks and for every batch alike.  Three
helpers also test for ``semilinear-heat``, for the PDE's own batch
shape, block size and imports: ``_plan``, ``_task_bytes`` and
``_preload``.

Replica r always consumes the substream (master_seed, r), drawn once
per batch, every row of a batch gets the bits it gets alone, and
reductions run in ascending replica order, so results are byte-identical
across reruns and worker counts: a pool runs shares of the one-worker
batches (see ``_plan``).  ``run_mc`` alone picks a failing sweep's cell.

CSV schema (one row per (scheme, step size), '.' decimal, 17 significant
digits in scientific notation):

    scheme,N,k,replicas,rms_error_final,rms_error_max,mc_stderr_final,mean_newton_iters

Rate fits are written as: scheme,window_lo,window_hi,slope,intercept,residual
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import asdict, astuple, dataclass
from enum import Enum
from functools import partial
from typing import Optional, Sequence

import numpy as np

from . import problems
from .fem1d import Mesh, l2_error
from .ode_solver import (
    FREEZE_BLOCK,
    FREEZE_FLOOR,
    NonConvergence,
    OdeProblem,
    StepScheme,
    StepSizeWarning,
    block_steps,
    check_step_restriction,
    conditional_mean_residual,
    local_residual,
    solve,
)
from .pde_solver import STEP_BLOCK, STEP_FLOOR, pde_solve
from .rand_nodes import (DEFAULT_MASTER_SEED, TimeGrid, check_seed, is_integer,
                         random_node_blocks, stacked_random_nodes)


class ErrorMode(Enum):
    FINAL_TIME = "final"
    MAX_OVER_GRID = "max"


class ExperimentError(RuntimeError):
    """A replica failed; carries (scheme, k, replica, step) context."""


@dataclass(frozen=True)
class ExperimentSpec:
    """One Monte Carlo sweep: problem, schemes, and step-size exponents.

    Step sizes are k = 2^-n for each exponent n.  Problem ids:

    * ``prothero-robinson``: stiff scalar ODE, parameters ``lam`` and
      ``sawtooth_exponent`` (K).
    * ``time-integral``: state-independent f(t) = t (quadrature check).
    * ``semilinear-heat``: manufactured parabolic benchmark, parameters
      ``sawtooth_exponent`` (K), ``cap`` (R), ``power``, ``mesh_dof``.

    Construction resolves the id through ``_setup``, so a parameter that
    the problem refuses raises here, before any worker process starts, as
    do a replica count, step exponent, sawtooth exponent or mesh_dof that
    is a bool or not an integer,
    a seed that ``rand_nodes.check_seed`` refuses, an implicit scheme
    at a step size with k*nu >= 1 and a sweep whose largest batch needs
    more than physical memory.  An implicit scheme at a step size with
    k*nu >= 1/4 warns here, once for each such step size, coarsest first,
    in the process that plans the sweep; its batches do not warn again.
    ``residual_study`` takes a spec with no schemes.
    """

    problem: str
    schemes: tuple[StepScheme, ...]
    step_exponents: tuple[int, ...]
    mc_replicas: int
    master_seed: int = DEFAULT_MASTER_SEED
    lam: float = 2.0
    sawtooth_exponent: Optional[int] = None
    cap: float = 10.0
    power: float = 4.0
    mesh_dof: Optional[int] = None

    def __post_init__(self):
        if not is_integer(self.mc_replicas):
            raise ValueError(f"mc_replicas must be an integer, got {self.mc_replicas!r}")
        if self.mc_replicas < 1:
            raise ValueError(f"need at least one replica, got {self.mc_replicas}")
        check_seed(self.master_seed)
        if not self.step_exponents:
            raise ValueError("need at least one step exponent")
        if not all(map(is_integer, self.step_exponents)):
            raise ValueError(f"step exponents must be integers, got {self.step_exponents!r}")
        if min(self.step_exponents) < 0:
            raise ValueError(
                f"step exponents must be at least 0, got {min(self.step_exponents)}"
            )
        if any(
            b <= a for a, b in zip(self.step_exponents, self.step_exponents[1:])
        ):
            raise ValueError("step exponents must be strictly increasing")
        if len(set(self.schemes)) < len(self.schemes):
            raise ValueError("each scheme may appear only once")
        for name in ("sawtooth_exponent", "mesh_dof"):
            value = getattr(self, name)
            if value is not None and not is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.mesh_dof is not None and self.mesh_dof < 1:
            raise ValueError(f"mesh_dof must be at least 1, got {self.mesh_dof}")
        # the PDE has no step restriction
        nu = getattr(_setup(self)[0], "one_sided_constant", 0.0)
        if any(s.is_implicit for s in self.schemes):
            # increasing exponents: the coarsest k, the worst, comes first
            for n in self.step_exponents:
                # names the line that builds the spec, past the generated __init__
                check_step_restriction(2.0**-n, nu, stacklevel=3)
        _refuse_above_memory(
            max((_task_bytes(self, task) for task in _plan(self)), default=0),
            "the largest batch")


@dataclass(frozen=True)
class ErrorRow:
    scheme: str
    steps: int
    step_size: float
    replicas: int
    rms_error_final: float
    rms_error_max: float
    mc_stderr_final: float
    mean_newton_iters: float

    @property
    def exponent(self) -> int:
        return round(math.log2(self.steps))

    def error(self, mode: ErrorMode) -> float:
        if mode is ErrorMode.FINAL_TIME:
            return self.rms_error_final
        return self.rms_error_max


@dataclass
class ErrorTable:
    rows: list[ErrorRow]

    def for_scheme(self, scheme: str) -> list[ErrorRow]:
        return [r for r in self.rows if r.scheme == scheme]

    def schemes(self) -> list[str]:
        return list(dict.fromkeys(r.scheme for r in self.rows))


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log2(error) against log2(k) over a window.

    Positive slope means the error shrinks with the step size.
    """

    window: tuple[int, int]
    slope: float
    intercept: float
    residual: float


def _batch_nodes(spec, schemes, exponents, lo, hi):
    """The cells of one lockstep batch, finest step size first: a
    (exponent, scheme, nodes) triple per scheme and step size.

    A randomized scheme's nodes hold one row per replica lo..hi-1, every
    step size's from one draw (``random_node_blocks``); the classical
    scheme's one row of grid points is its one path for every replica.
    """
    exponents = sorted(exponents, reverse=True)
    grids = [TimeGrid(2**n) for n in exponents]
    drawn = (random_node_blocks(spec.master_seed, range(lo, hi), grids)
             if any(scheme.is_randomized for scheme in schemes) else None)
    return [(n, scheme, drawn[i] if scheme.is_randomized else grid.nodes()[None, 1:])
            for i, (n, grid) in enumerate(zip(exponents, grids)) for scheme in schemes]


def _rows(schemes, lo, hi):
    """Rows of a batch per step size: replicas lo..hi-1, or one classical."""
    return sum(hi - lo if s.is_randomized else 1 for s in schemes)


def _positions(cells):
    """The batch rows of each (exponent, scheme) of ``cells``, in order."""
    rows, start = {}, 0
    for exponent, scheme, nodes in cells:
        rows[exponent, scheme] = range(start, start + len(nodes))
        start += len(nodes)
    return rows


def _batch_failure(err, cells, lo):
    """ExperimentError naming the cell and replica of a batch's failing row."""
    pos = getattr(err, "replica", None) or 0
    (exponent, scheme), rows = next(
        (cell, r) for cell, r in _positions(cells).items() if pos in r)
    replica = lo + pos - rows.start if scheme.is_randomized else 0
    step = getattr(err, "step", None)
    return ExperimentError(
        f"scheme={scheme.value} k=2^-{exponent} replica={replica} step={step}: {err.args[0]}"
    )


class _RowErrors:
    """The sweep's reducer of a lockstep march (see ``ode_solver._march``):
    each row's final and largest error and its Newton iterations.

    The rows are those of ``_batch_nodes``: ``per_size`` for each step
    size of ``exponents``, finest first.  ``errors(first, states, steps)``
    gives the (times, rows) errors of the states U^first.. of the rows of
    the step counts ``steps``.  ``newton_iteration_counts`` holds the
    iterations of each lockstep step, summed over the batch's rows.
    """

    def __init__(self, errors, exponents, per_size):
        self.errors = errors
        self.steps = 2 ** np.array(sorted(exponents, reverse=True), dtype=np.int64)
        self.per_size = per_size
        rows = per_size * len(self.steps)
        self.final = np.empty(rows)
        self.worst = np.full(rows, -np.inf)
        self.iterations = np.zeros(rows, dtype=np.int64)
        self.newton_iteration_counts = np.zeros(self.steps[0], dtype=np.int64)

    def __call__(self, first, states, counts):
        rows = states.shape[1]
        errs = self.errors(first, states, self.steps[: rows // self.per_size])
        np.maximum(self.worst[:rows], errs.max(axis=0), out=self.worst[:rows])
        # a row's last block ends at its last step
        self.final[:rows] = errs[-1]
        self.iterations[:rows] += counts.sum(axis=0)
        stop = first + len(states) - 1
        self.newton_iteration_counts[stop - len(counts) : stop] = counts.sum(axis=1)

    def by_cell(self, cells):
        """Each (scheme, exponent)'s (final, max, mean Newton iterations) per row."""
        means = self.iterations / np.repeat(self.steps, self.per_size)
        return {(scheme, exponent): (self.final[r], self.worst[r], means[r])
                for (exponent, scheme), r in _positions(cells).items()}


def _ode_errors(problem, first, states, steps):
    """Absolute errors of the (times, rows) ODE states U^first..; the
    exact solution is evaluated once per step size."""
    times = np.arange(first, first + len(states))[:, None] / steps
    diff = states.reshape(len(states), len(steps), -1) - problem.exact(times)[..., None]
    return np.abs(diff, out=diff).reshape(states.shape)


def _pde_errors(problem, mesh, first, states, steps):
    """L2 errors of the (times, rows, m) fields U^first..; the exact
    solution at a (time, step size) serves every row of that step size."""
    times = (np.arange(first, first + len(states))[:, None] / steps)[..., None, None, None]
    fields = states.reshape(len(states), len(steps), -1, states.shape[-1])
    errs = l2_error(mesh, fields, lambda x: problem.exact(times, x))
    return errs.reshape(states.shape[:2])


def _setup(spec: ExperimentSpec):
    """(problem, march, errors) of the spec's problem id: the one place an
    id is resolved.

    ``march(scheme, nodes, reduce)`` solves a batch, ``errors(first,
    states, steps)`` gives the per-row errors of a block of its states
    (see ``_RowErrors``).  Building the problem checks every parameter
    that the id reads.
    """
    if spec.problem not in ("prothero-robinson", "time-integral", "semilinear-heat"):
        raise ValueError(f"unknown problem id {spec.problem!r}")
    if spec.problem != "time-integral" and spec.sawtooth_exponent is None:
        raise ValueError(f"{spec.problem} needs sawtooth_exponent")
    if spec.problem == "time-integral":
        problem = problems.time_integral_problem()
    elif spec.problem == "prothero-robinson":
        saw = problems.SawtoothSpec(spec.sawtooth_exponent)
        problem = problems.prothero_robinson_problem(problems.ProtheroRobinsonSpec(spec.lam, saw))
    else:
        saw = problems.SawtoothSpec(spec.sawtooth_exponent)
        if spec.mesh_dof is None:
            raise ValueError("semilinear-heat needs mesh_dof")
        if StepScheme.RANDOMIZED_FORWARD_EULER in spec.schemes:
            raise ValueError("no explicit scheme for the PDE benchmark")
        problem = problems.semilinear_heat_problem(
            saw, problems.TruncatedPowerSpec(cap=spec.cap, power=spec.power))
        mesh = Mesh(spec.mesh_dof)
        return problem, partial(pde_solve, problem, mesh), partial(_pde_errors, problem, mesh)
    return problem, partial(solve, problem), partial(_ode_errors, problem)


def _preload(spec):
    """Import what each task of the spec would import lazily, so that the
    workers of a pool forked after this inherit it: numpy.random for the
    node draws, scipy.linalg's lapack for ``fem1d.tridiag_solve``."""
    if any(scheme.is_randomized for scheme in spec.schemes):
        import numpy.random  # noqa: F401
    if spec.problem == "semilinear-heat":
        from scipy.linalg import lapack  # noqa: F401


def _chunk(spec, schemes, exponents, lo, hi):
    """Per-replica (final, max, mean-newton) errors of one lockstep batch,
    by (scheme, exponent).

    ``schemes`` is the tuple of schemes that march together, implicit ones
    or one explicit, at every step size of ``exponents``.  A randomized
    scheme gives the errors of replicas lo..hi-1, the classical scheme
    those of its one path.  A failing batch raises an ExperimentError
    naming the cell, replica and step of the row its lockstep march
    stopped at; which cell a sweep reports is ``run_mc``'s rule.
    """
    problem, march, errors = _setup(spec)
    cells = _batch_nodes(spec, schemes, exponents, lo, hi)
    reduce = _RowErrors(errors, exponents, _rows(schemes, lo, hi))
    try:
        with warnings.catch_warnings():
            # the spec warned once for each step size as it was built
            warnings.simplefilter("ignore", StepSizeWarning)
            march(schemes[0], [nodes for _, _, nodes in cells], reduce)
    except (NonConvergence, ValueError) as err:
        raise _batch_failure(err, cells, lo) from err
    return reduce.by_cell(cells)


#: Unknowns (rows times mesh_dof) per PDE batch, near the least cost per
#: row-step: ``pde_solve`` at N = 256, best of 3, took 82-97, 76, 80, 79 and
#: 89 us per row-step with 8, 16, 24, 32 and 64 rows at dof 500, and 36, 28,
#: 25 and 27 us with 16, 32, 64 and 128 rows at dof 127.  A batch takes
#: PDE_BATCH_UNKNOWNS // mesh_dof replicas, and marches as many step sizes of
#: them in lockstep as this cap holds, at least one: in a paper-shaped
#: lockstep batch of 16 replicas and 8 step sizes at dof 500, a row-step
#: took 127 us with 17 rows live and 137, 144, 199, 214 and 412 us with
#: 34, 68, 85, 102 and 136.
PDE_BATCH_UNKNOWNS = 8192

#: float64 temporaries per unknown of a block of steps at the peak of a
#: batch: around ``run_mc`` of a semilinear-heat rbe,be task at n = 4:5
#: with 2 replicas, ru_maxrss rose by 13.8 blocks of states at dof 20,000
#: and 11.6 at dof 100,000.  Few-row tasks at dof 60 to 1,000, whose
#: blocks hold STEP_FLOOR unknowns (256 KiB), rose by 14.0 to 20.4 blocks:
#: at most about 1 MiB above the price.
BLOCK_TEMPORARIES = 16


def _plan(spec, workers=1):
    """The sweep's tasks, (schemes, exponents, lo, hi), in the order run.

    A task is one lockstep batch as the solver marches it: the schemes of
    one group (implicit, or explicit) at the step sizes of ``exponents``,
    over replicas lo..hi-1, with the classical row in the first batch of
    its group.  The ODE marches a group's every step size in one batch,
    unless a pool has more ``workers`` than there are groups: then each
    group is cut into at least ceil(workers / groups) pieces, first its
    finest step size, which holds about half of its row-steps, apart from
    the coarser ones, then each of those into shares of the replicas.  A
    piece marches every step size of its span in lockstep, so more pieces
    cost more steps: one per group is the least work.  The PDE
    divides a group into batches of PDE_BATCH_UNKNOWNS // mesh_dof
    replicas, and its step sizes, finest first, into spans whose rows hold
    at most PDE_BATCH_UNKNOWNS unknowns, at least one step size each.
    Coarser step sizes come first.
    """
    groups = {}  # implicit or not -> schemes, in order of first appearance
    for scheme in spec.schemes:
        groups.setdefault(scheme.is_implicit, []).append(scheme)
    every = spec.step_exponents
    tasks = []
    for schemes in map(tuple, groups.values()):
        randomized = tuple(s for s in schemes if s.is_randomized)
        replicas = spec.mc_replicas if randomized else 0
        width, spans = replicas or 1, [every]
        if spec.problem == "semilinear-heat":
            width = max(1, PDE_BATCH_UNKNOWNS // spec.mesh_dof)
            rows = _rows(schemes, 0, min(width, replicas))  # of the first batch
            span = max(1, PDE_BATCH_UNKNOWNS // (rows * spec.mesh_dof))
            # cut from the finest end
            spans = [every[max(0, i - span) : i] for i in range(len(every), 0, -span)][::-1]
        elif workers > len(groups):
            # ceil(workers / groups) pieces: the finest step size apart,
            # then shares of the replicas
            pieces = -(-workers // len(groups))
            spans = [every[:-1], every[-1:]] if len(every) > 1 else [every]
            width = -(-width // -(-pieces // len(spans)))
        for exponents in spans:
            for lo in range(0, replicas, width) or [0]:
                batch = schemes if lo == 0 else randomized
                tasks.append((batch, exponents, lo, min(lo + width, replicas)))
    return tasks


def _task_size(task):
    """Steps times rows of a task: its share of the sweep's work."""
    schemes, exponents, lo, hi = task
    return sum(2**n for n in exponents) * _rows(schemes, lo, hi)


def _task_bytes(spec, task):
    """Bytes of a task's arrays: its node blocks, one (R, N) block per step
    size, and BLOCK_TEMPORARIES float64 temporaries per unknown of the
    largest block of steps, the ``ode_solver.block_steps`` of its finest
    step size's rows alone (or all of their steps, if fewer): a block
    where coarser rows are live as well holds no more row-steps.
    Around ``run_mc`` of a prothero-robinson rbe,be task at n = 17 with 20
    replicas, and at n = 12:17, ru_maxrss rose by 1.05 node blocks."""
    schemes, exponents, lo, hi = task
    rows, width, floor, m = _rows(schemes, lo, hi), FREEZE_BLOCK, FREEZE_FLOOR, 1
    if spec.problem == "semilinear-heat":
        m = spec.mesh_dof
        width, floor = STEP_BLOCK, STEP_FLOOR // m
    steps = min(block_steps(rows, rows, width, floor), 2 ** max(exponents))
    return 8 * (_task_size(task) + BLOCK_TEMPORARIES * steps * rows * m)


def physical_memory() -> float:
    """Bytes of physical memory, SC_PAGE_SIZE * SC_PHYS_PAGES; infinite
    where the host does not report them."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return math.inf


def _refuse_above_memory(needed, what):
    """ValueError naming the bytes when ``needed`` exceeds physical memory:
    a request that cannot fit is refused before it allocates."""
    limit = physical_memory()
    if needed > limit:
        raise ValueError(f"{what} needs {needed} bytes ({needed / 2**30:.3g} GiB), "
                         f"above the {limit} bytes of physical memory")


def _run_tasks(chunk_fn, spec, tasks, workers):
    """Each task's result, in task order, from up to ``workers`` processes.

    A pool's workers fork after ``_preload``; every task is submitted at
    once, largest first, and a failure cancels the tasks not yet started.
    """
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [chunk_fn(spec, *task) for task in tasks]
    # imported here, so that a sweep without a pool never loads
    # concurrent.futures.process
    from concurrent.futures import ProcessPoolExecutor

    _preload(spec)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {
            task: pool.submit(chunk_fn, spec, *task)
            for task in sorted(tasks, key=_task_size, reverse=True)
        }
        try:
            return [futures[task].result() for task in tasks]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def run_mc(spec: ExperimentSpec, workers: int = 1) -> ErrorTable:
    """Root-mean-square errors over replicas for every (scheme, k).

    rms = sqrt(mean_r e_r^2) with e_r the replica error against the exact
    solution (absolute value for the ODE, quadrature L2 norm for the
    PDE), at the final time and maximal over the grid.  The Monte Carlo
    standard error of the rms estimate comes from the sample variance of
    e_r^2 via the delta method.  The implicit schemes march as one
    lockstep batch of every step size, and the explicit scheme as
    another (see ``_plan``); the rows follow the order of ``spec.schemes``.
    On an ExperimentError, at any worker count, the sweep marches the
    one-worker plan in-process one step size at a time, coarsest first,
    and raises the first cell that fails.
    """
    try:
        results = _run_tasks(_chunk, spec, _plan(spec, workers), workers)
    except ExperimentError:
        for schemes, exponents, lo, hi in _plan(spec):
            for n in exponents:
                _chunk(spec, schemes, (n,), lo, hi)
        raise
    parts = {}  # (scheme, exponent) -> errors of each batch, in replica order
    for errors in results:
        for cell, part in errors.items():
            parts.setdefault(cell, []).append(part)
    rows: list[ErrorRow] = []
    for scheme in spec.schemes:
        # the classical scheme's one path stands for every replica
        copies = 1 if scheme.is_randomized else spec.mc_replicas
        for exponent in spec.step_exponents:
            e_final, e_max, iters = (
                np.repeat(np.concatenate(e), copies)
                for e in zip(*parts[scheme, exponent])
            )
            rows.append(
                ErrorRow(
                    scheme=scheme.value,
                    steps=2**exponent,
                    step_size=2.0 ** (-exponent),
                    replicas=spec.mc_replicas,
                    rms_error_final=_rms(e_final),
                    rms_error_max=_rms(e_max),
                    mc_stderr_final=_rms_stderr(e_final),
                    mean_newton_iters=float(iters.mean()),
                )
            )
    return ErrorTable(rows)


def _squares(errors: np.ndarray):
    """(scale, sq) with errors^2 = scale^2 * sq: the scale is 1 unless the
    mean square overflows while every error is finite, then the largest |e|."""
    with np.errstate(over="ignore"):
        if math.isfinite(np.mean(errors * errors)) or not np.isfinite(errors).all():
            return 1.0, errors * errors
    scale = float(np.abs(errors).max())
    return scale, np.square(errors / scale)


def _rms(errors: np.ndarray) -> float:
    scale, sq = _squares(errors)
    return scale * math.sqrt(sq.mean())


def _rms_stderr(errors: np.ndarray) -> float:
    # one replica, or a deterministic scheme: no MC spread
    if errors.size < 2 or np.all(errors == errors[0]):
        return 0.0
    scale, sq = _squares(errors)
    mean_sq = float(sq.mean())
    if mean_sq == 0.0:
        return 0.0
    if not math.isfinite(mean_sq):
        return math.inf
    # delta method, normalized so huge error magnitudes cannot overflow
    z = sq / mean_sq
    rms = scale * math.sqrt(mean_sq)
    return float(rms * z.std(ddof=1) / (2.0 * np.sqrt(sq.size)))


def fit_rate(
    table: ErrorTable,
    scheme: str,
    window: tuple[int, int],
    error_mode: ErrorMode = ErrorMode.FINAL_TIME,
) -> RateFit:
    """Fit log2(error) = slope*log2(k) + intercept over an exponent window."""
    lo, hi = window
    rows = [r for r in table.for_scheme(scheme) if lo <= r.exponent <= hi]
    errors = [r.error(error_mode) for r in rows]
    return _loglog_fit((lo, hi), [r.step_size for r in rows], errors, f"{scheme} error")


def _loglog_fit(window, step_sizes, values, what) -> RateFit:
    """Least-squares fit of log2(value) against log2(k) over a window;
    fewer than two points, or a value whose log2 is not finite, raise."""
    if len(values) < 2:
        raise ValueError(f"window {window} holds {len(values)} rows; need at least 2")
    values = np.array(values, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError(f"non-finite {what} in fit window {window}")
    if np.any(values <= 0.0):
        raise ValueError(f"nonpositive {what} in fit window {window}")
    x = np.array([math.log2(k) for k in step_sizes])
    y = np.log2(values)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return RateFit(
        window=window,
        slope=float(slope),
        intercept=float(intercept),
        residual=float(np.sqrt(np.mean(resid * resid))),
    )


# ---------------------------------------------------------------------------
# residual scaling study


#: Replicas per block of the residual study: one NodeStream draws their
#: nodes and one rhs call evaluates every step of every step size of
#: them; the temporaries grow with it.  On the residual benchmark (2,000
#: replicas, N = 16..256, 2 runs at seed 42) sweep_s read 0.048 s at 32,
#: 0.045 s at 64 and 0.044 s at 128, and peak RSS 39.7, 40.8 and 43.7 MiB.
RESIDUAL_BLOCK = 32

#: float64 temporaries per point at the peak of a residual-study block:
#: 10.8 were measured per quadrature point, 6.2 per node of the stacked block.
RESIDUAL_TEMPORARIES = 12


@dataclass(frozen=True)
class ResidualRow:
    exponent: int
    step_size: float
    rms_residual: float  # sqrt( sum_n mean_r |rho_n|^2 )
    mean_residual: float  # max_n |E[rho_n]| by deterministic quadrature


def _residual_sums(spec, problem, grids):
    """(len(grids), replicas) sums over the steps of each replica's squared
    local residuals, added in step order as the scalar recursion adds, from
    one ``local_residual`` call per block of up to RESIDUAL_BLOCK replicas."""
    exact = [problem.exact(grid.nodes()) for grid in grids]
    # (sum N, 1) columns of k, V^{n-1} and V^n, grid by grid as the nodes' rows
    k, before, after = (np.concatenate(parts)[:, None] for parts in (
        [np.full(grid.steps, grid.step_size) for grid in grids],
        [v[:-1] for v in exact], [v[1:] for v in exact]))
    starts = np.cumsum([grid.steps for grid in grids])[:-1]
    sum_sq = np.empty((len(grids), spec.mc_replicas))
    # overflow is left to the caller's finiteness check
    with np.errstate(over="ignore"):
        for lo in range(0, spec.mc_replicas, RESIDUAL_BLOCK):
            block = range(lo, min(lo + RESIDUAL_BLOCK, spec.mc_replicas))
            rho = local_residual(problem, k, before, after,
                                 stacked_random_nodes(spec.master_seed, block, grids))
            rho *= rho
            # numpy sums down the steps row by row, in step order, but a
            # one-replica column pairwise: that one takes the cumsum
            for i, sq in enumerate(np.split(rho, starts)):
                sum_sq[i, lo : lo + len(block)] = (
                    sq.sum(axis=0) if rho.shape[1] > 1 else np.cumsum(sq, axis=0)[-1])
    return sum_sq


def residual_study(spec: ExperimentSpec) -> list[ResidualRow]:
    """Scaling of the local residual of the exact solution in k.

    ``spec`` names an ODE problem (the PDE is a ValueError) and no
    schemes; the study reads its problem through ``_setup``, and its step
    exponents, replicas and master seed.  For each step size the
    pathwise column accumulates the squared residuals over all steps
    before the root (the quantity whose square sums in the error
    analysis), so it scales like k^(1/2) on the stiff sawtooth
    benchmark; the conditional-mean column is evaluated by
    quadrature with panels aligned to the sawtooth breakpoints of the
    spec's K and scales like k.  Per block of replicas, one
    ``local_residual`` call gives every step size's residuals on its
    (sum N, block) step-major nodes; per step size, one
    ``conditional_mean_residual`` call gives the (N,) means.  A study
    whose sums of squares and the temporaries of that node block, or of
    one step's quadrature points, would need more than physical memory
    raises ValueError before it allocates; a non-finite column raises
    ExperimentError.
    """
    problem = _setup(spec)[0]
    if not isinstance(problem, OdeProblem):
        raise ValueError(f"the residual study needs an ODE problem, not {spec.problem}")
    exponents, replicas = spec.step_exponents, spec.mc_replicas
    # one panel of 4 points per sawtooth interval; time-integral has one
    panels = [2 ** max((spec.sawtooth_exponent or 0) - n, 0) for n in exponents]
    points = max(min(RESIDUAL_BLOCK, replicas) * sum(2**n for n in exponents),
                 4 * max(panels))
    _refuse_above_memory(
        8 * (RESIDUAL_TEMPORARIES * points + len(exponents) * replicas),
        "the residual study")
    grids = [TimeGrid(2**n) for n in exponents]
    means = [conditional_mean_residual(problem, grid, count)
             for count, grid in zip(panels, grids)]
    sum_sq = _residual_sums(spec, problem, grids)
    rows = [
        ResidualRow(exponent=exponent, step_size=grid.step_size,
                    rms_residual=float(np.sqrt(path_sq.mean())),
                    mean_residual=float(np.abs(mean).max()))
        for exponent, grid, path_sq, mean in zip(exponents, grids, sum_sq, means)
    ]
    for row in rows:
        if not (math.isfinite(row.rms_residual) and math.isfinite(row.mean_residual)):
            raise ExperimentError(f"k=2^-{row.exponent}: residual overflows")
    return rows


# ---------------------------------------------------------------------------
# figure reproductions


@dataclass(frozen=True)
class ExperimentScale:
    """The ExperimentSpec fields that a figure sets per scale."""

    sawtooth_exponent: int
    step_exponents: tuple[int, ...]
    mc_replicas: int
    mesh_dof: Optional[int] = None


@dataclass(frozen=True)
class Figure:
    """One of the paper's figures: its fixed sweep settings and its scales.

    ``fixed`` holds the ExperimentSpec fields that do not vary with the
    scale.  Without an explicit scheme the figure's result is its rbe and
    be rate fits; with one, the stability summary.
    """

    title: str
    schemes: tuple[str, ...]
    fixed: dict
    scales: dict

    @property
    def fits_rates(self) -> bool:
        return "rfe" not in self.schemes


FIGURES = {
    "fig1-left": Figure(
        "stiff sawtooth sweep, lambda=2 (rbe vs be)", ("rbe", "be"),
        dict(problem="prothero-robinson", lam=2.0), {
            "desk": ExperimentScale(10, tuple(range(4, 13)), 200),
            "paper": ExperimentScale(12, tuple(range(5, 15)), 1000),
        }),
    "fig1-right": Figure(
        "dissipative sweep, lambda=-1000 (rbe vs rfe)", ("rbe", "rfe"),
        dict(problem="prothero-robinson", lam=-1000.0), {
            "desk": ExperimentScale(10, tuple(range(5, 13)), 200),
            "paper": ExperimentScale(12, tuple(range(5, 15)), 1000),
        }),
    "fig2": Figure(
        "semilinear heat sweep (rbe vs be)", ("rbe", "be"),
        dict(problem="semilinear-heat", cap=10.0, power=4.0), {
            "desk": ExperimentScale(7, tuple(range(3, 10)), 50, mesh_dof=127),
            "paper": ExperimentScale(9, tuple(range(4, 12)), 200, mesh_dof=500),
        }),
}


def rate_windows(scale: ExperimentScale) -> dict[str, tuple[int, int]]:
    """Fit windows around the resolution threshold n = K.

    Pre-resolution stops at K-2 and post-resolution starts at K: the
    error curves jump between K-1 and K, so K-1 belongs to neither fit.
    """
    k_exp = scale.sawtooth_exponent
    lo, hi = scale.step_exponents[0], scale.step_exponents[-1]
    return {"pre": (lo, min(k_exp - 2, hi)), "post": (min(k_exp, hi), hi)}


def reproduce_figure(
    name: str,
    scale: str = "desk",
    master_seed: int = DEFAULT_MASTER_SEED,
    workers: int = 1,
    error_mode: ErrorMode = ErrorMode.FINAL_TIME,
):
    """Run the sweep of ``FIGURES[name]`` at a scale; returns (table, result).

    The result of a figure that fits rates maps (scheme, window name) to
    the RateFit of the ``error_mode`` errors over each ``rate_windows``
    window; that of fig1-right, the implicit scheme's largest rms error
    and, per step exponent, the explicit rms error and the amplification
    factor |1 + k*lambda|.
    """
    figure = FIGURES[name]
    if scale not in figure.scales:
        raise ValueError(f"scale must be one of {sorted(figure.scales)}")
    sc = figure.scales[scale]
    spec = ExperimentSpec(
        schemes=tuple(map(StepScheme.parse, figure.schemes)),
        master_seed=master_seed,
        **asdict(sc),
        **figure.fixed,
    )
    table = run_mc(spec, workers)
    if figure.fits_rates:
        windows = rate_windows(sc)
        return table, {
            (scheme, which): fit_rate(table, scheme, window, error_mode)
            for scheme in figure.schemes for which, window in windows.items()
        }
    return table, {
        "implicit_max_rms": max(r.rms_error_final for r in table.for_scheme("rbe")),
        "explicit_rms_by_exponent": {
            r.exponent: r.rms_error_final for r in table.for_scheme("rfe")
        },
        "amplification_by_exponent": {
            n: abs(1.0 + 2.0 ** (-n) * spec.lam) for n in sc.step_exponents
        },
    }


# ---------------------------------------------------------------------------
# CSV output

ERROR_CSV_HEADER = (
    "scheme,N,k,replicas,rms_error_final,rms_error_max,"
    "mc_stderr_final,mean_newton_iters"
)
RATE_CSV_HEADER = "scheme,window_lo,window_hi,slope,intercept,residual"


def _render_csv(header: str, rows) -> str:
    """The header, then one line per row: a float as 17 significant digits
    in scientific notation, anything else as ``str`` gives it."""
    lines = [header]
    for row in rows:
        lines.append(",".join(f"{v:.16e}" if isinstance(v, float) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


def render_error_csv(table: ErrorTable) -> str:
    return _render_csv(ERROR_CSV_HEADER, map(astuple, table.rows))


def write_error_csv(table: ErrorTable, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(render_error_csv(table))


def read_error_csv(path) -> ErrorTable:
    """Parse an error table; a malformed row raises ValueError naming its line.

    Malformed means a short or unparsable row, a step count N that is not
    a power of two, or a second row for the same (scheme, N).
    """
    fields = (str, int, float, int, float, float, float, float)
    rows = []
    seen = set()
    with open(path) as fh:
        header = fh.readline().strip()
        if header != ERROR_CSV_HEADER:
            raise ValueError(f"unexpected CSV header in {path}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(fields):
                raise ValueError(
                    f"{path}, line {lineno}: expected {len(fields)} fields, "
                    f"got {len(parts)}"
                )
            try:
                row = ErrorRow(*(kind(v) for kind, v in zip(fields, parts)))
            except ValueError as err:
                raise ValueError(f"{path}, line {lineno}: {err}") from None
            if row.steps < 1 or row.steps & (row.steps - 1):
                raise ValueError(
                    f"{path}, line {lineno}: N = {row.steps} is not a power of two"
                )
            if (row.scheme, row.steps) in seen:
                raise ValueError(
                    f"{path}, line {lineno}: duplicate row for scheme={row.scheme} "
                    f"N={row.steps}"
                )
            seen.add((row.scheme, row.steps))
            rows.append(row)
    return ErrorTable(rows)


def render_rate_csv(fits: dict) -> str:
    return _render_csv(RATE_CSV_HEADER, (
        (scheme, *fit.window, fit.slope, fit.intercept, fit.residual)
        for (scheme, _name), fit in fits.items()))


def write_rate_csv(fits: dict, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(render_rate_csv(fits))


RESIDUAL_CSV_HEADER = "n,k,rms_residual,mean_residual"


def render_residual_csv(rows: Sequence[ResidualRow]) -> str:
    return _render_csv(RESIDUAL_CSV_HEADER, map(astuple, rows))


def write_residual_csv(rows: Sequence[ResidualRow], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(render_residual_csv(rows))


def default_workers() -> int:
    """Cores this process may run on; all of the host's where that is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
