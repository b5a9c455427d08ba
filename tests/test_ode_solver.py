import dataclasses
import math
import warnings

import numpy as np
import pytest

from randstep.ode_solver import (
    ABS_TOL,
    FREEZE_BLOCK,
    FREEZE_FLOOR,
    MAX_ITERATIONS,
    NonConvergence,
    OdeProblem,
    REL_TOL,
    StepRestrictionViolated,
    StepScheme,
    StepSizeWarning,
    Trajectory,
    conditional_mean_residual,
    local_residual,
    solve,
)
from randstep.problems import (
    ProtheroRobinsonSpec,
    SawtoothSpec,
    prothero_robinson_problem,
    time_integral_problem,
)
from randstep.rand_nodes import NodeStream, TimeGrid

from oracles import (assert_counts_are_each_rows_own, counted, grid_node, node, one_row,
                     step_once)

RBE = StepScheme.RANDOMIZED_BACKWARD_EULER
BE = StepScheme.CLASSICAL_BACKWARD_EULER
RFE = StepScheme.RANDOMIZED_FORWARD_EULER


def rbe_step(problem, t, u, k):
    return step_once(problem, t, u, k, RBE)


def rfe_step(problem, t, u, k):
    return step_once(problem, t, u, k, RFE)


def linear_decay():
    return OdeProblem(
        rhs=lambda t, x: -x,
        initial_value=1.0,
        jacobian=lambda t, x: -1.0,
    )


def test_implicit_step_linear_decay():
    # closed form (1 + k)^-1 * u_prev
    out = rbe_step(linear_decay(), 0.0, 1.0, 0.5)
    assert out.shape == ()
    assert abs(out - 2.0 / 3.0) < 1e-12


def test_implicit_step_zero_rhs_identity():
    p = OdeProblem(lambda t, x: 0.0, 3.5, lambda t, x: 0.0)
    assert rbe_step(p, 0.3, 3.5, 0.25) == 3.5


def test_implicit_step_smooth_prothero_robinson():
    # g(t) = t: starting from t_{n-1} and evaluating at t_n lands on t_n,
    # since U(1 - k*lam) = t_n*(1 - k*lam)
    lam = -37.0
    p = OdeProblem(
        rhs=lambda t, x: lam * (x - t) + 1.0,
        initial_value=0.0,
        jacobian=lambda t, x: lam,
    )
    k = 0.125
    t_prev = 0.375
    out = rbe_step(p, t_prev + k, t_prev, k)
    assert abs(out - (t_prev + k)) < 1e-12


def test_ode_problem_needs_a_single_number_initial_value():
    for bad in ([20.0, 1.0], np.array([1.0])):
        with pytest.raises(ValueError, match="single number"):
            OdeProblem(lambda t, x: -x, bad, lambda t, x: -1.0)
    assert OdeProblem(lambda t, x: -x, np.float64(2.0),
                      lambda t, x: -1.0).initial_value == 2.0


def test_step_restriction_error_and_warning():
    # solve checks the grid's k against nu = 2: k*nu = 1 raises and
    # k*nu = 0.4 warns
    stiff = OdeProblem(
        lambda t, x: 2.0 * x, 1.0, jacobian=lambda t, x: 2.0,
        one_sided_constant=2.0,
    )
    grid = TimeGrid(2)
    with pytest.raises(StepRestrictionViolated):
        solve(stiff, RBE, one_row(grid, RBE))
    grid = TimeGrid(5)
    with pytest.warns(StepSizeWarning):
        solve(stiff, RBE, one_row(grid, RBE))
    # nu <= 0 imposes no restriction, even at k = 1
    soft = OdeProblem(lambda t, x: -x, 1.0, lambda t, x: -1.0,
                      one_sided_constant=-5.0)
    grid = TimeGrid(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", StepSizeWarning)
        solve(soft, RBE, one_row(grid, RBE))


def test_newton_nonconvergence_reported():
    # x = 1 + x^2 has no real root: the residual bottoms out at 3/4
    p = OdeProblem(
        rhs=lambda t, x: x * x,
        initial_value=1.0,
        jacobian=lambda t, x: 2.0 * x,
    )
    with pytest.raises(NonConvergence):
        rbe_step(p, 0.0, 1.0, 1.0)


def test_explicit_step_examples():
    p = OdeProblem(lambda t, x: -1000.0 * x, 1.0, lambda t, x: -1000.0)
    assert rfe_step(p, 0.0, 1.0, 2.0**-6) == -14.625
    z = OdeProblem(lambda t, x: 0.0, 2.0, lambda t, x: 0.0)
    assert rfe_step(z, 0.0, 2.0, 0.1) == 2.0
    q = OdeProblem(lambda t, x: 1.0, 0.0, lambda t, x: 0.0)
    assert rfe_step(q, 0.0, 0.0, 0.25) == 0.25


@pytest.mark.parametrize(
    "scheme",
    [
        StepScheme.RANDOMIZED_BACKWARD_EULER,
        StepScheme.CLASSICAL_BACKWARD_EULER,
        StepScheme.RANDOMIZED_FORWARD_EULER,
    ],
)
def test_solve_constant_state(scheme):
    p = OdeProblem(lambda t, x: 0.0, 3.0, lambda t, x: 0.0)
    grid = TimeGrid(16)
    traj = solve(p, scheme, one_row(grid, scheme))
    assert np.all(traj.states == 3.0)
    assert traj.states[0, 0] == 3.0


def test_solve_randomized_riemann_sum_exact():
    # state-independent f: the recursion collapses to the stratified
    # Riemann sum, bitwise (left-to-right accumulation)
    p = time_integral_problem()
    grid = TimeGrid(32)
    nodes = grid.random_nodes(3, [1])
    traj = solve(p, StepScheme.RANDOMIZED_BACKWARD_EULER, nodes)
    taus = NodeStream(3, [1]).taus(32)
    u = 0.0
    expected = [0.0]
    k = grid.step_size
    for n in range(1, 33):
        xi = node(grid, n, float(taus[n - 1]))
        u = u + k * xi
        expected.append(u)
    assert np.array_equal(traj.states[:, 0], np.array(expected))
    assert np.array_equal(nodes[0], np.array(
        [node(grid, n, float(taus[n - 1])) for n in range(1, 33)]
    ))


def test_solve_variance_single_step():
    # T = 1, N = 1, f(t) = t: E[(U^1 - 1/2)^2] = Var U(0,1) = 1/12
    p = time_integral_problem()
    grid = TimeGrid(1)
    rbe = StepScheme.RANDOMIZED_BACKWARD_EULER
    sq = np.array(
        [
            (solve(p, rbe, one_row(grid, rbe, 42, r)).states[1, 0] - 0.5) ** 2
            for r in range(20_000)
        ]
    )
    assert abs(sq.mean() - 1.0 / 12.0) < 0.05 / 12.0


def test_autonomous_reduction_to_classical():
    p = OdeProblem(
        rhs=lambda t, x: -x**3 - x,
        initial_value=1.0,
        jacobian=lambda t, x: -3.0 * x**2 - 1.0,
    )
    grid = TimeGrid(64)
    rbe, be = StepScheme.RANDOMIZED_BACKWARD_EULER, StepScheme.CLASSICAL_BACKWARD_EULER
    a = solve(p, rbe, one_row(grid, rbe, 8, 0))
    b = solve(p, be, one_row(grid, be))
    assert np.abs(a.states - b.states).max() < 1e-10
    assert a.states.shape == b.states.shape == (65, 1)


def test_one_step_consistency_invariant():
    saw = SawtoothSpec(6)
    p = prothero_robinson_problem(ProtheroRobinsonSpec(2.0, saw))
    grid = TimeGrid(32)
    nodes = grid.random_nodes(5, [3])
    traj = solve(p, StepScheme.RANDOMIZED_BACKWARD_EULER, nodes)
    k = grid.step_size
    for n in range(1, 33):
        u_n = traj.states[n, 0]
        resid = abs(u_n - traj.states[n - 1, 0]
                    - k * p.rhs(p.freeze(nodes[0, n - 1]), u_n))
        assert resid <= 10.0 * (ABS_TOL + REL_TOL * abs(u_n))


def test_linear_problem_single_newton_iteration():
    saw = SawtoothSpec(6)
    p = prothero_robinson_problem(ProtheroRobinsonSpec(2.0, saw))
    grid = TimeGrid(64)
    traj = solve(p, StepScheme.RANDOMIZED_BACKWARD_EULER, grid.random_nodes(5, [0]))
    assert np.all(traj.newton_iteration_counts == 1)


def test_solve_requires_a_node_block():
    p = OdeProblem(lambda t, x: 0.0, 0.0, lambda t, x: 0.0)
    for nodes in (None, NodeStream(1, [0])):
        with pytest.raises(ValueError, match="node block"):
            solve(p, StepScheme.RANDOMIZED_BACKWARD_EULER, nodes)


def test_nonconvergence_carries_step_index():
    def flaky(t, x):
        # well-behaved until the step evaluated at t = 0.5 (step 2),
        # where the implicit equation x = u_prev + x^2 + 1 has no root
        if t < 0.5:
            return -x
        return x * x + 1.0

    p = OdeProblem(flaky, 1.0, lambda t, x: -1.0 if t < 0.5 else 2.0 * x)
    grid = TimeGrid(4)
    with pytest.raises(NonConvergence) as err:
        solve(p, StepScheme.CLASSICAL_BACKWARD_EULER, grid.nodes()[None, 1:])
    assert err.value.step == 2


def test_newton_iteration_limit_names_step_and_row():
    # a Jacobian 19 times too steep at t = 0.7 leaves only that row's
    # residual falling linearly, too slowly to meet the tolerance
    p = OdeProblem(lambda t, x: -x, 1.0,
                   jacobian=lambda t, x: np.where(t == 0.7, -19.0, -1.0))
    nodes = np.array([[0.1, 0.6], [0.2, 0.7], [0.3, 0.8]])
    with pytest.raises(NonConvergence) as err:
        solve(p, RBE, nodes)
    assert str(err.value) == (
        f"step 2: residual 1.498e-04 above tolerance after {MAX_ITERATIONS} iterations"
    )
    assert (err.value.step, err.value.replica) == (2, 1)


def test_local_residual_definition():
    p = OdeProblem(lambda t, x: 0.0, 1.0, lambda t, x: 0.0)
    vals = np.full(9, 1.7)
    assert (local_residual(p, 0.125, vals[:-1], vals[1:], np.full(8, 0.41)) == 0.0).all()

    q = time_integral_problem()
    grid = TimeGrid(8)
    exact = np.array([q.exact(grid_node(grid, n)) for n in range(9)])
    k = grid.step_size
    xi = grid.nodes()[:-1] + 0.3 * k
    rho = local_residual(q, k, exact[:-1], exact[1:], np.stack([xi, xi[::-1]]))
    assert rho.shape == (2, 8)
    # state-independent f: rho_n = k f(xi_n) - int_{t_{n-1}}^{t_n} f
    expected = k * xi - np.diff(exact)
    assert np.abs(rho[0] - expected).max() < 1e-15
    assert rho[1, 2] == k * xi[5] - exact[3] + exact[2]
    # a step-major column of k per step: steps of 1/8 and then of 1/2
    coarse = TimeGrid(2)
    v = np.concatenate([exact, q.exact(coarse.nodes())])
    ks = np.array([k] * 8 + [0.5] * 2)[:, None]
    nodes = np.concatenate([xi, coarse.nodes()[:-1] + 0.3 * 0.5])[:, None] + [0.0, 0.01]
    rho = local_residual(q, ks, np.delete(v, [8, 11])[:, None], np.delete(v, [0, 9])[:, None],
                         nodes)
    assert rho.shape == (10, 2)
    assert rho[9, 1] == 0.5 * nodes[9, 1] - v[11] + v[10]
    assert np.array_equal(rho[:8, 0], local_residual(q, k, exact[:-1], exact[1:], xi))


def _per_step_conditional_mean(problem, exact, n, grid, quad_points, panels):
    """The step-at-a-time rule, with one scalar ``exact`` call per point."""
    t0, t1 = grid_node(grid, n - 1), grid_node(grid, n)
    u_n = exact(t1)
    nodes, weights = np.polynomial.legendre.leggauss(quad_points)
    edges = np.linspace(t0, t1, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    s = (mid[:, None] + half[:, None] * nodes).ravel()
    w = (half[:, None] * weights).ravel()
    u_s = np.array([exact(p) for p in s])
    c = problem.freeze(s)
    return np.cumsum(w * (problem.rhs(c, u_n) - problem.rhs(c, u_s)))[-1]


@pytest.mark.parametrize("n", range(9))
def test_conditional_mean_residual_matches_per_step_rule(n):
    # the residual study's panels: one per sawtooth interval, 2^(K-n) per step
    K = 6
    pr = prothero_robinson_problem(
        ProtheroRobinsonSpec(2.0, SawtoothSpec(K))
    )
    ti = time_integral_problem()
    grid = TimeGrid(2**n)
    panels = 2 ** max(K - n, 0)
    for p in (pr, ti):
        got = conditional_mean_residual(p, grid, panels)
        assert got.shape == (grid.steps,)
        for step in range(1, grid.steps + 1):
            want = _per_step_conditional_mean(p, p.exact, step, grid, 4, panels)
            assert got[step - 1] == want


def test_conditional_mean_residual_blocks_do_not_change_bits(monkeypatch):
    # blocks of whole steps, down to one step over the point budget, give
    # every step the bits of the one-block evaluation
    from randstep import ode_solver

    K = 6
    pr = prothero_robinson_problem(
        ProtheroRobinsonSpec(2.0, SawtoothSpec(K))
    )
    calls = []

    def exact(t, sawtooth=pr.exact):
        calls.append(np.size(t))
        return sawtooth(t)

    pr = dataclasses.replace(pr, exact=exact)

    default = ode_solver.QUAD_BLOCK
    for n in (0, 2, 5, 7):
        grid = TimeGrid(2**n)
        panels = 2 ** max(K - n, 0)
        monkeypatch.setattr(ode_solver, "QUAD_BLOCK", default)
        calls.clear()
        whole = conditional_mean_residual(pr, grid, panels)
        assert len(calls) == 2  # the residual study's grids are one block
        for steps in (1, 3):
            monkeypatch.setattr(ode_solver, "QUAD_BLOCK", steps * 4 * panels + 1)
            calls.clear()
            got = conditional_mean_residual(pr, grid, panels)
            assert np.array_equal(got, whole)
            assert len(calls) == 2 * math.ceil(grid.steps / steps)
            assert max(calls) == min(steps, grid.steps) * 4 * panels
        monkeypatch.setattr(ode_solver, "QUAD_BLOCK", 1)
        assert np.array_equal(conditional_mean_residual(pr, grid, panels), whole)


def test_conditional_mean_residual_closed_form():
    p = OdeProblem(
        lambda t, x: -x, 1.0,
        jacobian=lambda t, x: -1.0, exact=lambda t: np.exp(-t),
    )
    grid = TimeGrid(8)
    k = grid.step_size
    n = 3
    t0, t1 = grid_node(grid, n - 1), grid_node(grid, n)
    # hand integral of (e^-s - e^-t_n) ds over the step
    closed = (math.exp(-t0) - math.exp(-t1)) - k * math.exp(-t1)
    quad = conditional_mean_residual(p, grid, panels=4)
    assert abs(quad[n - 1] - closed) < 1e-14


def test_conditional_mean_residual_state_independent_zero():
    p = time_integral_problem()
    grid = TimeGrid(8)
    val = conditional_mean_residual(p, grid, 1)
    assert np.abs(val).max() < 1e-16


def test_conditional_mean_residual_validation():
    p = time_integral_problem()
    grid = TimeGrid(8)
    with pytest.raises(ValueError):
        conditional_mean_residual(p, grid, panels=0)


def test_scheme_tokens():
    assert StepScheme.parse("rbe") is StepScheme.RANDOMIZED_BACKWARD_EULER
    assert StepScheme.parse("be").value == "be"
    with pytest.raises(ValueError):
        StepScheme.parse("euler")


def test_batched_solve_matches_single_replicas_bitwise():
    # x + k*c(t)*atan(x) = u overshoots from a large start, so some steps
    # need damping and the replicas' iteration counts differ
    calls = []

    def rhs(t, x):
        calls.append(np.size(x))
        return -50.0 * (1.0 + t) * np.arctan(x)

    p = OdeProblem(rhs, 20.0,
                   jacobian=lambda t, x: -50.0 * (1.0 + t) / (1.0 + x * x))
    grid = TimeGrid(4)
    block = grid.random_nodes(11, range(6))
    batch = solve(p, StepScheme.RANDOMIZED_BACKWARD_EULER, block)
    assert batch.states.shape == (5, 6) and block.shape == (6, 4)
    assert batch.grid == TimeGrid(4)
    assert batch.newton_iteration_counts.shape == (4, 6)
    damped = []
    for r in range(6):
        calls.clear()
        nodes = grid.random_nodes(11, [r])
        one = solve(p, StepScheme.RANDOMIZED_BACKWARD_EULER, nodes)
        assert np.array_equal(one.states[:, 0], batch.states[:, r])
        assert np.array_equal(nodes[0], block[r])
        assert np.array_equal(one.newton_iteration_counts[:, 0],
                              batch.newton_iteration_counts[:, r])
        # one rhs call per step plus one per full Newton step; more means halvings
        damped.append(len(calls) > 4 + one.newton_iteration_counts.sum())
    assert any(damped)
    assert len(np.unique(batch.newton_iteration_counts)) > 1


def atan_problem():
    # x + k*c(t)*atan(x) = u overshoots from a large start: damped Newton
    # steps, and iteration counts that differ between rows
    return OdeProblem(lambda t, x: -50.0 * (1.0 + t) * np.arctan(x), 20.0,
                      jacobian=lambda t, x: -50.0 * (1.0 + t) / (1.0 + x * x))


def lockstep_blocks(exponents, replicas, seed=11):
    """The node blocks of a lockstep batch, finest step size first: the
    randomized rows of ``replicas`` and the row of grid points per size."""
    blocks = []
    for n in sorted(exponents, reverse=True):
        grid = TimeGrid(2**n)
        blocks += [grid.random_nodes(seed, range(replicas)), grid.nodes()[None, 1:]]
    return blocks


@pytest.fixture
def no_floor(monkeypatch):
    """Blocks of FREEZE_BLOCK steps of the rows that march every step, as
    in a batch of 128 rows or more per step size: a test of few rows then
    crosses block boundaries that FREEZE_FLOOR would merge."""
    from randstep import ode_solver

    monkeypatch.setattr(ode_solver, "FREEZE_FLOOR", 0)


@pytest.mark.parametrize("problem, scheme", [
    (atan_problem, RBE), (atan_problem, RFE),
    (lambda: prothero_robinson_problem(ProtheroRobinsonSpec(-2.0, SawtoothSpec(4))), RBE),
], ids=["atan-rbe", "atan-rfe", "prothero-robinson-rbe"])
def test_lockstep_rows_equal_each_step_size_alone(problem, scheme, no_floor):
    # N = 4 and N = 8 retire inside the first FREEZE_BLOCK block of the
    # N = 128 rows, which march steps [0, 4), [4, 8), [8, 72) and [72, 128);
    # every row keeps the bits and counts of its own step size marched
    # alone, and holds NaN and zero counts past its last step
    calls = {"freeze": 0}
    p = counted(problem(), calls)
    blocks = lockstep_blocks((2, 3, 7), 3)
    batch = solve(p, scheme, blocks)
    assert calls["freeze"] == 4
    assert batch.states.shape == (129, 12)
    assert batch.newton_iteration_counts.shape == (128, 12)
    start = 0
    for block in blocks:
        n, rows = block.shape[1], slice(start, start + len(block))
        alone = solve(p, scheme, block)
        assert batch.states[: n + 1, rows].tobytes() == alone.states.tobytes()
        assert np.isnan(batch.states[n + 1 :, rows]).all()
        assert np.array_equal(batch.newton_iteration_counts[:n, rows],
                              alone.newton_iteration_counts)
        assert not batch.newton_iteration_counts[n:, rows].any()
        start += len(block)
    if scheme is RBE and p.affine is False:
        assert len(np.unique(batch.newton_iteration_counts[:4])) > 2


def test_singular_newton_derivative_names_step_and_row():
    # 1 - k*2 is 0 at k = 1/2, alone and in a lockstep batch beside k = 1/4;
    # the Jacobian callback returns a float
    p = OdeProblem(lambda t, x: 2.0 * x, 1.0, lambda t, x: 2.0)
    coarse, fine = TimeGrid(2).nodes()[None, 1:], TimeGrid(4).random_nodes(1, range(3))
    for nodes, row in ((coarse, 0), ([fine, coarse], 3)):
        with pytest.raises(NonConvergence, match="step 1: singular Newton derivative") as err:
            solve(p, RBE, nodes)
        assert (err.value.step, err.value.replica) == (1, row)


def test_lockstep_blocks_must_not_widen():
    grid = TimeGrid(4)
    with pytest.raises(ValueError, match="must not increase"):
        solve(linear_decay(), RBE, [grid.nodes()[None, 1:], TimeGrid(8).nodes()[None, 1:]])
    with pytest.raises(ValueError, match="node block"):
        solve(linear_decay(), RBE, [])


def test_batched_nonconvergence_names_replica():
    grid = TimeGrid(4)
    target = grid.random_nodes(3, [2])[0, 0]
    # x = 1 + (x^2 + 10)/4 has no root: only replica 2's first node sees it
    p = OdeProblem(lambda t, x: np.where(t == target, x * x + 10.0, -x), 1.0,
                   lambda t, x: np.where(t == target, 2.0 * x, -1.0))
    with pytest.raises(NonConvergence) as err:
        solve(p, StepScheme.RANDOMIZED_BACKWARD_EULER, grid.random_nodes(3, range(5)))
    assert (err.value.step, err.value.replica) == (1, 2)


def test_random_nodes_match_scalar_rule():
    grid = TimeGrid(64)
    block = grid.random_nodes(4, range(3))
    for r in range(3):
        taus = NodeStream(4, [r]).taus(64)
        assert block[r].tolist() == [node(grid, n, taus[n - 1]) for n in range(1, 65)]
    assert grid.nodes().tolist() == [grid_node(grid, n) for n in range(65)]


def test_classical_row_beside_replicas_equals_classical_alone():
    # the classical scheme is one more row of nodes, the grid points: in a
    # batch with randomized rows it keeps its bits and Newton counts, and
    # the randomized rows keep theirs
    def rhs(t, x):
        return -50.0 * (1.0 + t) * np.arctan(x)

    p = OdeProblem(rhs, 20.0,
                   jacobian=lambda t, x: -50.0 * (1.0 + t) / (1.0 + x * x))
    grid = TimeGrid(8)
    randomized = grid.random_nodes(11, range(4))
    block = np.concatenate([randomized, grid.nodes()[None, 1:]])
    batch = solve(p, StepScheme.RANDOMIZED_BACKWARD_EULER, block)
    alone = solve(p, StepScheme.CLASSICAL_BACKWARD_EULER, grid.nodes()[None, 1:])
    assert np.array_equal(batch.states[:, 4:], alone.states)
    assert np.array_equal(batch.newton_iteration_counts[:, 4:],
                          alone.newton_iteration_counts)
    assert alone.newton_iteration_counts.max() > alone.newton_iteration_counts.min()
    replicas = solve(p, StepScheme.RANDOMIZED_BACKWARD_EULER, randomized)
    assert np.array_equal(batch.states[:, :4], replicas.states)
    assert np.array_equal(batch.newton_iteration_counts[:, :4],
                          replicas.newton_iteration_counts)


def test_solve_rejects_bad_node_blocks():
    p = linear_decay()
    grid = TimeGrid(4)
    rbe = StepScheme.RANDOMIZED_BACKWARD_EULER
    for bad in (np.empty((0, 4)), np.empty((2, 0)), np.zeros(4),
                [NodeStream(1, [0])], np.zeros((2, 4)).tolist()):
        with pytest.raises(ValueError, match="node block"):
            solve(p, rbe, bad)


def test_solve_off_block_length_matches_implicit_steps_bitwise(no_floor):
    # N is not a multiple of FREEZE_BLOCK, so the third and last block is
    # partial; the oracle freezes each node on its own and takes one step
    problem = prothero_robinson_problem(
        ProtheroRobinsonSpec(2.0, SawtoothSpec(6))
    )
    grid = TimeGrid(2 * FREEZE_BLOCK + 22)
    k = grid.step_size
    randomized = grid.random_nodes(5, range(3))
    block = np.concatenate([randomized, grid.nodes()[None, 1:]])
    calls = {"freeze": 0}
    batch = solve(counted(problem, calls), StepScheme.RANDOMIZED_BACKWARD_EULER, block)
    explicit = solve(counted(problem, calls), StepScheme.RANDOMIZED_FORWARD_EULER, block)
    assert calls["freeze"] == 2 * 3
    for row, nodes in enumerate(block):  # three rbe rows, then the be row
        u = v = problem.initial_value
        implicit_path, explicit_path = [u], [v]
        for t in nodes:
            u = rbe_step(problem, t, u, k)
            v = rfe_step(problem, t, v, k)
            implicit_path.append(u)
            explicit_path.append(v)
        assert batch.states[:, row].tolist() == implicit_path
        assert explicit.states[:, row].tolist() == explicit_path


def test_split_problem_marches_like_unsplit_bitwise(no_floor):
    # damping and uneven iteration counts make Newton subset the frozen
    # data with [keep] and [retry], as it subsets the times, in each of
    # two blocks
    calls = []

    def rhs(t, x):
        return -500.0 * (1.0 + t) * np.arctan(x)

    def rhs_frozen(c, x):
        calls.append(np.size(x))
        return c[..., 0] * np.arctan(x)

    plain = OdeProblem(rhs, 20.0,
                       jacobian=lambda t, x: -500.0 * (1.0 + t) / (1.0 + x * x))
    blocks = {"freeze": 0}
    split = counted(OdeProblem(
        rhs_frozen, 20.0,
        jacobian=lambda c, x: c[..., 0] / (1.0 + x * x),
        freeze=lambda t: (-500.0 * (1.0 + t))[..., None],
    ), blocks)
    grid = TimeGrid(FREEZE_BLOCK + 7)
    block = grid.random_nodes(11, range(5))
    a = solve(plain, StepScheme.RANDOMIZED_BACKWARD_EULER, block)
    b = solve(split, StepScheme.RANDOMIZED_BACKWARD_EULER, block)
    assert blocks["freeze"] == 2
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.newton_iteration_counts, b.newton_iteration_counts)
    counts = b.newton_iteration_counts
    assert (counts.min(axis=1) < counts.max(axis=1)).any()
    # one call per step plus one per full Newton step; more means halvings
    assert len(calls) > grid.steps + counts.max(axis=1).sum()


@pytest.mark.parametrize("bad", [np.nan, 1.5, -0.25])
@pytest.mark.parametrize("step", [0, FREEZE_BLOCK + 3])
def test_solve_rejects_a_node_outside_the_domain(bad, step, no_floor):
    # the node is frozen, and raises, in the first block or the second
    problem = prothero_robinson_problem(
        ProtheroRobinsonSpec(2.0, SawtoothSpec(6))
    )
    grid = TimeGrid(FREEZE_BLOCK + 10)
    block = grid.random_nodes(2, range(3))
    block[1, step] = bad
    for scheme in (StepScheme.RANDOMIZED_BACKWARD_EULER,
                   StepScheme.RANDOMIZED_FORWARD_EULER):
        calls = {"freeze": 0}
        with pytest.raises(ValueError, match="outside"):
            solve(counted(problem, calls), scheme, block)
        assert calls["freeze"] == 1 + (step >= FREEZE_BLOCK)


# float.hex() of the final states and the sum of Newton counts of a damped
# arctan batch
PINNED_BITS = {
    # five damped rbe replicas and the be row, jacobian -50(1+t)/(1+x^2)
    "batch": ([
        "0x1.15a07a1024cf7p-12", "0x1.4082bbe12f3fep-12", "0x1.650a5c3d9c10fp-12",
        "0x1.7b2567cd875f7p-12", "0x1.1f01f2d7fafc8p-12", "0x1.868a37e1245a3p-13",
    ], 107),
    # rfe on the batch's six rows of nodes
    "batch-rfe": ([
        "0x1.25f146b694ea2p+4", "-0x1.3c1a15df5d2a6p+4", "-0x1.5f9cf7d8da02cp+3",
        "0x1.1e8de84d97417p+4", "0x1.1b694cf762345p+4", "0x1.8c7e941d497a5p+4",
    ], 0),
}


@pytest.mark.parametrize("kind", sorted(PINNED_BITS))
def test_solve_bits_are_pinned(kind):
    p = OdeProblem(lambda t, x: -50.0 * (1.0 + t) * np.arctan(x), 20.0,
                   jacobian=lambda t, x: -50.0 * (1.0 + t) / (1.0 + x * x))
    grid = TimeGrid(4)
    randomized = grid.random_nodes(11, range(5))
    block = np.concatenate([randomized, grid.nodes()[None, 1:]])
    path = solve(p, RFE if kind == "batch-rfe" else RBE, block)
    counts = path.newton_iteration_counts
    if kind == "batch":
        assert (counts.min(axis=1) < counts.max(axis=1)).any()
    states, iterations = PINNED_BITS[kind]
    assert [v.hex() for v in path.states[-1].ravel()] == states
    assert int(counts.sum()) == iterations


def test_newton_counts_of_rows_that_finish_apart():
    # the arctan batch of test_solve_bits_are_pinned: its rows converge in
    # different iterations of one step, and some are damped
    calls = []

    def rhs(t, x):
        calls.append(np.size(x))
        return -50.0 * (1.0 + t) * np.arctan(x)

    p = OdeProblem(rhs, 20.0,
                   jacobian=lambda t, x: -50.0 * (1.0 + t) / (1.0 + x * x))
    grid = TimeGrid(4)
    rows = [one_row(grid, RBE, 11, r) for r in range(5)] + [one_row(grid, BE)]
    counts = assert_counts_are_each_rows_own(
        lambda nodes: solve(p, RBE, nodes), grid, rows)
    assert (counts.min(axis=1) < counts.max(axis=1)).any()
    damped = []
    for r, nodes in enumerate(rows):
        calls.clear()
        solve(p, RBE, nodes)
        # one call per step and one per full Newton step; more means halvings
        damped.append(len(calls) > grid.steps + counts[:, r].sum())
    assert any(damped)


def test_newton_counts_of_rows_that_finish_together():
    # Prothero-Robinson is linear in x: every row converges in one iteration
    problem = prothero_robinson_problem(ProtheroRobinsonSpec(2.0, SawtoothSpec(6)))
    grid = TimeGrid(16)
    rows = [one_row(grid, RBE, 7, r) for r in range(3)] + [one_row(grid, BE)]
    counts = assert_counts_are_each_rows_own(
        lambda nodes: solve(problem, RBE, nodes), grid, rows)
    assert (counts == 1).all()


@pytest.mark.parametrize("problem_id, lam", [
    ("prothero-robinson", 2.0), ("prothero-robinson", -1000.0), ("time-integral", None),
])
def test_affine_step_equals_damped_newton_bitwise(problem_id, lam, no_floor):
    # the direct step of an affine problem is damped Newton's first iterate:
    # the same states and counts on a batch of rbe replicas beside a be
    # row, over two blocks
    if problem_id == "time-integral":
        problem = time_integral_problem()
    else:
        problem = prothero_robinson_problem(ProtheroRobinsonSpec(lam, SawtoothSpec(6)))
    assert problem.affine
    grid = TimeGrid(FREEZE_BLOCK + 8)
    randomized = grid.random_nodes(13, range(5))
    block = np.concatenate([randomized, grid.nodes()[None, 1:]])
    calls = {"freeze": 0}
    direct = solve(counted(problem, calls), RBE, block)
    assert calls["freeze"] == 2
    damped = solve(dataclasses.replace(problem, affine=False), RBE, block)
    assert direct.states.tobytes() == damped.states.tobytes()
    assert np.array_equal(direct.newton_iteration_counts, damped.newton_iteration_counts)
    assert (direct.newton_iteration_counts == 1).all()


def test_affine_step_at_a_root_keeps_the_state_and_counts_one():
    # f(t, x) = 1 - x vanishes at the start x = 1: the direct step keeps x
    # bit for bit and counts one step, where damped Newton, whose start
    # already meets the tolerance, counts none
    p = OdeProblem(lambda t, x: 1.0 - x, 1.0, lambda t, x: -1.0, affine=True)
    grid = TimeGrid(4)
    block = np.concatenate([one_row(grid, RBE, 3, 0), one_row(grid, BE)])
    direct = solve(p, RBE, block)
    damped = solve(dataclasses.replace(p, affine=False), RBE, block)
    assert direct.states.tobytes() == damped.states.tobytes() == np.ones((5, 2)).tobytes()
    assert (direct.newton_iteration_counts == 1).all()
    assert (damped.newton_iteration_counts == 0).all()


def test_failure_after_the_first_block_names_absolute_step_and_row(no_floor):
    # a damped problem's row 2 meets a rootless step at n = FREEZE_BLOCK + 5,
    # in the second block of its march: steps [32, 96) of the lockstep
    # batch, [64, 128) of the row alone.  Both name the same step and message
    fine = TimeGrid(2 * FREEZE_BLOCK)
    block = fine.random_nodes(3, range(5))
    target = block[2, FREEZE_BLOCK + 4]
    # x = u + k*(x^2 + 1e5) has no root at k = 1/128: only that node sees it
    calls = {"freeze": 0}
    p = counted(OdeProblem(
        lambda t, x: np.where(t == target, x * x + 1e5, -np.arctan(x)), 1.0,
        lambda t, x: np.where(t == target, 2.0 * x, -1.0 / (1.0 + x * x))), calls)
    coarse = TimeGrid(FREEZE_BLOCK // 2).random_nodes(3, range(5))
    with pytest.raises(NonConvergence) as batch:
        solve(p, RBE, [block, coarse])
    assert calls["freeze"] == 2
    with pytest.raises(NonConvergence) as alone:
        solve(p, RBE, block[2:3])
    assert calls["freeze"] == 2 + 2
    assert (batch.value.step, batch.value.replica) == (FREEZE_BLOCK + 5, 2)
    assert (alone.value.step, alone.value.replica) == (FREEZE_BLOCK + 5, 0)
    assert str(batch.value) == str(alone.value)
    assert str(batch.value).startswith(f"step {FREEZE_BLOCK + 5}: ")


@pytest.mark.parametrize("scheme", [RBE, RFE], ids=["affine-rbe", "rfe"])
def test_every_block_steps_with_the_live_rows_step_sizes(monkeypatch, scheme):
    # the affine and the explicit stepper alike get an (rows,) k, also in
    # the last block, where only the finest step size is live
    from randstep import ode_solver

    seen, direct = [], ode_solver._direct_steps

    def direct_steps(rhs, d, data, u, k, out, counts=None):
        seen.append(k.copy())
        assert isinstance(k, np.ndarray) and k.shape == u.shape
        return direct(rhs, d, data, u, k, out, counts)

    monkeypatch.setattr(ode_solver, "_direct_steps", direct_steps)
    blocks = lockstep_blocks((2, 3, 7), 3)
    solve(read_only_affine_problem(), scheme, blocks)
    # blocks end where N = 4 and N = 8 retire, four rows per step size
    k = np.repeat([2.0**-7, 2.0**-3, 2.0**-2], 4)
    assert [s.tobytes() for s in seen] == [k[:r].tobytes() for r in (12, 8, 4)]


def test_an_earlier_overflow_outranks_a_later_failure(no_floor):
    # row 0 overflows at step 3, in the first block of FREEZE_BLOCK steps;
    # row 1's derivative 1 - k*a is 0 at step 69, in the second.  The march
    # stops at the first block, whose step 3 is the first failing step
    fine = TimeGrid(2 * FREEZE_BLOCK)
    block = fine.random_nodes(3, range(2))
    overflow, singular = block[0, 2], block[1, FREEZE_BLOCK + 4]

    def a(t):
        return np.where(t == singular, 2.0 * FREEZE_BLOCK, -1.0)

    calls = {"freeze": 0}
    p = counted(OdeProblem(
        lambda t, x: a(t) * x + np.where(t == overflow, 1e308, 0.0) * 10.0, 1.0,
        lambda t, x: a(t), affine=True), calls)
    with pytest.raises(NonConvergence) as err:
        solve(p, RBE, block)
    assert (err.value.step, err.value.replica) == (3, 0)
    assert type(err.value.step) is int
    assert str(err.value) == "step 3: non-finite state"
    assert calls["freeze"] == 1


def read_only_affine_problem():
    # f(t, x) = -3x + t, returned as a read-only view
    return OdeProblem(lambda t, x: np.broadcast_to(-3.0 * x + t, np.shape(x)), 1.0,
                      lambda t, x: -3.0, affine=True)


@pytest.mark.parametrize("problem", [read_only_affine_problem, time_integral_problem],
                         ids=["read-only-rhs", "time-integral"])
def test_affine_block_steps_equal_damped_newton_and_leave_the_data(problem):
    # rows of three step sizes march together, then the finest alone;
    # time-integral's rhs returns its frozen data, the nodes themselves.
    # Neither rhs result is written into
    calls = {"rhs": 0, "jacobian": 0}
    p = counted(problem(), calls)
    blocks = lockstep_blocks((2, 3, 7), 3)
    kept = [b.copy() for b in blocks]
    direct = solve(p, RBE, blocks)
    # one rhs call per step; one jacobian call per block, of which the
    # march of widths 128, 8 and 4 with four rows each has three: blocks
    # end where N = 4 and N = 8 retire, and the four N = 128 rows march
    # their last 120 steps in one, 480 row-steps below FREEZE_FLOOR
    assert calls == {"rhs": 128, "jacobian": 3}
    damped = solve(dataclasses.replace(p, affine=False), RBE, blocks)
    assert direct.states.tobytes() == damped.states.tobytes()
    assert np.array_equal(direct.newton_iteration_counts, damped.newton_iteration_counts)
    assert all(b.tobytes() == c.tobytes() for b, c in zip(blocks, kept))


@pytest.mark.parametrize("exponents, replicas, floored, plain", [
    (range(4, 13), 20, 25, 132), ((4, 5, 9), 127, 10, 10),
], ids=["ode-stiff", "128-rows"])
def test_block_plan_of_few_and_many_rows(monkeypatch, exponents, replicas, floored, plain):
    # ode-stiff's batch, 20 rbe replicas and the be row per step size,
    # marches its 21 finest rows 8192 // 21 = 390 steps a block: 25 blocks,
    # where FREEZE_BLOCK steps alone make 132.  At 128 rows FREEZE_BLOCK
    # steps are FREEZE_FLOOR row-steps, so a batch that size or larger
    # (the default and paper sweeps) marches the very blocks it did
    # without the floor.  Either way the bits are those of the plain plan
    from randstep import ode_solver

    problem = prothero_robinson_problem(ProtheroRobinsonSpec(2.0, SawtoothSpec(10)))
    sizes = []

    def freeze(t):
        sizes.append(t.size)
        return problem.freeze(t)

    p = dataclasses.replace(problem, freeze=freeze)
    blocks = lockstep_blocks(exponents, replicas)
    marches = {}
    for floor in (FREEZE_FLOOR, 0):
        monkeypatch.setattr(ode_solver, "FREEZE_FLOOR", floor)
        sizes.clear()
        marches[floor] = solve(p, RBE, blocks), list(sizes)
    (a, floored_sizes), (b, plain_sizes) = marches.values()
    assert (len(floored_sizes), len(plain_sizes)) == (floored, plain)
    assert max(floored_sizes) <= max(FREEZE_FLOOR, FREEZE_BLOCK * (replicas + 1))
    if floored == plain:
        assert floored_sizes == plain_sizes
    assert a.states.tobytes() == b.states.tobytes()
    assert np.array_equal(a.newton_iteration_counts, b.newton_iteration_counts)


def test_explicit_block_steps_equal_single_steps_bitwise():
    # every row of a lockstep rfe batch, while coarser rows are live and
    # after, equals its own loop of single steps;
    # time-integral's rhs returns its frozen data, the nodes themselves,
    # and no rhs result is written into
    blocks = lockstep_blocks((2, 3, 7), 3)
    kept = [b.copy() for b in blocks]
    for p in (atan_problem(), time_integral_problem()):
        calls = {"rhs": 0, "jacobian": 0}
        batch = solve(counted(p, calls), RFE, blocks)
        # one rhs call per lockstep step, and neither jacobian nor Newton
        assert calls == {"rhs": 128, "jacobian": 0}
        assert not batch.newton_iteration_counts.any()
        assert all(b.tobytes() == c.tobytes() for b, c in zip(blocks, kept))
        row = 0
        for block in blocks:
            k = TimeGrid(block.shape[1]).step_size
            for nodes in block:
                path = [p.initial_value]
                for t in nodes:
                    path.append(rfe_step(p, t, path[-1], k))
                assert batch.states[: len(path), row].tobytes() == np.array(path).tobytes()
                row += 1
