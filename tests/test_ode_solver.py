import math

import numpy as np
import pytest

from randstep.ode_solver import (
    FREEZE_BLOCK,
    NewtonConfig,
    NonConvergence,
    OdeProblem,
    StepRestrictionViolated,
    StepScheme,
    StepSizeWarning,
    Trajectory,
    conditional_mean_residual,
    explicit_step,
    implicit_step,
    local_residual,
    solve,
)
from randstep.problems import (
    AmplitudeMode,
    ProtheroRobinsonSpec,
    SawtoothSpec,
    prothero_robinson_problem,
    time_integral_problem,
)
from randstep.rand_nodes import NodeStream, SeedSpec, TimeGrid, node


def one_row(grid, scheme, seed=SeedSpec(1, 0)):
    """The node block of one path: drawn from ``seed``'s stream for a
    randomized scheme, the grid points t_1..t_N for the classical one."""
    if scheme.is_randomized:
        return grid.random_nodes([NodeStream(seed)])
    return grid.nodes()[None, 1:]


def linear_decay():
    return OdeProblem(
        dimension=1,
        rhs=lambda t, x: -x,
        initial_value=1.0,
        final_time=1.0,
        jacobian=lambda t, x: -1.0,
    )


def test_implicit_step_linear_decay():
    # closed form (1 + k)^-1 * u_prev
    out = implicit_step(linear_decay(), 0.0, 1.0, 0.5)
    assert out.shape == (1,)
    assert abs(out[0] - 2.0 / 3.0) < 1e-12


def test_implicit_step_zero_rhs_identity():
    p = OdeProblem(1, lambda t, x: 0.0, 3.5, 1.0)
    assert implicit_step(p, 0.3, 3.5, 0.25)[0] == 3.5


def test_implicit_step_smooth_prothero_robinson():
    # g(t) = t: starting from t_{n-1} and evaluating at t_n lands on t_n,
    # since U(1 - k*lam) = t_n*(1 - k*lam)
    lam = -37.0
    p = OdeProblem(
        1,
        rhs=lambda t, x: lam * (x - t) + 1.0,
        initial_value=0.0,
        final_time=1.0,
        jacobian=lambda t, x: lam,
    )
    k = 0.125
    t_prev = 0.375
    out = implicit_step(p, t_prev + k, t_prev, k)
    assert abs(out[0] - (t_prev + k)) < 1e-12


def test_implicit_step_vector_path():
    # 2-d decoupled decay exercises the d > 1 Newton branch
    p = OdeProblem(
        2,
        rhs=lambda t, x: -x,
        initial_value=np.array([1.0, 2.0]),
        final_time=1.0,
    )
    out = implicit_step(p, 0.0, np.array([1.0, 2.0]), 0.5)
    assert np.allclose(out, [2.0 / 3.0, 4.0 / 3.0], atol=1e-9)


def test_step_restriction_error_and_warning():
    stiff = OdeProblem(
        1, lambda t, x: 2.0 * x, 1.0, 1.0, jacobian=lambda t, x: 2.0,
        one_sided_constant=2.0,
    )
    with pytest.raises(StepRestrictionViolated):
        implicit_step(stiff, 0.0, 1.0, 0.5)
    with pytest.warns(StepSizeWarning):
        implicit_step(stiff, 0.0, 1.0, 0.2)
    # nu <= 0 imposes no restriction
    soft = OdeProblem(1, lambda t, x: -x, 1.0, 1.0, one_sided_constant=-5.0)
    implicit_step(soft, 0.0, 1.0, 10.0)


def test_newton_nonconvergence_reported():
    # x = 1 + x^2 has no real root: the residual bottoms out at 3/4
    p = OdeProblem(
        1,
        rhs=lambda t, x: x * x,
        initial_value=1.0,
        final_time=1.0,
        jacobian=lambda t, x: 2.0 * x,
    )
    with pytest.raises(NonConvergence):
        implicit_step(p, 0.0, 1.0, 1.0, NewtonConfig(max_iterations=20))


def test_explicit_step_examples():
    p = OdeProblem(1, lambda t, x: -1000.0 * x, 1.0, 1.0)
    assert explicit_step(p, 0.0, 1.0, 2.0**-6)[0] == -14.625
    z = OdeProblem(1, lambda t, x: 0.0, 2.0, 1.0)
    assert explicit_step(z, 0.0, 2.0, 0.1)[0] == 2.0
    q = OdeProblem(1, lambda t, x: 1.0, 0.0, 1.0)
    assert explicit_step(q, 0.0, 0.0, 0.25)[0] == 0.25


@pytest.mark.parametrize(
    "scheme",
    [
        StepScheme.RANDOMIZED_BACKWARD_EULER,
        StepScheme.CLASSICAL_BACKWARD_EULER,
        StepScheme.RANDOMIZED_FORWARD_EULER,
    ],
)
def test_solve_constant_state(scheme):
    p = OdeProblem(1, lambda t, x: 0.0, 3.0, 1.0)
    grid = TimeGrid(1.0, 16)
    traj = solve(p, grid, scheme, one_row(grid, scheme))
    assert np.all(traj.states == 3.0)
    assert traj.states[0, 0] == 3.0


def test_solve_randomized_riemann_sum_exact():
    # state-independent f: the recursion collapses to the stratified
    # Riemann sum, bitwise (left-to-right accumulation)
    p = time_integral_problem()
    grid = TimeGrid(1.0, 32)
    nodes = grid.random_nodes([NodeStream(SeedSpec(3, 1))])
    traj = solve(p, grid, StepScheme.RANDOMIZED_BACKWARD_EULER, nodes)
    taus = NodeStream(SeedSpec(3, 1)).taus(32)
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
    grid = TimeGrid(1.0, 1)
    sq = np.array(
        [
            (solve(p, grid, StepScheme.RANDOMIZED_BACKWARD_EULER,
                   one_row(grid, StepScheme.RANDOMIZED_BACKWARD_EULER,
                           SeedSpec(42, r))).states[1, 0] - 0.5) ** 2
            for r in range(20_000)
        ]
    )
    assert abs(sq.mean() - 1.0 / 12.0) < 0.05 / 12.0


def test_autonomous_reduction_to_classical():
    p = OdeProblem(
        1,
        rhs=lambda t, x: -x**3 - x,
        initial_value=1.0,
        final_time=1.0,
        jacobian=lambda t, x: -3.0 * x**2 - 1.0,
    )
    grid = TimeGrid(1.0, 64)
    rbe, be = StepScheme.RANDOMIZED_BACKWARD_EULER, StepScheme.CLASSICAL_BACKWARD_EULER
    a = solve(p, grid, rbe, one_row(grid, rbe, SeedSpec(8, 0)))
    b = solve(p, grid, be, one_row(grid, be))
    assert np.abs(a.states - b.states).max() < 1e-10
    assert a.states.shape == b.states.shape == (65, 1)


def test_one_step_consistency_invariant():
    saw = SawtoothSpec(6, AmplitudeMode.ODE)
    p = prothero_robinson_problem(ProtheroRobinsonSpec(2.0, saw))
    grid = TimeGrid(1.0, 32)
    cfg = NewtonConfig()
    nodes = grid.random_nodes([NodeStream(SeedSpec(5, 3))])
    traj = solve(p, grid, StepScheme.RANDOMIZED_BACKWARD_EULER, nodes, cfg)
    k = grid.step_size
    for n in range(1, 33):
        u_n = traj.states[n, 0]
        resid = abs(u_n - traj.states[n - 1, 0] - k * p.rhs(nodes[0, n - 1], u_n))
        assert resid <= 10.0 * (cfg.abs_tol + cfg.rel_tol * abs(u_n))


def test_linear_problem_single_newton_iteration():
    saw = SawtoothSpec(6, AmplitudeMode.ODE)
    p = prothero_robinson_problem(ProtheroRobinsonSpec(2.0, saw))
    grid = TimeGrid(1.0, 64)
    traj = solve(p, grid, StepScheme.RANDOMIZED_BACKWARD_EULER,
                 grid.random_nodes([NodeStream(SeedSpec(5, 0))]))
    assert np.all(traj.newton_iteration_counts == 1)


def test_solve_requires_matching_final_time():
    p = OdeProblem(1, lambda t, x: 0.0, 0.0, 2.0)
    grid = TimeGrid(1.0, 4)
    with pytest.raises(ValueError, match="final time"):
        solve(p, grid, StepScheme.CLASSICAL_BACKWARD_EULER, grid.nodes()[None, 1:])


def test_solve_requires_a_node_block():
    p = OdeProblem(1, lambda t, x: 0.0, 0.0, 1.0)
    for nodes in (None, NodeStream(SeedSpec(1, 0))):
        with pytest.raises(ValueError, match="node block"):
            solve(p, TimeGrid(1.0, 4), StepScheme.RANDOMIZED_BACKWARD_EULER, nodes)


def test_nonconvergence_carries_step_index():
    def flaky(t, x):
        # well-behaved until the step evaluated at t = 0.5 (step 2),
        # where the implicit equation x = u_prev + x^2 + 1 has no root
        if t < 0.5:
            return -x
        return x * x + 1.0

    p = OdeProblem(1, flaky, 1.0, 1.0)
    grid = TimeGrid(1.0, 4)
    with pytest.raises(NonConvergence) as err:
        solve(p, grid, StepScheme.CLASSICAL_BACKWARD_EULER, grid.nodes()[None, 1:],
              cfg=NewtonConfig(max_iterations=20))
    assert err.value.step == 2


def test_local_residual_definition():
    p = OdeProblem(1, lambda t, x: 0.0, 1.0, 1.0)
    vals = np.full(9, 1.7)
    assert (local_residual(p, vals, np.full(8, 0.41), 0.125) == 0.0).all()

    q = time_integral_problem()
    grid = TimeGrid(1.0, 8)
    exact = np.array([q.exact(grid.node(n)) for n in range(9)])
    k = grid.step_size
    xi = grid.nodes()[:-1] + 0.3 * k
    rho = local_residual(q, exact, np.stack([xi, xi[::-1]]), k)
    assert rho.shape == (2, 8)
    # state-independent f: rho_n = k f(xi_n) - int_{t_{n-1}}^{t_n} f
    expected = k * xi - np.diff(exact)
    assert np.abs(rho[0] - expected).max() < 1e-15
    assert rho[1, 2] == k * xi[5] - exact[3] + exact[2]


def _per_step_conditional_mean(problem, exact, n, grid, quad_points, panels):
    """The step-at-a-time rule, with one scalar ``exact`` call per point."""
    t0, t1 = grid.node(n - 1), grid.node(n)
    u_n = exact(t1)
    nodes, weights = np.polynomial.legendre.leggauss(quad_points)
    edges = np.linspace(t0, t1, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    s = (mid[:, None] + half[:, None] * nodes).ravel()
    w = (half[:, None] * weights).ravel()
    u_s = np.array([exact(p) for p in s])
    return np.cumsum(w * (problem.rhs(s, u_n) - problem.rhs(s, u_s)))[-1]


@pytest.mark.parametrize("n", range(9))
def test_conditional_mean_residual_matches_per_step_rule(n):
    # the residual study's panels: one per sawtooth interval, 2^(K-n) per step
    K = 6
    pr = prothero_robinson_problem(
        ProtheroRobinsonSpec(2.0, SawtoothSpec(K, AmplitudeMode.ODE))
    )
    ti = time_integral_problem()
    grid = TimeGrid(1.0, 2**n)
    panels = 2 ** max(K - n, 0)
    for p in (pr, ti):
        got = conditional_mean_residual(p, p.exact, grid, 4, panels)
        assert got.shape == (grid.steps,)
        for step in range(1, grid.steps + 1):
            want = _per_step_conditional_mean(p, p.exact, step, grid, 4, panels)
            assert got[step - 1] == want


def test_conditional_mean_residual_closed_form():
    p = OdeProblem(
        1, lambda t, x: -x, 1.0, 1.0,
        jacobian=lambda t, x: -1.0, exact=lambda t: np.exp(-t),
    )
    grid = TimeGrid(1.0, 8)
    k = grid.step_size
    n = 3
    t0, t1 = grid.node(n - 1), grid.node(n)
    # hand integral of (e^-s - e^-t_n) ds over the step
    closed = (math.exp(-t0) - math.exp(-t1)) - k * math.exp(-t1)
    quad = conditional_mean_residual(p, p.exact, grid, quad_points=6, panels=4)
    assert abs(quad[n - 1] - closed) < 1e-14


def test_conditional_mean_residual_rejects_vector_problem():
    p = OdeProblem(
        2, lambda t, x: -x, [1.0, 1.0], 1.0,
        exact=lambda t: np.array([np.exp(-t), np.exp(-2 * t)]),
    )
    with pytest.raises(ValueError, match="scalar"):
        conditional_mean_residual(p, p.exact, TimeGrid(1.0, 8), 4, 3)


def test_conditional_mean_residual_state_independent_zero():
    p = time_integral_problem()
    grid = TimeGrid(1.0, 8)
    val = conditional_mean_residual(p, p.exact, grid, quad_points=4)
    assert np.abs(val).max() < 1e-16


def test_conditional_mean_residual_validation():
    p = time_integral_problem()
    grid = TimeGrid(1.0, 8)
    with pytest.raises(ValueError):
        conditional_mean_residual(p, p.exact, grid, quad_points=1)
    with pytest.raises(ValueError):
        conditional_mean_residual(p, p.exact, grid, panels=0)


def test_scheme_tokens():
    assert StepScheme.parse("rbe") is StepScheme.RANDOMIZED_BACKWARD_EULER
    assert StepScheme.parse("be").token == "be"
    with pytest.raises(ValueError):
        StepScheme.parse("euler")


def test_batched_solve_matches_single_replicas_bitwise():
    # x + k*c(t)*atan(x) = u overshoots from a large start, so some steps
    # need damping and the replicas' iteration counts differ
    calls = []

    def rhs(t, x):
        calls.append(np.size(x))
        return -50.0 * (1.0 + t) * np.arctan(x)

    p = OdeProblem(1, rhs, 20.0, 1.0,
                   jacobian=lambda t, x: -50.0 * (1.0 + t) / (1.0 + x * x))
    grid = TimeGrid(1.0, 4)
    seeds = [SeedSpec(11, r) for r in range(6)]
    block = grid.random_nodes([NodeStream(s) for s in seeds])
    batch = solve(p, grid, StepScheme.RANDOMIZED_BACKWARD_EULER, block)
    assert batch.states.shape == (5, 6) and block.shape == (6, 4)
    assert batch.newton_iteration_counts.shape == (4, 6)
    damped = []
    for r, seed in enumerate(seeds):
        calls.clear()
        nodes = grid.random_nodes([NodeStream(seed)])
        one = solve(p, grid, StepScheme.RANDOMIZED_BACKWARD_EULER, nodes)
        assert np.array_equal(one.states[:, 0], batch.states[:, r])
        assert np.array_equal(nodes[0], block[r])
        assert np.array_equal(one.newton_iteration_counts[:, 0],
                              batch.newton_iteration_counts[:, r])
        # one rhs call per step plus one per full Newton step; more means halvings
        damped.append(len(calls) > 4 + one.newton_iteration_counts.sum())
    assert any(damped)
    assert len(np.unique(batch.newton_iteration_counts)) > 1


def test_batched_nonconvergence_names_replica():
    grid = TimeGrid(1.0, 4)
    streams = [NodeStream(SeedSpec(3, r)) for r in range(5)]
    target = grid.random_nodes([NodeStream(SeedSpec(3, 2))])[0, 0]
    # x = 1 + (x^2 + 10)/4 has no root: only replica 2's first node sees it
    p = OdeProblem(1, lambda t, x: np.where(t == target, x * x + 10.0, -x), 1.0, 1.0)
    with pytest.raises(NonConvergence) as err:
        solve(p, grid, StepScheme.RANDOMIZED_BACKWARD_EULER, grid.random_nodes(streams))
    assert (err.value.step, err.value.replica) == (1, 2)


def test_random_nodes_match_scalar_rule():
    grid = TimeGrid(1.0, 64)
    block = grid.random_nodes([NodeStream(SeedSpec(4, r)) for r in range(3)])
    for r in range(3):
        taus = NodeStream(SeedSpec(4, r)).taus(64)
        assert block[r].tolist() == [node(grid, n, taus[n - 1]) for n in range(1, 65)]
    assert grid.nodes().tolist() == [grid.node(n) for n in range(65)]


@pytest.mark.parametrize("with_jacobian", [True, False])
def test_classical_row_beside_replicas_equals_classical_alone(with_jacobian):
    # the classical scheme is one more row of nodes, the grid points: in a
    # batch with randomized rows it keeps its bits and Newton counts, and
    # the randomized rows keep theirs
    def rhs(t, x):
        return -50.0 * (1.0 + t) * np.arctan(x)

    jac = (lambda t, x: -50.0 * (1.0 + t) / (1.0 + x * x)) if with_jacobian else None
    p = OdeProblem(1, rhs, 20.0, 1.0, jacobian=jac)
    grid = TimeGrid(1.0, 8)
    randomized = grid.random_nodes([NodeStream(SeedSpec(11, r)) for r in range(4)])
    block = np.concatenate([randomized, grid.nodes()[None, 1:]])
    batch = solve(p, grid, StepScheme.RANDOMIZED_BACKWARD_EULER, block)
    alone = solve(p, grid, StepScheme.CLASSICAL_BACKWARD_EULER, grid.nodes()[None, 1:])
    assert np.array_equal(batch.states[:, 4:], alone.states)
    assert np.array_equal(batch.newton_iteration_counts[:, 4:],
                          alone.newton_iteration_counts)
    assert alone.newton_iteration_counts.max() > alone.newton_iteration_counts.min()
    replicas = solve(p, grid, StepScheme.RANDOMIZED_BACKWARD_EULER, randomized)
    assert np.array_equal(batch.states[:, :4], replicas.states)
    assert np.array_equal(batch.newton_iteration_counts[:, :4],
                          replicas.newton_iteration_counts)


def test_solve_rejects_bad_node_blocks():
    p = linear_decay()
    grid = TimeGrid(1.0, 4)
    rbe = StepScheme.RANDOMIZED_BACKWARD_EULER
    for bad in (np.empty((0, 4)), np.zeros((2, 3)), np.zeros(4),
                [NodeStream(SeedSpec(1, 0))], np.zeros((2, 4)).tolist()):
        with pytest.raises(ValueError, match="node block"):
            solve(p, grid, rbe, bad)
    with pytest.raises(ValueError, match="one-row"):
        solve(coupled_arctan(True), grid, rbe, np.zeros((2, 4)))


def test_solve_off_block_length_matches_implicit_steps_bitwise():
    # N is not a multiple of FREEZE_BLOCK, so the last block is partial;
    # the oracle steps through implicit_step, which evaluates rhs(t, x)
    problem = prothero_robinson_problem(
        ProtheroRobinsonSpec(2.0, SawtoothSpec(6, AmplitudeMode.ODE))
    )
    grid = TimeGrid(1.0, 2 * FREEZE_BLOCK + 22)
    k = grid.step_size
    randomized = grid.random_nodes([NodeStream(SeedSpec(5, r)) for r in range(3)])
    block = np.concatenate([randomized, grid.nodes()[None, 1:]])
    batch = solve(problem, grid, StepScheme.RANDOMIZED_BACKWARD_EULER, block)
    explicit = solve(problem, grid, StepScheme.RANDOMIZED_FORWARD_EULER, block)
    for row, nodes in enumerate(block):  # three rbe rows, then the be row
        u = v = problem.initial_value
        implicit_path, explicit_path = [u], [v]
        for t in nodes:
            u = implicit_step(problem, t, u, k)[0]
            v = explicit_step(problem, t, v, k)[0]
            implicit_path.append(u)
            explicit_path.append(v)
        assert batch.states[:, row].tolist() == implicit_path
        assert explicit.states[:, row].tolist() == explicit_path


def test_split_problem_marches_like_unsplit_bitwise():
    # damping and uneven iteration counts make Newton subset the frozen
    # data with [keep] and [retry], as it subsets the times
    calls = []

    def rhs(t, x):
        return -500.0 * (1.0 + t) * np.arctan(x)

    def rhs_frozen(c, x):
        calls.append(np.size(x))
        return c[..., 0] * np.arctan(x)

    plain = OdeProblem(1, rhs, 20.0, 1.0,
                       jacobian=lambda t, x: -500.0 * (1.0 + t) / (1.0 + x * x))
    split = OdeProblem(
        1, rhs, 20.0, 1.0,
        jacobian=lambda c, x: c[..., 0] / (1.0 + x * x),
        split=(lambda t: (-500.0 * (1.0 + t))[..., None], rhs_frozen),
    )
    grid = TimeGrid(1.0, FREEZE_BLOCK + 7)
    block = grid.random_nodes([NodeStream(SeedSpec(11, r)) for r in range(5)])
    a = solve(plain, grid, StepScheme.RANDOMIZED_BACKWARD_EULER, block)
    b = solve(split, grid, StepScheme.RANDOMIZED_BACKWARD_EULER, block)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.newton_iteration_counts, b.newton_iteration_counts)
    counts = b.newton_iteration_counts
    assert (counts.min(axis=1) < counts.max(axis=1)).any()
    # one call per step plus one per full Newton step; more means halvings
    assert len(calls) > grid.steps + counts.max(axis=1).sum()


@pytest.mark.parametrize("bad", [np.nan, 1.5, -0.25])
@pytest.mark.parametrize("step", [0, FREEZE_BLOCK + 3])
def test_solve_rejects_a_node_outside_the_domain(bad, step):
    problem = prothero_robinson_problem(
        ProtheroRobinsonSpec(2.0, SawtoothSpec(6, AmplitudeMode.ODE))
    )
    grid = TimeGrid(1.0, FREEZE_BLOCK + 10)
    block = grid.random_nodes([NodeStream(SeedSpec(2, r)) for r in range(3)])
    block[1, step] = bad
    for scheme in (StepScheme.RANDOMIZED_BACKWARD_EULER,
                   StepScheme.RANDOMIZED_FORWARD_EULER):
        with pytest.raises(ValueError, match="outside"):
            solve(problem, grid, scheme, block)


def coupled_arctan(with_jacobian):
    # f = (-50(1+t) atan(x0) + x1, -x0 - 2 x1^3): the off-diagonal terms
    # cancel in the symmetric part, so nu <= 0; the large start needs damping
    def rhs(t, x):
        return np.array([-50.0 * (1.0 + t) * np.arctan(x[0]) + x[1],
                         -x[0] - 2.0 * x[1] ** 3])

    def jacobian(t, x):
        return np.array([[-50.0 * (1.0 + t) / (1.0 + x[0] ** 2), 1.0],
                         [-1.0, -6.0 * x[1] ** 2]])

    jac = jacobian if with_jacobian else None
    return OdeProblem(2, rhs, np.array([20.0, 1.0]), 1.0, jacobian=jac)


# float.hex() of the final states and the sum of Newton counts, rendered
# before the ODE Newton loops were merged into one core
PINNED_BITS = {
    ("rbe", True): (["-0x1.1637b3ee4ac92p-8", "-0x1.a66c3a529b7fap-2"], 29),
    ("rbe", False): (["-0x1.1637b3ee4ab69p-8", "-0x1.a66c3a529b63ap-2"], 29),
    ("be", True): (["-0x1.bf8ebce000ce8p-9", "-0x1.5aeebb0d57f20p-2"], 30),
    ("be", False): (["-0x1.bf8ebce000e29p-9", "-0x1.5aeebb0d58017p-2"], 30),
    ("rfe", True): (["-0x1.22387fcaac35cp+3", "-0x1.7e0beb7d76190p-1"], 0),
    ("rfe", False): (["-0x1.22387fcaac35cp+3", "-0x1.7e0beb7d76190p-1"], 0),
    # five damped rbe replicas and the be row, finite-difference derivative
    ("batch", False): ([
        "0x1.15a07a1024d1cp-12", "0x1.4082bbe12f42cp-12", "0x1.650a5c3d9c42dp-12",
        "0x1.7b2567cd87773p-12", "0x1.1f01f2d7faff7p-12", "0x1.868a37e12463bp-13",
    ], 107),
}


@pytest.mark.parametrize("case", sorted(PINNED_BITS))
def test_solve_bits_are_pinned(case):
    scheme, with_jacobian = case
    if scheme == "batch":
        p = OdeProblem(1, lambda t, x: -50.0 * (1.0 + t) * np.arctan(x), 20.0, 1.0)
        grid = TimeGrid(1.0, 4)
        randomized = grid.random_nodes([NodeStream(SeedSpec(11, r)) for r in range(5)])
        block = np.concatenate([randomized, grid.nodes()[None, 1:]])
        path = solve(p, grid, StepScheme.RANDOMIZED_BACKWARD_EULER, block)
        counts = path.newton_iteration_counts
        assert (counts.min(axis=1) < counts.max(axis=1)).any()
    else:
        scheme = StepScheme.parse(scheme)
        grid = TimeGrid(1.0, 8)
        path = solve(coupled_arctan(with_jacobian), grid, scheme,
                     one_row(grid, scheme, SeedSpec(7, 0)))
        assert path.states.shape == (9, 1, 2)
    states, iterations = PINNED_BITS[case]
    assert [v.hex() for v in path.states[-1].ravel()] == states
    assert int(path.newton_iteration_counts.sum()) == iterations
