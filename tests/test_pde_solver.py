import dataclasses
import hashlib

import numpy as np
import pytest

from randstep.fem1d import Mesh, assemble_mass, assemble_stiffness, l2_error, l2_project
from randstep.ode_solver import ABS_TOL, REL_TOL, StepScheme, Trajectory
from randstep.pde_solver import (
    ENERGY_FLAG_FACTOR,
    PdeProblem,
    energy_bound_check,
    pde_solve,
)
from randstep.problems import (
    SawtoothSpec,
    TruncatedPowerSpec,
    pde_exact,
    semilinear_heat_problem,
)
from randstep.rand_nodes import TimeGrid

from oracles import assert_counts_are_each_rows_own, dense, one_row, pde_step

BSPEC = TruncatedPowerSpec(cap=10.0, power=4.0)

# recorded from the first verified run of the manufactured benchmark
# (K=5, m=63, N=256, replica 0, master seed 42)
HEAT_REGRESSION_L2 = 3.464579500133706e-05


def zero_problem():
    return PdeProblem(
        forcing=lambda t, x: np.zeros_like(x),
        nonlinearity=lambda u: np.zeros_like(u),
        nonlinearity_prime=lambda u: np.zeros_like(u),
        initial=lambda x: np.zeros_like(x),
    )


def heat_problem(exponent=5):
    saw = SawtoothSpec(exponent)
    return semilinear_heat_problem(saw, BSPEC), saw


def test_step_zero_data_stays_zero():
    mesh = Mesh(15)
    mass, stiff = assemble_mass(mesh), assemble_stiffness(mesh)
    out = pde_step(mass, stiff, 0.1, 0.05, np.zeros(15), zero_problem())
    assert np.array_equal(out, np.zeros(15))


def test_step_dissipates_energy():
    mesh = Mesh(31)
    mass, stiff = assemble_mass(mesh), assemble_stiffness(mesh)
    u0 = l2_project(mesh, lambda x: np.sin(np.pi * x))
    u1 = pde_step(mass, stiff, 0.01, 0.0, u0, zero_problem())
    e0 = u0 @ mass.matvec(u0)
    e1 = u1 @ mass.matvec(u1)
    assert e1 < e0


def test_step_matches_dense_oracle():
    mesh = Mesh(31)
    mass, stiff = assemble_mass(mesh), assemble_stiffness(mesh)
    u0 = l2_project(mesh, lambda x: np.sin(np.pi * x))
    k = 0.01
    u1 = pde_step(mass, stiff, k, 0.37, u0, zero_problem())
    oracle = np.linalg.solve(dense(mass.plus(stiff, scale=k)), mass.matvec(u0))
    assert np.abs(u1 - oracle).max() < 1e-10


def test_step_residual_below_tolerance():
    problem, _ = heat_problem()
    mesh = Mesh(31)
    mass, stiff = assemble_mass(mesh), assemble_stiffness(mesh)
    from randstep.fem1d import assemble_nonlinearity, load_vector

    u_prev = l2_project(mesh, problem.initial)
    k, xi = 1.0 / 64.0, 0.013
    u1 = pde_step(mass, stiff, k, xi, u_prev, problem)
    system = mass.plus(stiff, scale=k)
    rhs = mass.matvec(u_prev) + k * load_vector(mesh, lambda x: problem.forcing(xi, x))
    resid = system.matvec(u1) + k * assemble_nonlinearity(
        mesh, problem.nonlinearity, u1
    ) - rhs
    assert np.abs(resid).max() <= ABS_TOL + REL_TOL * np.abs(rhs).max()


def test_solve_zero_problem():
    grid = TimeGrid(8)
    traj = pde_solve(zero_problem(), Mesh(15), StepScheme.RANDOMIZED_BACKWARD_EULER,
                     grid.random_nodes(1, [0]))
    assert np.array_equal(traj.states, np.zeros_like(traj.states))
    assert energy_bound_check(traj, zero_problem()).left_side == 0.0


def test_solve_initial_field_is_projection():
    problem, _ = heat_problem()
    mesh = Mesh(31)
    grid = TimeGrid(4)
    traj = pde_solve(problem, mesh, StepScheme.CLASSICAL_BACKWARD_EULER,
                     grid.nodes()[None, 1:])
    assert np.array_equal(traj.states[0, 0],
                          l2_project(mesh, problem.initial))


def test_solve_rejects_explicit_scheme():
    grid = TimeGrid(4)
    with pytest.raises(ValueError, match="explicit"):
        pde_solve(zero_problem(), Mesh(7), StepScheme.RANDOMIZED_FORWARD_EULER,
                  grid.random_nodes(0, [0]))


def test_autonomous_data_randomized_equals_classical():
    problem = PdeProblem(
        forcing=lambda t, x: np.sin(np.pi * x),
        nonlinearity=lambda u: u**3,
        nonlinearity_prime=lambda u: 3.0 * u**2,
        initial=lambda x: np.sin(np.pi * x) / np.pi**2,
    )
    mesh = Mesh(31)
    grid = TimeGrid(16)
    a = pde_solve(problem, mesh, StepScheme.RANDOMIZED_BACKWARD_EULER,
                  grid.random_nodes(5, [0]))
    b = pde_solve(problem, mesh, StepScheme.CLASSICAL_BACKWARD_EULER,
                  grid.nodes()[None, 1:])
    assert np.abs(a.states - b.states).max() <= 10 * (ABS_TOL + REL_TOL)


def test_monotone_contraction_of_paired_trajectories():
    problem, _ = heat_problem()
    other = dataclasses.replace(
        problem,
        initial=lambda x: 0.4 * np.sin(2 * np.pi * x) + np.sin(np.pi * x) / np.pi**2,
    )
    mesh = Mesh(31)
    grid = TimeGrid(32)
    mass = assemble_mass(mesh)
    a = pde_solve(problem, mesh, StepScheme.RANDOMIZED_BACKWARD_EULER,
                  grid.random_nodes(9, [0]))
    b = pde_solve(other, mesh, StepScheme.RANDOMIZED_BACKWARD_EULER,
                  grid.random_nodes(9, [0]))
    dist = np.array(
        [np.sqrt(d @ mass.matvec(d)) for d in (a.states - b.states)[:, 0]]
    )
    assert np.all(np.diff(dist) <= 1e-12)


def test_nodes_shared_between_paired_runs():
    problem, _ = heat_problem()
    mesh = Mesh(15)
    grid = TimeGrid(8)
    a_nodes = grid.random_nodes(3, [2])
    b_nodes = grid.random_nodes(3, [2])
    a = pde_solve(problem, mesh, StepScheme.RANDOMIZED_BACKWARD_EULER, a_nodes)
    b = pde_solve(problem, mesh, StepScheme.RANDOMIZED_BACKWARD_EULER, b_nodes)
    assert np.array_equal(a_nodes, b_nodes)
    assert np.array_equal(a.states, b.states)
    k = grid.step_size
    assert np.all(a_nodes >= np.arange(8) * k)
    assert np.all(a_nodes < np.arange(1, 9) * k)


def test_benchmark_regression_single_replica():
    problem, saw = heat_problem(exponent=5)
    mesh = Mesh(63)
    grid = TimeGrid(256)
    traj = pde_solve(problem, mesh, StepScheme.RANDOMIZED_BACKWARD_EULER,
                     grid.random_nodes(42, [0]))
    err = l2_error(mesh, traj.states[-1, 0], lambda x: pde_exact(saw, 1.0, x))
    assert err < 1e-2  # sanity ceiling
    assert err == pytest.approx(HEAT_REGRESSION_L2, rel=1e-9)


def test_energy_bound_check():
    problem, _ = heat_problem()
    mesh = Mesh(31)
    grid = TimeGrid(32)
    traj = pde_solve(problem, mesh, StepScheme.RANDOMIZED_BACKWARD_EULER,
                     grid.random_nodes(7, [0]))
    assert traj.grid == grid
    report = energy_bound_check(traj, problem)
    assert np.isfinite(report.left_side)
    assert report.right_side_data > 0
    assert not report.flagged

    grid = TimeGrid(4)
    batch = pde_solve(problem, mesh, StepScheme.RANDOMIZED_BACKWARD_EULER,
                      grid.random_nodes(7, range(2)))
    with pytest.raises(ValueError, match="single replica"):
        energy_bound_check(batch, problem)

    zero_traj = pde_solve(zero_problem(), Mesh(7), StepScheme.CLASSICAL_BACKWARD_EULER,
                          grid.nodes()[None, 1:])
    zero_report = energy_bound_check(zero_traj, zero_problem())
    assert zero_report.max_state_energy == 0.0
    assert zero_report.increment_sum == 0.0
    assert zero_report.dissipation_sum == 0.0
    assert not zero_report.flagged

    # a path that grows to about 1e4 from rest: the data are 1 + 0 + 0
    grown = np.zeros((5, 1, 7))
    grown[1:] = 1e4
    report = energy_bound_check(Trajectory(grown, np.zeros((4, 1), dtype=np.int64)),
                                zero_problem())
    assert report.right_side_data == 1.0
    assert report.left_side > ENERGY_FLAG_FACTOR * report.right_side_data
    assert report.flagged


def test_energy_stable_under_refinement():
    problem, _ = heat_problem()
    mesh = Mesh(31)
    vals = []
    for n_steps in (32, 64):
        grid = TimeGrid(n_steps)
        traj = pde_solve(problem, mesh, StepScheme.RANDOMIZED_BACKWARD_EULER,
                         grid.random_nodes(11, [0]))
        vals.append(energy_bound_check(traj, problem).max_state_energy)
    assert abs(vals[1] - vals[0]) < 0.5 * vals[0]


def autonomous_problem():
    # the forcing ignores t and returns one value per quadrature point
    return PdeProblem(
        forcing=lambda t, x: np.sin(np.pi * x),
        nonlinearity=lambda u: u**3,
        nonlinearity_prime=lambda u: 3.0 * u**2,
        initial=lambda x: np.sin(np.pi * x) / np.pi**2,
    )


@pytest.mark.parametrize("problem_fn", [autonomous_problem, lambda: heat_problem()[0]])
@pytest.mark.parametrize("scheme", [StepScheme.RANDOMIZED_BACKWARD_EULER,
                                    StepScheme.CLASSICAL_BACKWARD_EULER])
def test_solve_equals_loop_of_steps(problem_fn, scheme):
    # the blocked loads of pde_solve must give each step exactly the load
    # the one-step oracle assembles at that step's node, for a forcing with or
    # without t; 40 steps cover two full blocks and a partial one
    problem = problem_fn()
    mesh = Mesh(31)
    grid = TimeGrid(40)
    nodes = one_row(grid, scheme, 5, 0)
    path = pde_solve(problem, mesh, scheme, nodes)
    mass, stiff = assemble_mass(mesh), assemble_stiffness(mesh)
    u = path.states[0, 0]
    for n, xi in enumerate(nodes[0].tolist(), start=1):
        u = pde_step(mass, stiff, grid.step_size, xi, u, problem)
        assert np.array_equal(u, path.states[n, 0]), f"step {n}"


def swinging_problem():
    # a large forcing that swings with t: Newton takes 3 to 7 iterations,
    # with damped retries, and differently in every replica
    return PdeProblem(
        forcing=lambda t, x: 1000.0 * np.cos(40.0 * t) * np.sin(np.pi * x),
        nonlinearity=lambda u: u**3,
        nonlinearity_prime=lambda u: 3.0 * u**2,
        initial=lambda x: np.sin(np.pi * x),
    )


def test_constant_forcing_equals_array_of_ones():
    grid = TimeGrid(8)
    block = one_row(grid, StepScheme.RANDOMIZED_BACKWARD_EULER, 5, 0)
    ones = dataclasses.replace(swinging_problem(), forcing=lambda t, x: np.ones_like(x))
    constant = dataclasses.replace(ones, forcing=lambda t, x: 1.0)
    paths = [pde_solve(p, Mesh(15), StepScheme.RANDOMIZED_BACKWARD_EULER, block)
             for p in (constant, ones)]
    assert np.array_equal(paths[0].states, paths[1].states)


def test_batch_replicas_equal_single_solves():
    problem = swinging_problem()
    mesh = Mesh(31)
    grid = TimeGrid(37)
    scheme = StepScheme.RANDOMIZED_BACKWARD_EULER
    replicas = range(2, 7)
    block = grid.random_nodes(3, replicas)
    batch = pde_solve(problem, mesh, scheme, block)
    assert batch.states.shape == (38, 5, 31)
    assert batch.newton_iteration_counts.shape == (37, 5)
    counts = set()
    for col, r in enumerate(replicas):
        nodes = grid.random_nodes(3, [r])
        alone = pde_solve(problem, mesh, scheme, nodes)
        assert np.array_equal(batch.states[:, col], alone.states[:, 0])
        assert np.array_equal(batch.newton_iteration_counts[:, col],
                              alone.newton_iteration_counts[:, 0])
        assert np.array_equal(block[col], nodes[0])
        counts.add(tuple(alone.newton_iteration_counts[:, 0]))
    assert len(counts) == len(replicas)  # no two replicas iterated alike


def test_lockstep_rows_equal_each_step_size_alone():
    # N = 4 and N = 8 retire inside the first STEP_BLOCK block of the
    # N = 32 rows; every row keeps the fields and Newton counts of its own
    # step size marched alone
    problem = swinging_problem()
    mesh = Mesh(15)
    scheme = StepScheme.RANDOMIZED_BACKWARD_EULER
    blocks = []
    for n in (5, 3, 2):
        grid = TimeGrid(2**n)
        blocks += [grid.random_nodes(3, range(2)), grid.nodes()[None, 1:]]
    batch = pde_solve(problem, mesh, scheme, blocks)
    assert batch.states.shape == (33, 9, 15)
    start = 0
    for block in blocks:
        n, rows = block.shape[1], slice(start, start + len(block))
        alone = pde_solve(problem, mesh, scheme, block)
        assert batch.states[: n + 1, rows].tobytes() == alone.states.tobytes()
        assert np.isnan(batch.states[n + 1 :, rows]).all()
        assert np.array_equal(batch.newton_iteration_counts[:n, rows],
                              alone.newton_iteration_counts)
        start += len(block)
    assert len(np.unique(batch.newton_iteration_counts[:4])) > 2


def test_solve_rejects_empty_stream_batch():
    with pytest.raises(ValueError):
        pde_solve(zero_problem(), Mesh(7), StepScheme.RANDOMIZED_BACKWARD_EULER,
                  np.empty((0, 4)))


def test_classical_row_beside_replicas_equals_classical_alone():
    # as for the ODE: the row of grid points marches with randomized rows
    # and keeps its fields and Newton counts, and theirs stay as they were
    problem = swinging_problem()
    mesh = Mesh(31)
    grid = TimeGrid(37)
    randomized = grid.random_nodes(3, range(3))
    block = np.concatenate([grid.nodes()[None, 1:], randomized])
    batch = pde_solve(problem, mesh, StepScheme.CLASSICAL_BACKWARD_EULER, block)
    alone = pde_solve(problem, mesh, StepScheme.CLASSICAL_BACKWARD_EULER,
                      grid.nodes()[None, 1:])
    assert np.array_equal(batch.states[:, :1], alone.states)
    assert np.array_equal(batch.newton_iteration_counts[:, :1],
                          alone.newton_iteration_counts)
    assert len(set(alone.newton_iteration_counts[:, 0].tolist())) > 1
    replicas = pde_solve(problem, mesh, StepScheme.RANDOMIZED_BACKWARD_EULER,
                         randomized)
    assert np.array_equal(batch.states[:, 1:], replicas.states)
    assert np.array_equal(batch.newton_iteration_counts[:, 1:],
                          replicas.newton_iteration_counts)


def test_newton_counts_of_a_two_row_batch():
    # the two replicas converge in different iterations of some steps
    problem = swinging_problem()
    mesh = Mesh(15)
    grid = TimeGrid(16)
    scheme = StepScheme.RANDOMIZED_BACKWARD_EULER
    rows = [one_row(grid, scheme, 3, r) for r in range(2)]
    counts = assert_counts_are_each_rows_own(
        lambda nodes: pde_solve(problem, mesh, scheme, nodes), grid, rows)
    assert (counts[:, 0] != counts[:, 1]).any()


def test_each_newton_iterate_is_evaluated_once():
    # undamped, one row: b at U^0 and at each iteration's trial, whose
    # value is also the next step's first residual, and b' at each
    # iterate whose residual failed the tolerance
    problem, _ = heat_problem(exponent=3)
    calls = {"b": 0, "b_prime": 0}

    def counted(name, fn):
        def wrapped(u):
            calls[name] += 1
            return fn(u)
        return wrapped

    problem = dataclasses.replace(
        problem, nonlinearity=counted("b", problem.nonlinearity),
        nonlinearity_prime=counted("b_prime", problem.nonlinearity_prime))
    grid = TimeGrid(16)
    path = pde_solve(problem, Mesh(15), StepScheme.RANDOMIZED_BACKWARD_EULER,
                     grid.random_nodes(42, [0]))
    iterations = int(path.newton_iteration_counts.sum())
    assert iterations >= grid.steps
    assert calls == {"b": 1 + iterations, "b_prime": iterations}


# sha256 of states.tobytes() and newton_iteration_counts.tobytes() of three
# damped rbe replicas and the be row, rendered before the ODE and PDE step
# loops were merged into one
PINNED_PDE_BITS = (
    "84ab2bf981e55974ab01980dbe95695ee92f5ab98d72f2af75b68810cb7419fe",
    "f89963a797bd4ea691d999c025c4cb3b6807621cab2dafb40eb1e673f3eaf559",
)


def test_pde_solve_bits_are_pinned():
    grid = TimeGrid(37)
    randomized = grid.random_nodes(3, range(3))
    block = np.concatenate([randomized, grid.nodes()[None, 1:]])
    path = pde_solve(swinging_problem(), Mesh(31), StepScheme.RANDOMIZED_BACKWARD_EULER,
                     block)
    assert path.states.shape == (38, 4, 31)
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest()
                    for a in (path.states, path.newton_iteration_counts))
    assert digests == PINNED_PDE_BITS
