import dataclasses
import hashlib

import numpy as np
import pytest

from randstep.fem1d import Mesh, assemble_mass, assemble_stiffness, l2_error, l2_project
from randstep.ode_solver import NewtonConfig, StepScheme
from randstep.pde_solver import (
    PdeProblem,
    energy_bound_check,
    pde_solve,
    pde_step,
)
from randstep.problems import (
    AmplitudeMode,
    SawtoothSpec,
    TruncatedPowerSpec,
    pde_exact,
    semilinear_heat_problem,
)
from randstep.rand_nodes import NodeStream, SeedSpec, TimeGrid

BSPEC = TruncatedPowerSpec(cap=10.0, power=4.0)

# recorded from the first verified run of the manufactured benchmark
# (K=5, m=63, N=256, replica 0, master seed 42)
HEAT_REGRESSION_L2 = 3.464579500133706e-05


def one_row(grid, scheme, seed):
    """The node block of one path: drawn from ``seed``'s stream for a
    randomized scheme, the grid points t_1..t_N for the classical one."""
    if scheme.is_randomized:
        return grid.random_nodes([NodeStream(seed)])
    return grid.nodes()[None, 1:]


def zero_problem():
    return PdeProblem(
        forcing=lambda t, x: np.zeros_like(x),
        nonlinearity=lambda u: np.zeros_like(u),
        nonlinearity_prime=lambda u: np.zeros_like(u),
        initial=lambda x: np.zeros_like(x),
        final_time=1.0,
    )


def heat_problem(exponent=5):
    saw = SawtoothSpec(exponent, AmplitudeMode.PDE)
    return semilinear_heat_problem(saw, BSPEC), saw


def test_step_zero_data_stays_zero():
    mesh = Mesh(15)
    mass, stiff = assemble_mass(mesh), assemble_stiffness(mesh)
    out = pde_step(mass, stiff, 0.1, 0.05, np.zeros(15), zero_problem())
    assert np.array_equal(out.coefficients, np.zeros(15))


def test_step_dissipates_energy():
    mesh = Mesh(31)
    mass, stiff = assemble_mass(mesh), assemble_stiffness(mesh)
    u0 = l2_project(mesh, lambda x: np.sin(np.pi * x))
    u1 = pde_step(mass, stiff, 0.01, 0.0, u0, zero_problem())
    e0 = u0.coefficients @ mass.matvec(u0.coefficients)
    e1 = u1.coefficients @ mass.matvec(u1.coefficients)
    assert e1 < e0


def test_step_matches_dense_oracle():
    mesh = Mesh(31)
    mass, stiff = assemble_mass(mesh), assemble_stiffness(mesh)
    u0 = l2_project(mesh, lambda x: np.sin(np.pi * x))
    k = 0.01
    u1 = pde_step(mass, stiff, k, 0.37, u0, zero_problem())
    dense = mass.plus(stiff, scale=k).to_dense()
    oracle = np.linalg.solve(dense, mass.matvec(u0.coefficients))
    assert np.abs(u1.coefficients - oracle).max() < 1e-10


def test_step_residual_below_tolerance():
    problem, _ = heat_problem()
    mesh = Mesh(31)
    mass, stiff = assemble_mass(mesh), assemble_stiffness(mesh)
    cfg = NewtonConfig()
    from randstep.fem1d import assemble_nonlinearity, load_vector

    u_prev = l2_project(mesh, problem.initial).coefficients
    k, xi = 1.0 / 64.0, 0.013
    u1 = pde_step(mass, stiff, k, xi, u_prev, problem, cfg).coefficients
    system = mass.plus(stiff, scale=k)
    rhs = mass.matvec(u_prev) + k * load_vector(mesh, lambda x: problem.forcing(xi, x))
    resid = system.matvec(u1) + k * assemble_nonlinearity(
        mesh, problem.nonlinearity, u1
    ) - rhs
    assert np.abs(resid).max() <= cfg.abs_tol + cfg.rel_tol * np.abs(rhs).max()


def test_solve_zero_problem():
    grid = TimeGrid(1.0, 8)
    traj = pde_solve(zero_problem(), Mesh(15), grid, StepScheme.RANDOMIZED_BACKWARD_EULER,
                     grid.random_nodes([NodeStream(SeedSpec(1, 0))]))
    assert np.array_equal(traj.fields, np.zeros_like(traj.fields))
    assert energy_bound_check(traj, zero_problem()).left_side == 0.0


def test_solve_initial_field_is_projection():
    problem, _ = heat_problem()
    mesh = Mesh(31)
    grid = TimeGrid(1.0, 4)
    traj = pde_solve(problem, mesh, grid, StepScheme.CLASSICAL_BACKWARD_EULER,
                     grid.nodes()[None, 1:])
    assert np.array_equal(traj.fields[0, 0],
                          l2_project(mesh, problem.initial).coefficients)


def test_solve_rejects_explicit_scheme():
    grid = TimeGrid(1.0, 4)
    with pytest.raises(ValueError, match="explicit"):
        pde_solve(zero_problem(), Mesh(7), grid, StepScheme.RANDOMIZED_FORWARD_EULER,
                  grid.random_nodes([NodeStream(SeedSpec(0, 0))]))


def test_autonomous_data_randomized_equals_classical():
    problem = PdeProblem(
        forcing=lambda t, x: np.sin(np.pi * x),
        nonlinearity=lambda u: u**3,
        nonlinearity_prime=lambda u: 3.0 * u**2,
        initial=lambda x: np.sin(np.pi * x) / np.pi**2,
        final_time=1.0,
    )
    mesh = Mesh(31)
    grid = TimeGrid(1.0, 16)
    a = pde_solve(problem, mesh, grid, StepScheme.RANDOMIZED_BACKWARD_EULER,
                  grid.random_nodes([NodeStream(SeedSpec(5, 0))]))
    b = pde_solve(problem, mesh, grid, StepScheme.CLASSICAL_BACKWARD_EULER,
                  grid.nodes()[None, 1:])
    cfg = NewtonConfig()
    assert np.abs(a.fields - b.fields).max() <= 10 * (cfg.abs_tol + cfg.rel_tol)


def test_monotone_contraction_of_paired_trajectories():
    problem, _ = heat_problem()
    other = dataclasses.replace(
        problem,
        initial=lambda x: 0.4 * np.sin(2 * np.pi * x) + np.sin(np.pi * x) / np.pi**2,
    )
    mesh = Mesh(31)
    grid = TimeGrid(1.0, 32)
    mass = assemble_mass(mesh)
    a = pde_solve(problem, mesh, grid, StepScheme.RANDOMIZED_BACKWARD_EULER,
                  grid.random_nodes([NodeStream(SeedSpec(9, 0))]))
    b = pde_solve(other, mesh, grid, StepScheme.RANDOMIZED_BACKWARD_EULER,
                  grid.random_nodes([NodeStream(SeedSpec(9, 0))]))
    dist = np.array(
        [np.sqrt(d @ mass.matvec(d)) for d in (a.fields - b.fields)[:, 0]]
    )
    assert np.all(np.diff(dist) <= 1e-12)


def test_nodes_shared_between_paired_runs():
    problem, _ = heat_problem()
    mesh = Mesh(15)
    grid = TimeGrid(1.0, 8)
    a_nodes = grid.random_nodes([NodeStream(SeedSpec(3, 2))])
    b_nodes = grid.random_nodes([NodeStream(SeedSpec(3, 2))])
    a = pde_solve(problem, mesh, grid, StepScheme.RANDOMIZED_BACKWARD_EULER, a_nodes)
    b = pde_solve(problem, mesh, grid, StepScheme.RANDOMIZED_BACKWARD_EULER, b_nodes)
    assert np.array_equal(a_nodes, b_nodes)
    assert np.array_equal(a.fields, b.fields)
    k = grid.step_size
    assert np.all(a_nodes >= np.arange(8) * k)
    assert np.all(a_nodes < np.arange(1, 9) * k)


def test_benchmark_regression_single_replica():
    problem, saw = heat_problem(exponent=5)
    mesh = Mesh(63)
    grid = TimeGrid(1.0, 256)
    traj = pde_solve(problem, mesh, grid, StepScheme.RANDOMIZED_BACKWARD_EULER,
                     grid.random_nodes([NodeStream(SeedSpec(42, 0))]))
    err = l2_error(mesh, traj.fields[-1, 0], lambda x: pde_exact(saw, 1.0, x))
    assert err < 1e-2  # sanity ceiling
    assert err == pytest.approx(HEAT_REGRESSION_L2, rel=1e-9)


def test_energy_bound_check():
    problem, _ = heat_problem()
    mesh = Mesh(31)
    grid = TimeGrid(1.0, 32)
    traj = pde_solve(problem, mesh, grid, StepScheme.RANDOMIZED_BACKWARD_EULER,
                     grid.random_nodes([NodeStream(SeedSpec(7, 0))]))
    report = energy_bound_check(traj, problem)
    assert np.isfinite(report.left_side)
    assert report.right_side_data > 0
    assert not report.flagged

    grid = TimeGrid(1.0, 4)
    batch = pde_solve(problem, mesh, grid, StepScheme.RANDOMIZED_BACKWARD_EULER,
                      grid.random_nodes([NodeStream(SeedSpec(7, r)) for r in range(2)]))
    with pytest.raises(ValueError, match="single replica"):
        energy_bound_check(batch, problem)

    zero_traj = pde_solve(zero_problem(), Mesh(7), grid,
                          StepScheme.CLASSICAL_BACKWARD_EULER, grid.nodes()[None, 1:])
    zero_report = energy_bound_check(zero_traj, zero_problem())
    assert zero_report.max_state_energy == 0.0
    assert zero_report.increment_sum == 0.0
    assert zero_report.dissipation_sum == 0.0
    assert not zero_report.flagged


def test_energy_stable_under_refinement():
    problem, _ = heat_problem()
    mesh = Mesh(31)
    vals = []
    for n_steps in (32, 64):
        grid = TimeGrid(1.0, n_steps)
        traj = pde_solve(problem, mesh, grid, StepScheme.RANDOMIZED_BACKWARD_EULER,
                         grid.random_nodes([NodeStream(SeedSpec(11, 0))]))
        vals.append(energy_bound_check(traj, problem).max_state_energy)
    assert abs(vals[1] - vals[0]) < 0.5 * vals[0]


def autonomous_problem():
    # the forcing ignores t and returns one value per quadrature point
    return PdeProblem(
        forcing=lambda t, x: np.sin(np.pi * x),
        nonlinearity=lambda u: u**3,
        nonlinearity_prime=lambda u: 3.0 * u**2,
        initial=lambda x: np.sin(np.pi * x) / np.pi**2,
        final_time=1.0,
    )


@pytest.mark.parametrize("problem_fn", [autonomous_problem, lambda: heat_problem()[0]])
@pytest.mark.parametrize("scheme", [StepScheme.RANDOMIZED_BACKWARD_EULER,
                                    StepScheme.CLASSICAL_BACKWARD_EULER])
def test_solve_equals_loop_of_steps(problem_fn, scheme):
    # the blocked loads of pde_solve must give each step exactly the load
    # pde_step assembles at that step's node, for a forcing with or
    # without t; 40 steps cover two full blocks and a partial one
    problem = problem_fn()
    mesh = Mesh(31)
    grid = TimeGrid(1.0, 40)
    nodes = one_row(grid, scheme, SeedSpec(5, 0))
    path = pde_solve(problem, mesh, grid, scheme, nodes)
    mass, stiff = assemble_mass(mesh), assemble_stiffness(mesh)
    u = path.fields[0, 0]
    for n, xi in enumerate(nodes[0].tolist(), start=1):
        u = pde_step(mass, stiff, grid.step_size, xi, u, problem).coefficients
        assert np.array_equal(u, path.fields[n, 0]), f"step {n}"


def swinging_problem():
    # a large forcing that swings with t: Newton takes 3 to 7 iterations,
    # with damped retries, and differently in every replica
    return PdeProblem(
        forcing=lambda t, x: 1000.0 * np.cos(40.0 * t) * np.sin(np.pi * x),
        nonlinearity=lambda u: u**3,
        nonlinearity_prime=lambda u: 3.0 * u**2,
        initial=lambda x: np.sin(np.pi * x),
        final_time=1.0,
    )


def test_batch_replicas_equal_single_solves():
    problem = swinging_problem()
    mesh = Mesh(31)
    grid = TimeGrid(1.0, 37)
    scheme = StepScheme.RANDOMIZED_BACKWARD_EULER
    replicas = range(2, 7)
    block = grid.random_nodes([NodeStream(SeedSpec(3, r)) for r in replicas])
    batch = pde_solve(problem, mesh, grid, scheme, block)
    assert batch.fields.shape == (38, 5, 31)
    assert batch.newton_iteration_counts.shape == (37, 5)
    counts = set()
    for col, r in enumerate(replicas):
        nodes = grid.random_nodes([NodeStream(SeedSpec(3, r))])
        alone = pde_solve(problem, mesh, grid, scheme, nodes)
        assert np.array_equal(batch.fields[:, col], alone.fields[:, 0])
        assert np.array_equal(batch.newton_iteration_counts[:, col],
                              alone.newton_iteration_counts[:, 0])
        assert np.array_equal(block[col], nodes[0])
        counts.add(tuple(alone.newton_iteration_counts[:, 0]))
    assert len(counts) == len(replicas)  # no two replicas iterated alike


def test_solve_rejects_empty_stream_batch():
    with pytest.raises(ValueError):
        pde_solve(zero_problem(), Mesh(7), TimeGrid(1.0, 4),
                  StepScheme.RANDOMIZED_BACKWARD_EULER, np.empty((0, 4)))


def test_classical_row_beside_replicas_equals_classical_alone():
    # as for the ODE: the row of grid points marches with randomized rows
    # and keeps its fields and Newton counts, and theirs stay as they were
    problem = swinging_problem()
    mesh = Mesh(31)
    grid = TimeGrid(1.0, 37)
    randomized = grid.random_nodes([NodeStream(SeedSpec(3, r)) for r in range(3)])
    block = np.concatenate([grid.nodes()[None, 1:], randomized])
    batch = pde_solve(problem, mesh, grid, StepScheme.CLASSICAL_BACKWARD_EULER, block)
    alone = pde_solve(problem, mesh, grid, StepScheme.CLASSICAL_BACKWARD_EULER,
                      grid.nodes()[None, 1:])
    assert np.array_equal(batch.fields[:, :1], alone.fields)
    assert np.array_equal(batch.newton_iteration_counts[:, :1],
                          alone.newton_iteration_counts)
    assert len(set(alone.newton_iteration_counts[:, 0].tolist())) > 1
    replicas = pde_solve(problem, mesh, grid, StepScheme.RANDOMIZED_BACKWARD_EULER,
                         randomized)
    assert np.array_equal(batch.fields[:, 1:], replicas.fields)
    assert np.array_equal(batch.newton_iteration_counts[:, 1:],
                          replicas.newton_iteration_counts)


# sha256 of fields.tobytes() and newton_iteration_counts.tobytes() of three
# damped rbe replicas and the be row, rendered before the ODE and PDE step
# loops were merged into one
PINNED_PDE_BITS = (
    "84ab2bf981e55974ab01980dbe95695ee92f5ab98d72f2af75b68810cb7419fe",
    "f89963a797bd4ea691d999c025c4cb3b6807621cab2dafb40eb1e673f3eaf559",
)


def test_pde_solve_bits_are_pinned():
    grid = TimeGrid(1.0, 37)
    randomized = grid.random_nodes([NodeStream(SeedSpec(3, r)) for r in range(3)])
    block = np.concatenate([randomized, grid.nodes()[None, 1:]])
    path = pde_solve(swinging_problem(), Mesh(31), grid,
                     StepScheme.RANDOMIZED_BACKWARD_EULER, block)
    assert path.fields.shape == (38, 4, 31)
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest()
                    for a in (path.fields, path.newton_iteration_counts))
    assert digests == PINNED_PDE_BITS
