import dataclasses
import math
from functools import partial

import numpy as np
import pytest

from randstep.harness import (
    ErrorMode,
    ErrorRow,
    ErrorTable,
    ExperimentSpec,
    fit_rate,
    render_error_csv,
    residual_study,
    run_mc,
)
from randstep.ode_solver import StepRestrictionViolated, StepScheme, StepSizeWarning

from oracles import fit_residual_slopes, grid_node, table_row

RBE = StepScheme.RANDOMIZED_BACKWARD_EULER
BE = StepScheme.CLASSICAL_BACKWARD_EULER


def _ode_setup(problem):
    """A stand-in for ``harness._setup`` that sweeps an ODE problem of a test."""
    from randstep import harness

    return lambda spec: (problem, partial(harness.solve, problem),
                         partial(harness._ode_errors, problem))


def _pde_setup(problem, mesh):
    """A stand-in for ``harness._setup`` that sweeps a PDE problem of a test."""
    from randstep import harness

    return lambda spec: (problem, partial(harness.pde_solve, problem, mesh),
                         partial(harness._pde_errors, problem, mesh))


def test_quadrature_identity_small():
    # desk-size version of the sqrt(1/12) identity; the full 10^5-replica
    # run lives in the acceptance suite
    spec = ExperimentSpec("time-integral", (RBE,), (0,), 5000, master_seed=1)
    row = run_mc(spec).rows[0]
    assert abs(row.rms_error_final - math.sqrt(1 / 12)) <= 3 * row.mc_stderr_final


def test_deterministic_scheme_zero_stderr():
    spec = ExperimentSpec(
        "prothero-robinson", (BE,), (4, 5), 16, master_seed=5,
        lam=2.0, sawtooth_exponent=6,
    )
    for row in run_mc(spec).rows:
        assert row.mc_stderr_final == 0.0


def test_zero_errors_reduce_to_exact_zero_rms():
    # a problem solved exactly (zero data) must report rms = 0, not a
    # rounded near-zero
    from randstep.fem1d import Mesh, l2_error
    from randstep.harness import _rms, _rms_stderr
    from randstep.pde_solver import PdeProblem, pde_solve
    from randstep.rand_nodes import TimeGrid

    zeros = np.zeros(7)
    assert _rms(zeros) == 0.0
    assert _rms_stderr(zeros) == 0.0

    problem = PdeProblem(
        forcing=lambda t, x: np.zeros_like(x),
        nonlinearity=lambda u: np.zeros_like(u),
        nonlinearity_prime=lambda u: np.zeros_like(u),
        initial=lambda x: np.zeros_like(x),
    )
    mesh = Mesh(9)
    grid = TimeGrid(4)
    traj = pde_solve(problem, mesh, RBE, grid.random_nodes(0, [0]))
    errs = np.array(
        [l2_error(mesh, f, lambda x: np.zeros_like(x)) for f in traj.states]
    )
    assert _rms(errs) == 0.0


def test_rms_of_finite_errors_whose_squares_overflow_is_finite():
    # below overflow the rms keeps its plain arithmetic, bit for bit;
    # above it the errors are scaled by the largest, with no warning
    import warnings

    from randstep.harness import _rms, _rms_stderr

    e = np.random.default_rng(0).random(9) * 1e150
    assert _rms(e) == float(np.sqrt(np.mean(e * e)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _rms(np.array([3e200, 4e200])) == pytest.approx(5e200 / math.sqrt(2), rel=1e-15)
        big = e * 1e50
        assert _rms(big) == pytest.approx(_rms(e) * 1e50, rel=1e-14)
        assert _rms_stderr(big) == pytest.approx(_rms_stderr(e) * 1e50, rel=1e-12)
    # a non-finite error stays non-finite
    assert _rms(np.array([1.0, np.inf])) == np.inf
    assert _rms_stderr(np.array([1.0, np.inf])) == np.inf
    assert math.isnan(_rms(np.array([1.0, np.nan])))


def test_fit_rate_exact_power_laws():
    rows1 = [
        ErrorRow("x", 2**n, 2.0**-n, 1, 0.37 * 2.0**-n, 0.37 * 2.0**-n, 0.0, 1.0)
        for n in range(3, 9)
    ]
    fit = fit_rate(ErrorTable(rows1), "x", (3, 8))
    assert abs(fit.slope - 1.0) < 1e-12
    assert fit.residual < 1e-12

    rows_half = [
        ErrorRow("x", 2**n, 2.0**-n, 1, 2.0 * (2.0**-n) ** 0.5,
                 2.0 * (2.0**-n) ** 0.5, 0.0, 1.0)
        for n in range(3, 9)
    ]
    assert abs(fit_rate(ErrorTable(rows_half), "x", (3, 8)).slope - 0.5) < 1e-12


def test_fit_rate_guards():
    rows = [ErrorRow("x", 2**n, 2.0**-n, 1, 0.0, 0.0, 0.0, 1.0) for n in (3, 4)]
    with pytest.raises(ValueError, match="nonpositive"):
        fit_rate(ErrorTable(rows), "x", (3, 4))
    with pytest.raises(ValueError):
        fit_rate(ErrorTable(rows), "x", (5, 9))


def test_fit_rate_rejects_infinite_error():
    # an rfe blow-up can write inf errors; the fit must refuse, not return nan
    rows = [
        ErrorRow("x", 2**n, 2.0**-n, 1, err, err, 0.0, 1.0)
        for n, err in ((3, 0.5), (4, math.inf), (5, 0.125))
    ]
    with pytest.raises(ValueError, match="non-finite"):
        fit_rate(ErrorTable(rows), "x", (3, 5))


def test_mc_stderr_halves_with_quadrupled_replicas():
    small = ExperimentSpec("time-integral", (RBE,), (0,), 400, master_seed=7)
    large = ExperimentSpec("time-integral", (RBE,), (0,), 1600, master_seed=7)
    e_small = run_mc(small).rows[0].mc_stderr_final
    e_large = run_mc(large).rows[0].mc_stderr_final
    assert 0.35 <= e_large / e_small <= 0.65


def test_bitwise_reproducible_and_worker_invariant():
    spec = ExperimentSpec(
        "prothero-robinson", (RBE, BE), (4, 5, 6), 8, master_seed=42,
        lam=2.0, sawtooth_exponent=6,
    )
    first = render_error_csv(run_mc(spec, workers=1))
    second = render_error_csv(run_mc(spec, workers=1))
    with_pool = render_error_csv(run_mc(spec, workers=4))
    assert first == second
    assert first == with_pool


def test_restriction_checked_before_sweep():
    # k*nu = 2 at n = 0 is refused where the sweep is specified
    def spec(schemes):
        return ExperimentSpec("prothero-robinson", schemes, (0, 1), 2, master_seed=0,
                              lam=2.0, sawtooth_exponent=4)

    with pytest.raises(StepRestrictionViolated, match=r"k\*nu = 2 >= 1 at k = 1; "):
        spec((RBE,))
    # the explicit scheme and the residual study solve no implicit step
    spec((StepScheme.RANDOMIZED_FORWARD_EULER,))
    spec(())


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec("prothero-robinson", (RBE,), (5, 4), 2, sawtooth_exponent=6)
    with pytest.raises(ValueError):
        ExperimentSpec("prothero-robinson", (RBE,), (4,), 0, sawtooth_exponent=6)
    with pytest.raises(ValueError):
        ExperimentSpec("nonsense", (RBE,), (4,), 2)
    with pytest.raises(ValueError):
        ExperimentSpec("semilinear-heat", (RBE,), (4,), 2, sawtooth_exponent=5)
    with pytest.raises(ValueError):
        ExperimentSpec(
            "semilinear-heat",
            (StepScheme.RANDOMIZED_FORWARD_EULER,),
            (4,), 2, sawtooth_exponent=5, mesh_dof=15,
        )
    with pytest.raises(ValueError, match="once"):
        ExperimentSpec("time-integral", (RBE, BE, RBE), (0,), 2)
    # int(1.5) is 1, but a stream keyed by 1.5 does not exist
    with pytest.raises(ValueError, match="integers"):
        ExperimentSpec("time-integral", (RBE,), (2,), 2, master_seed=1.5)
    # operator.index(True) is 1: a bool seed once ran as seed 1
    with pytest.raises(ValueError, match="integers"):
        ExperimentSpec("time-integral", (RBE,), (2,), 2, master_seed=True)
    # replica counts and step exponents likewise: True once ran as one
    # replica (each row reporting replicas=True) or as n = 1, and 2.5
    # replicas died with a TypeError in the planner
    for replicas in (True, 2.5, "2"):
        with pytest.raises(ValueError, match="mc_replicas must be an integer"):
            ExperimentSpec("time-integral", (RBE,), (2,), replicas)
    for exponents in ((True, 2), (1, 2.5), (np.bool_(True),)):
        with pytest.raises(ValueError, match="step exponents must be integers"):
            ExperimentSpec("time-integral", (RBE,), exponents, 2)
    assert ExperimentSpec("time-integral", (RBE,), (np.int64(2),), np.int64(2)).mc_replicas == 2
    # and the sawtooth exponent and mesh size: True was taken as 1, and 2.5
    # died with a bare TypeError
    for name, value in (("sawtooth_exponent", True), ("sawtooth_exponent", 2.5),
                        ("mesh_dof", True), ("mesh_dof", 2.5)):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            ExperimentSpec("semilinear-heat", (RBE,), (2,), 2,
                           **{"sawtooth_exponent": 3, "mesh_dof": 7, name: value})
    for problem in ("semilinear-heat", "prothero-robinson"):
        with pytest.raises(ValueError, match=f"{problem} needs sawtooth_exponent"):
            ExperimentSpec(problem, (RBE,), (2,), 2, mesh_dof=7)
    for problem, exponent in (("semilinear-heat", 70), ("prothero-robinson", 0)):
        with pytest.raises(ValueError, match="sawtooth exponent must be in 1..53"):
            ExperimentSpec(problem, (RBE,), (2,), 2, sawtooth_exponent=exponent,
                           mesh_dof=7)
    # every parameter is checked by building the problem, before any sweep
    with pytest.raises(ValueError, match="lambda must be finite"):
        ExperimentSpec("prothero-robinson", (RBE,), (2,), 2, lam=float("nan"),
                       sawtooth_exponent=4)
    for cap, power in ((1e300, 4.0), (10.0, 1e6)):
        with pytest.raises(ValueError, match="Lipschitz"):
            ExperimentSpec("semilinear-heat", (RBE,), (2,), 2, sawtooth_exponent=3,
                           cap=cap, power=power, mesh_dof=7)


def test_error_modes_both_populated():
    spec = ExperimentSpec(
        "prothero-robinson", (RBE,), (4,), 4, master_seed=3,
        lam=2.0, sawtooth_exponent=6,
    )
    row = run_mc(spec).rows[0]
    assert row.rms_error_max >= row.rms_error_final > 0.0
    assert row.error(ErrorMode.FINAL_TIME) == row.rms_error_final
    assert row.error(ErrorMode.MAX_OVER_GRID) == row.rms_error_max


def test_residual_study_state_independent_mean_zero():
    rows = residual_study(ExperimentSpec("time-integral", (), (3, 4, 5), 8))
    for row in rows:
        assert row.mean_residual < 1e-15
        assert row.rms_residual > 0.0
    # a zero mean column has no log-log slope: the fit refuses, not NaN
    with pytest.raises(ValueError, match="nonpositive mean_residual"):
        fit_residual_slopes(rows, (3, 5))


def test_residual_study_blocks_do_not_change_bits(monkeypatch):
    # one replica per block is the per-replica loop; 70 replicas in blocks
    # of 7 or of the default size (a full block and a partial one) must
    # give the same bits
    from randstep import harness

    spec = ExperimentSpec("prothero-robinson", (), (2, 5, 7), 70, master_seed=9,
                          lam=2.0, sawtooth_exponent=6)
    assert harness.RESIDUAL_BLOCK < 70
    default = residual_study(spec)
    for block in (1, 7):
        monkeypatch.setattr(harness, "RESIDUAL_BLOCK", block)
        assert residual_study(spec) == default
    with pytest.raises(ValueError, match="at least one replica"):
        ExperimentSpec("prothero-robinson", (), (2, 5), 0, sawtooth_exponent=6)
    # the PDE has no scalar rhs: an AttributeError from inside the study
    pde = ExperimentSpec("semilinear-heat", (), (2, 3), 2, sawtooth_exponent=3, mesh_dof=7)
    with pytest.raises(ValueError, match="needs an ODE problem, not semilinear-heat"):
        residual_study(pde)


# --- desk-scale sweeps (session fixtures, shared with acceptance) ---


def test_fig1_left_scheme_ordering(fig1_left_desk):
    table, _, _ = fig1_left_desk
    for n in range(4, 9):  # pre-resolution window
        rbe, be = (table_row(table, s, n).rms_error_final for s in ("rbe", "be"))
        assert rbe < be


def test_fig1_left_drastic_improvement_at_resolution(fig1_left_desk):
    table, _, _ = fig1_left_desk
    for scheme in ("rbe", "be"):
        before = table_row(table, scheme, 9).rms_error_final
        after = table_row(table, scheme, 10).rms_error_final
        assert before / after >= 4.0


def test_fig1_right_amplification_structure(fig1_right_desk):
    table, summary = fig1_right_desk
    amp = summary["amplification_by_exponent"]
    assert amp[11] == 0.51171875  # quoted as 0.512
    for n in range(5, 9):
        assert amp[n] > 1.0
        assert table_row(table, "rfe", n).rms_error_final > 1e3
    for n in (9, 10, 11, 12):
        assert amp[n] < 1.0


def test_fig2_newton_counts_reported(fig2_desk):
    table, _, _ = fig2_desk
    for row in table.rows:
        assert 1.0 <= row.mean_newton_iters <= 3.0


def test_residual_study_columns_scale(residual_rows_desk):
    rows = residual_rows_desk
    path_slope, mean_slope = fit_residual_slopes(rows, (4, 7))
    assert 0.3 <= path_slope <= 0.7
    assert mean_slope >= 0.8
    # the resolved point n = K collapses far below the sqrt(k) trend
    by_n = {r.exponent: r.rms_residual for r in rows}
    assert by_n[8] < 0.1 * by_n[7]


def test_failing_replica_named_in_experiment_error(monkeypatch):
    # x = u + k*(x^2 + 10) has no root at k = 1/4; the rhs switches to it
    # only at replica 5's node of step 2, so exactly one replica fails
    from randstep import harness
    from randstep.ode_solver import OdeProblem
    from randstep.rand_nodes import NodeStream, TimeGrid

    grid = TimeGrid(4)
    tau = NodeStream(42, [5]).taus(4)[1]
    target = grid_node(grid, 1) + grid.step_size * tau

    def rhs(t, x):
        return np.where(t == target, x * x + 10.0, -x)

    problem = OdeProblem(rhs, 1.0, lambda t, x: np.where(t == target, 2.0 * x, -1.0),
                         exact=lambda t: 0.0 * t)
    monkeypatch.setattr(harness, "_setup", _ode_setup(problem))
    spec = ExperimentSpec("time-integral", (RBE,), (2,), 8, master_seed=42)
    with pytest.raises(harness.ExperimentError) as err:
        harness._chunk(spec, (RBE,), (2,), 3, 8)
    assert str(err.value).startswith("scheme=rbe k=2^-2 replica=5 step=2: ")


def test_failing_pde_replica_named_in_experiment_error(monkeypatch):
    # the forcing is NaN only at replica 5's node of step 2, so Newton
    # fails for that one replica of the batch of replicas 3..7
    from randstep import harness
    from randstep.fem1d import Mesh
    from randstep.pde_solver import PdeProblem
    from randstep.rand_nodes import NodeStream, TimeGrid

    grid = TimeGrid(4)
    tau = NodeStream(42, [5]).taus(4)[1]
    target = grid_node(grid, 1) + grid.step_size * tau

    problem = PdeProblem(
        forcing=lambda t, x: np.where(t == target, np.nan, 0.0) + 0.0 * x,
        nonlinearity=lambda u: u**3,
        nonlinearity_prime=lambda u: 3.0 * u**2,
        initial=lambda x: np.zeros_like(x),
        exact=lambda t, x: 0.0 * t * x,
    )
    monkeypatch.setattr(harness, "_setup", _pde_setup(problem, Mesh(7)))
    spec = ExperimentSpec("semilinear-heat", (RBE,), (2,), 8, master_seed=42,
                          sawtooth_exponent=3, mesh_dof=7)
    with pytest.raises(harness.ExperimentError) as err:
        harness._chunk(spec, (RBE,), (2,), 3, 8)
    assert str(err.value).startswith("scheme=rbe k=2^-2 replica=5 step=2: ")


def test_pde_chunk_in_several_batches_matches_one_batch(monkeypatch):
    # a group whose rows pass PDE_BATCH_UNKNOWNS is planned as several
    # batch tasks, by replicas and by step sizes; that must not change any
    # replica's errors
    from randstep import harness

    spec = ExperimentSpec("semilinear-heat", (RBE,), (2, 3), 5, master_seed=42,
                          sawtooth_exponent=3, mesh_dof=15)

    def cell():
        tasks = harness._plan(spec)
        parts = [harness._chunk(spec, *task) for task in tasks]
        return tasks, {n: [np.concatenate(e) for e in
                           zip(*(p[RBE, n] for p in parts if (RBE, n) in p))]
                       for n in (2, 3)}

    tasks, whole = cell()
    assert tasks == [((RBE,), (2, 3), 0, 5)]
    # room for two replicas of 15 unknowns per batch, at one step size
    monkeypatch.setattr(harness, "PDE_BATCH_UNKNOWNS", 2 * 15)
    tasks, split = cell()
    assert tasks == [((RBE,), (n,), lo, min(lo + 2, 5)) for n in (2, 3) for lo in (0, 2, 4)]
    for n in (2, 3):
        for a, b in zip(whole[n], split[n]):
            assert a.shape == (5,)
            assert np.array_equal(a, b)


def test_pde_batches_capped_by_unknowns():
    # a paper-shaped group (dof 500) is planned in batches of 8192 // 500 =
    # 16 replicas, the be row in the first, and 17 rows of 500 unknowns
    # fill a batch at one step size; so do the 51 rows of desk fig2 at dof
    # 127.  The pde-heat shape, 4 rows of 127 unknowns, marches all 7 step
    # sizes in one lockstep batch, and 10 replicas 5 of them, finest first.
    from randstep import harness

    def plan(exponents, replicas, dof):
        return harness._plan(ExperimentSpec(
            "semilinear-heat", (RBE, BE), exponents, replicas, master_seed=42,
            sawtooth_exponent=7, mesh_dof=dof))

    exponents = tuple(range(4, 12))
    assert plan(exponents, 200, 500) == [
        ((RBE, BE) if lo == 0 else (RBE,), (n,), lo, min(lo + 16, 200))
        for n in exponents for lo in range(0, 200, 16)]
    assert plan((3, 9), 50, 127) == [((RBE, BE), (3,), 0, 50), ((RBE, BE), (9,), 0, 50)]
    heat = tuple(range(3, 10))
    assert plan(heat, 3, 127) == [((RBE, BE), heat, 0, 3)]
    assert plan(heat, 10, 127) == [((RBE, BE), (3, 4), 0, 10),
                                   ((RBE, BE), (5, 6, 7, 8, 9), 0, 10)]


@pytest.mark.parametrize("problem, schemes", [
    ("prothero-robinson", (RBE, BE)),
    ("prothero-robinson", (StepScheme.RANDOMIZED_FORWARD_EULER,)),
    ("semilinear-heat", (RBE, BE)),
], ids=["ode-rbe-be", "ode-rfe", "pde-rbe-be"])
def test_lockstep_chunk_equals_each_step_size_alone(problem, schemes):
    # a lockstep batch of n = 2, 3 and 7, whose coarse rows retire inside
    # the first block of steps, gives every row the errors and Newton
    # means of its step size marched alone
    from randstep import harness

    spec = ExperimentSpec(problem, schemes, (2, 3, 7), 3, master_seed=42, lam=-2.0,
                          sawtooth_exponent=3, mesh_dof=7)
    lockstep = harness._chunk(spec, schemes, (2, 3, 7), 0, 3)
    assert sorted(lockstep, key=str) == sorted(
        ((s, n) for s in schemes for n in (2, 3, 7)), key=str)
    for n in (2, 3, 7):
        alone = harness._chunk(spec, schemes, (n,), 0, 3)
        for scheme in schemes:
            for a, b in zip(lockstep[scheme, n], alone[scheme, n]):
                assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("schemes, exponents, replicas, exact", [
    ((RBE, BE), tuple(range(4, 13)), 20, True),
    ((RBE, BE), tuple(range(4, 11)), 200, True),
    ((StepScheme.RANDOMIZED_FORWARD_EULER,), (4, 5, 6), 1, False),
], ids=["ode-stiff", "desk-fig1", "one-row"])
def test_memory_refusal_prices_the_largest_block(monkeypatch, schemes, exponents,
                                                 replicas, exact):
    # ExperimentSpec refuses a sweep by _task_bytes, so it must price at
    # least the largest block that a task's march freezes: ode-stiff's 21
    # rows march 390 steps a block (8190 row-steps, FREEZE_FLOOR), desk
    # fig1's 201 rows FREEZE_BLOCK steps, and a lone row's widest block,
    # 16 steps of 3 rows, is below the 64 steps of it that are priced
    from randstep import harness

    spec = ExperimentSpec("prothero-robinson", schemes, exponents, replicas,
                          master_seed=42, sawtooth_exponent=10)
    problem, sizes = harness._setup(spec)[0], []

    def freeze(t):
        sizes.append(t.size)
        return problem.freeze(t)

    counted = dataclasses.replace(problem, freeze=freeze)
    monkeypatch.setattr(harness, "_setup", _ode_setup(counted))
    for task in harness._plan(spec):
        sizes.clear()
        harness._chunk(spec, *task)
        priced = harness._task_bytes(spec, task) - 8 * harness._task_size(task)
        largest = 8 * harness.BLOCK_TEMPORARIES * max(sizes)
        assert largest == priced if exact else largest < priced


def test_batch_draws_its_nodes_once(monkeypatch):
    # one NodeStream draws a batch's replicas once, at its finest step
    # size; every step size's block is the one its grid draws alone.  A
    # batch without a randomized scheme draws nothing.
    from randstep import harness, rand_nodes
    from randstep.rand_nodes import TimeGrid

    with pytest.warns(StepSizeWarning):  # k*nu is 1/2 and 1/4 at n = 2 and 3
        spec = ExperimentSpec("prothero-robinson", (RBE, BE), (2, 3, 7), 8, master_seed=42,
                              sawtooth_exponent=3)
    alone = {n: TimeGrid(2**n).random_nodes(42, range(3, 8)) for n in (2, 3, 7)}
    streams = []

    class Counted(rand_nodes.NodeStream):
        def __init__(self, master_seed, replicas):
            streams.append(list(replicas))
            super().__init__(master_seed, replicas)

    monkeypatch.setattr(rand_nodes, "NodeStream", Counted)
    cells = harness._batch_nodes(spec, (RBE, BE), (2, 3, 7), 3, 8)
    assert streams == [[3, 4, 5, 6, 7]]
    assert [cell[:2] for cell in cells] == [(n, s) for n in (7, 3, 2) for s in (RBE, BE)]
    for n, scheme, nodes in cells:
        if scheme is RBE:
            assert nodes.tobytes() == alone[n].tobytes()
        else:
            assert nodes.tobytes() == TimeGrid(2**n).nodes()[None, 1:].tobytes()
    streams.clear()
    harness._batch_nodes(spec, (BE,), (2, 3, 7), 0, 0)
    assert streams == []


def test_batch_nodes_map_the_finest_draws_in_place():
    # the batch's traced peak is its node blocks and a small margin (numpy's
    # 64 KiB ufunc buffer and the stream's keys); a finest block mapped out
    # of place would add its 256 KiB of draws
    import tracemalloc

    from randstep import harness

    with pytest.warns(StepSizeWarning):  # k*nu is 1/2 and 1/4 at n = 2 and 3
        spec = ExperimentSpec("prothero-robinson", (RBE, BE), (2, 3, 7), 256, master_seed=42,
                              sawtooth_exponent=3)
    harness._batch_nodes(spec, (RBE,), (2, 3, 7), 0, 256)
    tracemalloc.start()
    try:
        cells = harness._batch_nodes(spec, (RBE,), (2, 3, 7), 0, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nbytes = sum(nodes.nbytes for _, _, nodes in cells)
    assert nbytes == 8 * 256 * (4 + 8 + 128)
    assert peak <= nbytes + 128 * 1024


def test_sweep_reducer_counts_lockstep_steps_and_every_rows_iterations():
    # the sweep's reducer keeps no (N, R) array: its Newton counts are one
    # total per lockstep step, over every row of the batch
    from randstep import harness

    spec = ExperimentSpec("semilinear-heat", (RBE, BE), (2, 3, 5), 2, master_seed=42,
                          sawtooth_exponent=3, mesh_dof=7)
    problem, march, errors = harness._setup(spec)
    cells = harness._batch_nodes(spec, (RBE, BE), (2, 3, 5), 0, 2)
    nodes = [c[2] for c in cells]
    reduced = march(RBE, nodes, harness._RowErrors(errors, (2, 3, 5), 3))
    path = march(RBE, nodes)
    assert reduced.newton_iteration_counts.shape == (32,)
    assert np.array_equal(reduced.newton_iteration_counts,
                          path.newton_iteration_counts.sum(axis=1))
    assert np.array_equal(reduced.iterations, path.newton_iteration_counts.sum(axis=0))


def test_failing_classical_row_named_in_experiment_error(monkeypatch):
    # x = u + k*(x^2 + 10) has no root at k = 1/4; the rhs switches to it
    # only at the grid point t_2, which only the classical row evaluates
    from randstep import harness
    from randstep.ode_solver import OdeProblem

    def rhs(t, x):
        return np.where(t == 0.5, x * x + 10.0, -x)

    problem = OdeProblem(rhs, 1.0, lambda t, x: np.where(t == 0.5, 2.0 * x, -1.0),
                         exact=lambda t: 0.0 * t)
    monkeypatch.setattr(harness, "_setup", _ode_setup(problem))
    spec = ExperimentSpec("time-integral", (RBE, BE), (2,), 8, master_seed=42)
    with pytest.raises(harness.ExperimentError) as err:
        run_mc(spec)
    assert str(err.value).startswith("scheme=be k=2^-2 replica=0 step=2: ")


def test_failing_classical_pde_row_named_in_experiment_error(monkeypatch):
    from randstep import harness
    from randstep.fem1d import Mesh
    from randstep.pde_solver import PdeProblem

    problem = PdeProblem(
        forcing=lambda t, x: np.where(t == 0.5, np.nan, 0.0) + 0.0 * x,
        nonlinearity=lambda u: u**3,
        nonlinearity_prime=lambda u: 3.0 * u**2,
        initial=lambda x: np.zeros_like(x),
        exact=lambda t, x: 0.0 * t * x,
    )
    monkeypatch.setattr(harness, "_setup", _pde_setup(problem, Mesh(7)))
    spec = ExperimentSpec("semilinear-heat", (RBE, BE), (2,), 8, master_seed=42,
                          sawtooth_exponent=3, mesh_dof=7)
    with pytest.raises(harness.ExperimentError) as err:
        run_mc(spec)
    assert str(err.value).startswith("scheme=be k=2^-2 replica=0 step=2: ")


@pytest.mark.parametrize("problem", ["prothero-robinson", "semilinear-heat"])
def test_fused_chunk_equals_separate_chunks(problem):
    # a chunk that marches rbe and be as one batch gives each scheme the
    # errors of the chunks that march them apart
    from randstep import harness

    spec = ExperimentSpec(problem, (RBE, BE), (4,), 5, master_seed=42,
                          sawtooth_exponent=3, mesh_dof=15)
    fused = harness._chunk(spec, (RBE, BE), (4,), 0, 5)
    assert list(fused) == [(RBE, 4), (BE, 4)]
    for scheme, lo, hi in ((RBE, 0, 5), (BE, 0, 0)):
        alone = harness._chunk(spec, (scheme,), (4,), lo, hi)[scheme, 4]
        for a, b in zip(fused[scheme, 4], alone):
            assert a.shape == (hi - lo if scheme is RBE else 1,)
            assert np.array_equal(a, b)


def test_split_pde_cell_worker_invariant(monkeypatch):
    # the classical row rides in the first of a group's batch tasks; at one
    # worker or two the CSV is the one of the unsplit group
    from randstep import harness

    spec = ExperimentSpec("semilinear-heat", (RBE, BE), (2, 3), 5, master_seed=42,
                          sawtooth_exponent=3, mesh_dof=15)
    whole = render_error_csv(run_mc(spec, workers=1))
    # room for two replicas per batch, at one step size
    monkeypatch.setattr(harness, "PDE_BATCH_UNKNOWNS", 2 * 15)
    assert len(harness._plan(spec)) == 6
    assert render_error_csv(run_mc(spec, workers=1)) == whole
    assert render_error_csv(run_mc(spec, workers=2)) == whole


def test_split_pde_failure_in_second_batch_worker_invariant(monkeypatch):
    # the forcing is NaN only at replica 3's node of step 2 at n = 3; with
    # two replicas per batch that row is in the second replica batch of
    # the n = 3 step size, and one worker and two name the same cell
    from randstep import harness
    from randstep.fem1d import Mesh
    from randstep.pde_solver import PdeProblem
    from randstep.rand_nodes import TimeGrid

    target = TimeGrid(8).random_nodes(42, [3])[0, 1]
    problem = PdeProblem(
        forcing=lambda t, x: np.where(t == target, np.nan, 0.0) + 0.0 * x,
        nonlinearity=lambda u: u**3,
        nonlinearity_prime=lambda u: 3.0 * u**2,
        initial=lambda x: np.zeros_like(x),
        exact=lambda t, x: 0.0 * t * x,
    )
    monkeypatch.setattr(harness, "_setup", _pde_setup(problem, Mesh(7)))
    spec = ExperimentSpec("semilinear-heat", (RBE,), (2, 3), 5, master_seed=42,
                          sawtooth_exponent=3, mesh_dof=7)
    # room for two replicas per batch, at one step size
    monkeypatch.setattr(harness, "PDE_BATCH_UNKNOWNS", 2 * 7)
    assert harness._plan(spec)[3:5] == [((RBE,), (3,), 0, 2), ((RBE,), (3,), 2, 4)]
    harness._chunk(spec, (RBE,), (3,), 0, 2)
    messages = []
    for workers in (1, 2):
        with pytest.raises(harness.ExperimentError) as err:
            run_mc(spec, workers=workers)
        messages.append(str(err.value))
    assert messages[0].startswith("scheme=rbe k=2^-3 replica=3 step=2: ")
    assert messages[1] == messages[0]


def test_two_failing_cells_raise_the_in_process_error(monkeypatch):
    # be fails at t = 1/8, the first step of the n = 3 cell, and, after a
    # pause, at t = 3/4, step 3 of the n = 2 cell.  A pool finishes n = 3
    # first, yet must raise the n = 2 error, as one worker does.
    import time

    from randstep import harness
    from randstep.ode_solver import OdeProblem

    paused = []

    def rhs(t, x):
        if np.any(t == 0.75) and not paused:
            paused.append(True)
            time.sleep(0.5)
        return np.where((t == 0.125) | (t == 0.75), x * x + 10.0, -x)

    def jacobian(t, x):
        return np.where((t == 0.125) | (t == 0.75), 2.0 * x, -1.0)

    problem = OdeProblem(rhs, 1.0, jacobian, exact=lambda t: 0.0 * t)
    monkeypatch.setattr(harness, "_setup", _ode_setup(problem))
    spec = ExperimentSpec("time-integral", (BE,), (2, 3), 2, master_seed=42)
    messages = []
    for workers in (1, 2):
        paused.clear()
        with pytest.raises(harness.ExperimentError) as err:
            run_mc(spec, workers=workers)
        messages.append(str(err.value))
    assert messages[0].startswith("scheme=be k=2^-2 replica=0 step=3: ")
    assert messages[1] == messages[0]


def test_pool_only_for_several_tasks(monkeypatch):
    # a pool gets min(workers, tasks) processes, and none for one task
    import concurrent.futures

    from randstep import harness

    pools = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    # _run_tasks imports the pool from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    # the classical scheme alone at one step size is one task at any
    # worker count
    one = ExperimentSpec("time-integral", (BE,), (3,), 4, master_seed=1)
    assert harness._plan(one, 4) == [((BE,), (3,), 0, 0)]
    run_mc(one, workers=4)
    assert pools == []
    # every step size of the implicit group is one lockstep task; a pool
    # of two marches the finest apart, and of three also shares of the
    # replicas
    two = ExperimentSpec("time-integral", (RBE, BE), (2, 3, 4), 4, master_seed=1)
    assert harness._plan(two) == [((RBE, BE), (2, 3, 4), 0, 4)]
    assert harness._plan(two, 2) == [((RBE, BE), (2, 3), 0, 4), ((RBE, BE), (4,), 0, 4)]
    assert harness._plan(two, 3) == [
        ((RBE, BE), (2, 3), 0, 2), ((RBE,), (2, 3), 2, 4),
        ((RBE, BE), (4,), 0, 2), ((RBE,), (4,), 2, 4)]
    assert render_error_csv(run_mc(two, workers=2)) == render_error_csv(run_mc(two))
    assert pools == [2]
    # the explicit scheme is a group of its own, so two groups fill a pool
    # of two, and a pool of four marches each group's finest step apart
    three = ExperimentSpec("time-integral", (RBE, StepScheme.RANDOMIZED_FORWARD_EULER),
                           (3, 4), 4, master_seed=1)
    assert harness._plan(three, 2) == harness._plan(three)
    assert len(harness._plan(three)) == 2
    assert len(harness._plan(three, 4)) == 4
    assert render_error_csv(run_mc(three, workers=4)) == render_error_csv(run_mc(three))
    assert pools == [2, 4]


def test_pool_shares_raise_the_in_process_error(monkeypatch):
    # rbe fails at replica 3's first node at n = 2 and at replica 0's
    # first node at n = 3.  One batch reports the coarser cell; a pool of
    # three marches n = 2, 3 in two replica shares, the first of which
    # meets only the n = 3 failure, and must report it too.
    from randstep import harness
    from randstep.ode_solver import OdeProblem
    from randstep.rand_nodes import TimeGrid

    bad = [TimeGrid(4).random_nodes(42, [3])[0, 0], TimeGrid(8).random_nodes(42, [0])[0, 0]]

    def rhs(t, x):
        return np.where(np.isin(t, bad), x * x + 10.0, -x)

    def jacobian(t, x):
        return np.where(np.isin(t, bad), 2.0 * x, -1.0)

    problem = OdeProblem(rhs, 1.0, jacobian, exact=lambda t: 0.0 * t)
    monkeypatch.setattr(harness, "_setup", _ode_setup(problem))
    spec = ExperimentSpec("time-integral", (RBE,), (2, 3, 4), 4, master_seed=42)
    assert harness._plan(spec, 3)[:2] == [((RBE,), (2, 3), 0, 2), ((RBE,), (2, 3), 2, 4)]
    with pytest.raises(harness.ExperimentError) as err:
        harness._chunk(spec, (RBE,), (2, 3), 0, 2)
    assert str(err.value).startswith("scheme=rbe k=2^-3 replica=0 step=1: ")
    messages = []
    for workers in (1, 3):
        with pytest.raises(harness.ExperimentError) as err:
            run_mc(spec, workers=workers)
        messages.append(str(err.value))
    assert messages[0].startswith("scheme=rbe k=2^-2 replica=3 step=1: ")
    assert messages[1] == messages[0]


def test_default_workers_counts_usable_cores(monkeypatch):
    from randstep import harness

    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
    assert harness.default_workers() == 1
    monkeypatch.delattr(harness.os, "sched_getaffinity")
    assert harness.default_workers() == 8
