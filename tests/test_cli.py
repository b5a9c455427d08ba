import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import randstep
from randstep import harness
from randstep.cli import main
from randstep.harness import (
    FIGURES,
    ErrorMode,
    fit_rate,
    rate_windows,
    read_error_csv,
    render_error_csv,
    render_rate_csv,
)
from randstep.ode_solver import StepScheme, StepSizeWarning, solve
from randstep.problems import (
    ProtheroRobinsonSpec,
    SawtoothSpec,
    prothero_robinson_problem,
    sawtooth_g,
    sawtooth_gdot,
)
from randstep.rand_nodes import TimeGrid


def test_ode_sweep_row_count(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = main(
        [
            "ode", "--problem", "prothero-robinson", "--lambda", "2", "--K", "10",
            "--scheme", "rbe", "--n", "4:12", "--mc", "3", "--seed", "42",
            "--workers", "1", "--out", str(out),
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("config:")  # resolved config echoed
    table = read_error_csv(out)
    assert len(table.for_scheme("rbe")) == 9
    assert out.read_text().count("\n") == 10  # header + 9 rows


def test_rates_pipeline(tmp_path, capsys):
    table = tmp_path / "t.csv"
    rates = tmp_path / "r.csv"
    assert main(
        [
            "ode", "--problem", "prothero-robinson", "--K", "8",
            "--scheme", "rbe,be", "--n", "4:7", "--mc", "4", "--seed", "1",
            "--workers", "1", "--out", str(table),
        ]
    ) == 0
    assert main(
        ["rates", "--in", str(table), "--scheme", "rbe", "--window", "4:7",
         "--out", str(rates)]
    ) == 0
    text = rates.read_text().splitlines()
    assert text[0] == "scheme,window_lo,window_hi,slope,intercept,residual"
    assert text[1].startswith("rbe,4,7,")


def test_rerun_is_byte_identical(tmp_path):
    args = [
        "ode", "--problem", "time-integral", "--scheme", "rbe", "--n", "0:3",
        "--mc", "16", "--seed", "5", "--workers", "1",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_usage_error_exit_code():
    assert main(["ode", "--problem", "prothero-robinson"]) == 1  # missing flags
    assert main(["ode", "--problem", "bogus", "--scheme", "rbe", "--n", "4:5",
                 "--out", "x.csv"]) == 1
    assert main(["nonsense"]) == 1


def test_numerical_failure_exit_code(tmp_path):
    # k*nu >= 1 at n=0 with lambda=2
    code = main(
        ["ode", "--problem", "prothero-robinson", "--lambda", "2", "--K", "4",
         "--scheme", "rbe", "--n", "0:2", "--mc", "2", "--workers", "1",
         "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2


def test_env_var_overrides_seed(tmp_path, monkeypatch):
    base = ["ode", "--problem", "time-integral", "--scheme", "rbe", "--n", "0:1",
            "--mc", "8", "--workers", "1"]
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    assert main(base + ["--seed", "1", "--out", str(a)]) == 0
    monkeypatch.setenv("RANDSTEP_SEED", "2")
    assert main(base + ["--seed", "1", "--out", str(b)]) == 0
    monkeypatch.delenv("RANDSTEP_SEED")
    assert main(base + ["--seed", "2", "--out", str(c)]) == 0
    assert a.read_bytes() != b.read_bytes()
    assert b.read_bytes() == c.read_bytes()


def test_pde_subcommand(tmp_path):
    out = tmp_path / "pde.csv"
    code = main(
        ["pde", "--problem", "semilinear-heat", "--scheme", "be", "--K", "4",
         "--dof", "15", "--n", "2:4", "--mc", "2", "--seed", "3",
         "--workers", "1", "--out", str(out)]
    )
    assert code == 0
    assert len(read_error_csv(out).rows) == 3


def test_pde_one_unknown_mesh(tmp_path):
    # one interior node: the tridiagonal solve is a division and the
    # bands have no off-diagonal; one worker and two write the same bytes
    tables = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.csv"
        assert main(
            ["pde", "--problem", "semilinear-heat", "--scheme", "rbe,be", "--K", "3",
             "--dof", "1", "--n", "2:4", "--mc", "3", "--seed", "42",
             "--workers", workers, "--out", str(out)]
        ) == 0
        tables.append(out.read_bytes())
    assert tables[0] == tables[1]
    rows = read_error_csv(tmp_path / "w1.csv").rows
    assert len(rows) == 6
    assert all(0.0 < r.rms_error_final < 1.0 for r in rows)


def test_pde_rejects_explicit_scheme(tmp_path):
    code = main(
        ["pde", "--problem", "semilinear-heat", "--scheme", "rfe", "--K", "4",
         "--dof", "15", "--n", "2:3", "--mc", "2", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 1


def test_residual_subcommand(tmp_path):
    out = tmp_path / "res.csv"
    code = main(
        ["residual", "--lambda", "2", "--K", "6", "--n", "3:5", "--mc", "10",
         "--seed", "7", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,k,rms_residual,mean_residual"
    assert len(lines) == 4


def test_help_documents_default_seed(capsys):
    assert main(["ode", "--help"]) == 0
    text = capsys.readouterr().out
    assert "42" in text and "RANDSTEP_SEED" in text


def _python(*args):
    """A fresh interpreter's run of ``args``; the child imports the package
    these tests import, installed or not."""
    src = str(Path(randstep.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entry_point():
    proc = _python("-m", "randstep", "--help")
    assert proc.returncode == 0
    assert "randstep" in proc.stdout


def test_cli_import_leaves_the_process_pool_unloaded():
    # only a sweep with --workers > 1 imports concurrent.futures.process
    proc = _python("-c", "import sys, randstep.cli; "
                   "print('concurrent.futures.process' in sys.modules)")
    assert proc.returncode == 0
    assert proc.stdout == "False\n"


def test_cli_import_loads_neither_node_draws_nor_scipy():
    # the pool's parent imports them only when it is about to fork
    proc = _python("-c", "import sys, randstep.cli; randstep.cli.build_parser(); "
                   "print('numpy.random' in sys.modules, 'scipy.linalg' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False False\n"


def test_one_worker_ode_sweep_never_loads_scipy(tmp_path):
    proc = _python("-c", "import sys, randstep.cli; randstep.cli.main(["
                   "'ode', '--problem', 'prothero-robinson', '--scheme', 'rbe,be,rfe', "
                   f"'--n', '3:5', '--mc', '2', '--workers', '1', '--out', '{tmp_path / 'x.csv'}']); "
                   "print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


#: Marches ``spec`` on two workers; each pool worker prints, at the entry
#: of each of its tasks, whether ``module`` is loaded.
_WORKER_PROBE = r"""
import os, sys
from randstep import harness
from randstep.harness import ExperimentSpec
from randstep.ode_solver import StepScheme

PARENT, CHUNK = os.getpid(), harness._chunk

def probe(spec, *task):
    if os.getpid() != PARENT:
        os.write(1, b"%r\n" % ({module!r} in sys.modules))  # one write per line
    return CHUNK(spec, *task)

harness._chunk = probe
harness.run_mc(ExperimentSpec({spec}), workers=2)
"""


@pytest.mark.parametrize("module, spec", [
    ("numpy.random", "'prothero-robinson', (StepScheme('rbe'), StepScheme('rfe')), (3, 4), 2, "
     "sawtooth_exponent=4"),
    ("scipy.linalg", "'semilinear-heat', (StepScheme('rbe'), StepScheme('be')), (2, 3), 2, "
     "sawtooth_exponent=3, mesh_dof=4096"),
], ids=["ode-node-draws", "pde-lapack"])
def test_pool_workers_inherit_what_their_tasks_import(module, spec):
    # the parent imports it before the pool forks; each worker used to
    # import it again at its first task, in every pooled sweep
    proc = _python("-c", _WORKER_PROBE.format(module=module, spec=spec))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["True", "True"]


def test_step_size_warning_once_per_step_size_at_every_worker_count(tmp_path):
    # k*nu >= 1/4 at n = 3 and 4: the sweep warns once for each, in the
    # process that plans it; each pool worker used to warn for its share
    # of the replicas
    stderr = {}
    for workers in ("1", "4"):
        proc = _python("-m", "randstep", "ode", "--problem", "prothero-robinson",
                       "--scheme", "rbe,be", "--n", "3:6", "--mc", "8", "--lambda", "7.99",
                       "--workers", workers, "--out", str(tmp_path / f"w{workers}.csv"))
        assert proc.returncode == 0, proc.stderr
        stderr[workers] = proc.stderr
    assert stderr["1"] == stderr["4"]
    # one line each; they used to name a source line of cli.py and print it
    warned = [line for line in stderr["1"].splitlines() if "warning" in line]
    assert warned == [
        "randstep: warning: k*nu = 0.99875 >= 1/4; outside the stability hypothesis",
        "randstep: warning: k*nu = 0.499375 >= 1/4; outside the stability hypothesis",
    ]
    assert "spec = ExperimentSpec(" not in stderr["1"]
    assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w4.csv").read_bytes()


_CHUNK = harness._chunk
_MAIN_PID = os.getpid()


def _chunk_killed_if_implicit(spec, schemes, exponents, lo, hi):
    """``harness._chunk``, except that the implicit batch ends its pool
    worker process with SIGKILL, as the OOM killer would."""
    if schemes[0].is_implicit and os.getpid() != _MAIN_PID:
        os.kill(os.getpid(), signal.SIGKILL)
    return _CHUNK(spec, schemes, exponents, lo, hi)


def test_killed_worker_is_one_error_line(tmp_path, capsys, monkeypatch):
    # the broken pool ended main in a BrokenProcessPool traceback; forked
    # workers inherit the patched chunk
    import concurrent.futures
    import multiprocessing

    fork = multiprocessing.get_context("fork")

    class ForkPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers, mp_context=fork)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ForkPool)
    monkeypatch.setattr(harness, "_chunk", _chunk_killed_if_implicit)
    out = tmp_path / "x.csv"
    # rbe and rfe are two tasks, so the sweep runs in a pool of two; k*nu
    # is 1/4 at n = 3
    with pytest.warns(StepSizeWarning):
        assert main(["ode", "--problem", "prothero-robinson", "--scheme", "rbe,rfe",
                     "--n", "3:6", "--mc", "4", "--workers", "2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("randstep: error: a worker process died: ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_nonpositive_workers_is_usage_error(tmp_path, capsys, workers):
    code = main(
        ["ode", "--problem", "time-integral", "--scheme", "rbe", "--n", "0:1",
         "--mc", "2", "--workers", workers, "--out", str(tmp_path / "x.csv")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "usage:" in err and "--workers" in err
    assert not (tmp_path / "x.csv").exists()


def test_rates_truncated_row_names_line(tmp_path, capsys):
    table = tmp_path / "t.csv"
    assert main(
        ["ode", "--problem", "time-integral", "--scheme", "rbe", "--n", "0:2",
         "--mc", "2", "--workers", "1", "--out", str(table)]
    ) == 0
    lines = table.read_text().splitlines()
    lines[2] = ",".join(lines[2].split(",")[:4])  # drop the error columns
    table.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["rates", "--in", str(table), "--scheme", "rbe", "--window", "0:2",
                 "--out", str(tmp_path / "r.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert "line 3" in err and "Traceback" not in err


def test_read_error_csv_rejects_truncated_row(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        "scheme,N,k,replicas,rms_error_final,rms_error_max,mc_stderr_final,"
        "mean_newton_iters\nrbe,4,2.5e-01\n"
    )
    with pytest.raises(ValueError, match="line 2"):
        read_error_csv(path)


def _table_text(rows):
    header = ("scheme,N,k,replicas,rms_error_final,rms_error_max,mc_stderr_final,"
              "mean_newton_iters")
    return "\n".join([header] + rows) + "\n"


def test_rates_infinite_error_exits_1(tmp_path, capsys):
    path = tmp_path / "t.csv"
    path.write_text(_table_text([
        "rfe,8,1.25e-01,2,5.0e-01,5.0e-01,0.0e+00,0.0e+00",
        "rfe,16,6.25e-02,2,inf,inf,inf,0.0e+00",
        "rfe,32,3.125e-02,2,1.25e-01,1.25e-01,0.0e+00,0.0e+00",
    ]))
    code = main(["rates", "--in", str(path), "--scheme", "rfe", "--window", "3:5",
                 "--out", str(tmp_path / "r.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert "non-finite" in err and "Traceback" not in err
    assert not (tmp_path / "r.csv").exists()


def test_read_error_csv_rejects_duplicate_row(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(_table_text([
        "rbe,8,1.25e-01,2,5.0e-01,5.0e-01,0.0e+00,1.0e+00",
        "rbe,16,6.25e-02,2,2.5e-01,2.5e-01,0.0e+00,1.0e+00",
        "rbe,8,1.25e-01,2,4.0e-01,4.0e-01,0.0e+00,1.0e+00",
    ]))
    with pytest.raises(ValueError, match="line 4.*duplicate"):
        read_error_csv(path)


def test_read_error_csv_rejects_non_power_of_two_steps(tmp_path):
    # N = 48 would pass as exponent round(log2 48) = 6 and fit at k = 1/64
    path = tmp_path / "t.csv"
    path.write_text(_table_text([
        "rbe,32,3.125e-02,2,5.0e-01,5.0e-01,0.0e+00,1.0e+00",
        "rbe,48,2.0833333333333332e-02,2,2.5e-01,2.5e-01,0.0e+00,1.0e+00",
    ]))
    with pytest.raises(ValueError, match="line 3.*power of two"):
        read_error_csv(path)


def test_repeated_scheme_is_usage_error(tmp_path, capsys):
    # a repeated scheme would write every row twice, a table rates refuses
    out = tmp_path / "t.csv"
    code = main(
        ["ode", "--problem", "time-integral", "--scheme", "rbe,rbe", "--n", "0:2",
         "--mc", "2", "--workers", "1", "--out", str(out)]
    )
    assert code == 1
    assert "once" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["ode", "--problem", "prothero-robinson", "--K", "70", "--scheme", "rbe",
      "--n", "2:3", "--mc", "2"], "1..53"),
    (["residual", "--K", "64", "--n", "2:3", "--mc", "2"], "1..53"),
    (["pde", "--problem", "semilinear-heat", "--K", "70", "--dof", "7",
      "--scheme", "rbe", "--n", "2:3", "--mc", "2"], "1..53"),
    (["residual", "--lambda", "nan", "--K", "4", "--n", "2:3", "--mc", "2"], "finite"),
    (["ode", "--problem", "prothero-robinson", "--lambda", "inf", "--K", "4",
      "--scheme", "rfe", "--n", "2:3", "--mc", "2"], "finite"),
    (["residual", "--K", "4", "--n", "2:3", "--mc", "0"], "at least one replica"),
    (["pde", "--problem", "semilinear-heat", "--K", "4", "--dof", "0",
      "--scheme", "rbe", "--n", "2:3", "--mc", "2"], "mesh_dof"),
    (["pde", "--problem", "semilinear-heat", "--n=-1:1", "--dof", "3",
      "--scheme", "rbe", "--mc", "2"], "at least 0"),
    (["ode", "--problem", "prothero-robinson", "--n=-1:2", "--scheme", "rbe",
      "--mc", "2"], "at least 0"),
    (["residual", "--K", "4", "--n=-1:1", "--mc", "2"], "at least 0"),
    (["pde", "--problem", "semilinear-heat", "--R", "nan", "--dof", "3",
      "--scheme", "rbe", "--n", "1:2", "--mc", "2"], "finite"),
    (["pde", "--problem", "semilinear-heat", "--R", "inf", "--dof", "3",
      "--scheme", "rbe", "--n", "1:2", "--mc", "2"], "finite"),
    (["pde", "--problem", "semilinear-heat", "--ptilde", "nan", "--dof", "3",
      "--scheme", "rbe", "--n", "1:2", "--mc", "2"], "finite"),
    (["pde", "--problem", "semilinear-heat", "--ptilde", "inf", "--dof", "3",
      "--scheme", "rbe", "--n", "1:2", "--mc", "2"], "finite"),
    # be draws no nodes, so only the spec can reject its seed
    (["ode", "--problem", "prothero-robinson", "--scheme", "be", "--n", "2:3",
      "--mc", "2", "--seed=-7"], "64-bit"),
    # a value that starts like a negative number is a value, not an option
    (["ode", "--problem", "prothero-robinson", "--n", "-1:6", "--scheme", "rbe",
      "--mc", "2"], "at least 0"),
    # finite, but (ptilde-1) R^(ptilde-2) overflows: an OverflowError traceback
    (["pde", "--problem", "semilinear-heat", "--R", "1e300", "--K", "3", "--dof", "7",
      "--scheme", "rbe", "--n", "2:3", "--mc", "2"], "Lipschitz"),
    (["pde", "--problem", "semilinear-heat", "--ptilde", "1e6", "--K", "3", "--dof", "7",
      "--scheme", "rbe", "--n", "2:3", "--mc", "2"], "Lipschitz"),
    # time-integral reads neither setting: it ran and echoed lam=nan K=70
    (["ode", "--problem", "time-integral", "--K", "70", "--lambda", "nan",
      "--scheme", "rbe", "--n", "0:1", "--mc", "2"], "does not read --lambda"),
    (["ode", "--problem", "time-integral", "--K", "70", "--scheme", "rbe",
      "--n", "0:1", "--mc", "2"], "does not read --K"),
])
def test_bad_input_is_usage_error(tmp_path, capsys, argv, message):
    # each of these once raised a traceback or wrote NaN/inf columns
    out = tmp_path / "x.csv"
    workers = [] if argv[0] == "residual" else ["--workers", "1"]
    assert main(argv + workers + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("randstep: error:") and message in err
    assert not out.exists()


def test_non_integer_seed_env_is_usage_error(tmp_path, capsys, monkeypatch):
    # in-process callers get exit code 1, not a SystemExit
    monkeypatch.setenv("RANDSTEP_SEED", "abc")
    out = tmp_path / "x.csv"
    argv = ["ode", "--problem", "time-integral", "--scheme", "rbe", "--n", "0:2",
            "--mc", "2", "--workers", "1", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("randstep: error: RANDSTEP_SEED='abc' is not an integer")
    assert not out.exists()


@pytest.mark.parametrize("lam, echoed", [("-1e3", "-1000.0"), ("-2.5e2", "-250.0")])
def test_negative_lambda_in_exponent_notation(tmp_path, capsys, lam, echoed):
    # argparse took only -1000 and -1.5 for numbers: --lambda -1e3 exited 1
    # with "expected one argument"
    out = tmp_path / "x.csv"
    code = main(
        ["ode", "--problem", "prothero-robinson", "--lambda", lam, "--K", "4",
         "--scheme", "rbe", "--n", "2:3", "--mc", "2", "--workers", "1",
         "--out", str(out)]
    )
    assert code == 0
    assert f"lam={echoed} " in capsys.readouterr().out
    assert len(read_error_csv(out).rows) == 2


@pytest.mark.parametrize("lam, K, n", [(-1e8, 10, "0:6"), (-1e12, 4, "0:3")])
def test_very_stiff_affine_sweep_is_solved(tmp_path, lam, K, n):
    # damped Newton exited 2 here ("residual not reduced after damped
    # retries"): ABS_TOL + REL_TOL*|x| lies below the rounding of k*lam*x,
    # so it could not confirm the root its first step had found
    out = tmp_path / "x.csv"
    code = main(
        ["ode", "--problem", "prothero-robinson", f"--lambda={lam}", "--K", str(K),
         "--scheme", "rbe,be", "--n", n, "--mc", "4", "--workers", "1",
         "--out", str(out)]
    )
    assert code == 0
    spec = ProtheroRobinsonSpec(lam, SawtoothSpec(K))
    problem = prothero_robinson_problem(spec)
    for row in read_error_csv(out).for_scheme("rbe"):
        grid = TimeGrid(row.steps)
        k = grid.step_size
        nodes = grid.random_nodes(42, range(4))
        path = solve(problem, StepScheme.RANDOMIZED_BACKWARD_EULER, nodes)
        # closed form of one step: U^n = (U^{n-1} + k(g' - lam g)) / (1 - k lam)
        u = np.full(4, problem.initial_value)
        for step, xi in enumerate(nodes.T, start=1):
            g, gdot = sawtooth_g(spec.sawtooth, xi), sawtooth_gdot(spec.sawtooth, xi)
            u = (u + k * (gdot - lam * g)) / (1.0 - k * lam)
            np.testing.assert_allclose(path.states[step], u, rtol=1e-12, atol=0)
        # g(1) = 0: the final error of a row is its final state
        assert row.rms_error_final == pytest.approx(np.sqrt(np.mean(u * u)), rel=1e-12)
        assert row.mean_newton_iters == 1.0


def test_residual_overflow_is_numerical_failure(tmp_path, capsys):
    # the squared residuals overflow: the study warned, wrote inf in every
    # rms_residual row and exited 0
    out = tmp_path / "x.csv"
    code = main(["residual", "--K", "3", "--lambda", "1e200", "--n", "2:4",
                 "--mc", "3", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "randstep: numerical failure: k=2^-2: residual overflows\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_explicit_overflow_is_numerical_failure(tmp_path, capsys):
    # a finite but huge stiffness overflows the explicit steps to inf, then
    # nan; the sweep used to exit 0 and write nan/inf columns, then warned
    # about the overflow before its own message, and named the step twice
    out = tmp_path / "x.csv"
    for workers in ("1", "2"):
        code = main(
            ["ode", "--problem", "prothero-robinson", "--lambda=-1e308", "--K", "4",
             "--scheme", "rfe", "--n", "2:3", "--mc", "2", "--workers", workers,
             "--out", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "scheme=rfe" in err and err.endswith(" step=2: non-finite state\n"), workers
        assert "Traceback" not in err
        assert not out.exists()


# the squares of the finite rfe errors (about 1e196) overflow in harness._rms
@pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
def test_finite_errors_whose_squares_overflow_give_finite_rms(tmp_path, capsys):
    # the explicit steps stay finite, near 1e196, so their squares
    # overflow: the rms, its stderr and the chart stay finite, with no
    # overflow warning; they used to read inf and the chart refused them
    import warnings

    out, svg = tmp_path / "x.csv", tmp_path / "x.svg"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["ode", "--problem", "prothero-robinson", "--lambda=-5.7e7",
                     "--scheme", "rbe,rfe", "--n", "4:5", "--mc", "2", "--workers", "1",
                     "--out", str(out), "--svg", str(svg)])
    assert code == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    row = read_error_csv(out).rows[-1]
    assert (row.scheme, row.steps) == ("rfe", 32)
    assert 1e150 < row.rms_error_final < np.inf and 0 < row.mc_stderr_final < np.inf
    err = capsys.readouterr().err
    assert "RuntimeWarning" not in err and "randstep: error:" not in err
    assert svg.exists()


def test_figure_rate_fits_follow_error_mode(tmp_path, monkeypatch, fig1_left_desk):
    # --error-mode max fits the max-over-grid errors; the figure fits used
    # to take the final-time errors whatever the mode
    monkeypatch.delenv("RANDSTEP_SEED", raising=False)
    out, rates = tmp_path / "t.csv", tmp_path / "r.csv"
    assert main(["fig1-left", "--workers", "1", "--error-mode", "max",
                 "--out", str(out), "--rates-out", str(rates)]) == 0
    table, final_fits, _ = fig1_left_desk
    assert out.read_text() == render_error_csv(table)
    figure = FIGURES["fig1-left"]
    windows = rate_windows(figure.scales["desk"])
    max_fits = {
        (scheme, which): fit_rate(table, scheme, window, ErrorMode.MAX_OVER_GRID)
        for scheme in figure.schemes for which, window in windows.items()
    }
    assert rates.read_text() == render_rate_csv(max_fits)
    assert rates.read_text() != render_rate_csv(final_fits)


def test_rates_out_only_on_figures_that_fit_rates(tmp_path, capsys):
    # fig1-right fits no rates; it used to accept --rates-out, exit 0 and
    # write no rate file
    out, rates = tmp_path / "t.csv", tmp_path / "r.csv"
    assert main(["fig1-right", "--workers", "1", "--rates-out", str(rates),
                 "--out", str(out)]) == 1
    assert "unrecognized arguments: --rates-out" in capsys.readouterr().err
    assert not out.exists() and not rates.exists()


@pytest.mark.parametrize("error, message", [
    (MemoryError("Unable to allocate 16.0 TiB for an array"),
     "Unable to allocate 16.0 TiB for an array"),
    (MemoryError(), "allocation failed"),
], ids=["numpy-message", "bare"])
def test_allocation_failure_is_usage_error(tmp_path, capsys, monkeypatch, error, message):
    # a sweep that fits in physical memory can still fail to allocate (16
    # TiB at --n 40:40 is refused before that): a stand-in run_mc raises
    # what numpy raises
    from randstep import harness

    def run_mc(spec, workers=1):
        raise error

    monkeypatch.setattr(harness, "run_mc", run_mc)
    out = tmp_path / "x.csv"
    # k*nu is 1/2 and 1/4 at n = 2 and 3
    with pytest.warns(StepSizeWarning):
        assert main(["ode", "--problem", "prothero-robinson", "--scheme", "rbe",
                     "--n", "2:3", "--mc", "2", "--workers", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"randstep: error: out of memory: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["ode", "--problem", "prothero-robinson", "--scheme", "rbe", "--n", "2:3", "--mc", "2",
      "--workers", "1"], "--out"),
    (["ode", "--problem", "prothero-robinson", "--scheme", "rbe", "--n", "2:3", "--mc", "2",
      "--workers", "1"], "--svg"),
    (["fig1-left", "--workers", "1"], "--rates-out"),
], ids=["out", "svg", "rates-out"])
def test_unwritable_output_fails_before_the_sweep(tmp_path, capsys, monkeypatch, argv, flag):
    # a missing --out directory failed after the whole sweep (51 s on
    # paper fig2), and a missing --svg one after the CSV was written
    from randstep import harness

    def run_mc(spec, workers=1):
        pytest.fail("the sweep ran")

    monkeypatch.setattr(harness, "run_mc", run_mc)
    missing = str(tmp_path / "missing" / "x")
    paths = {"--out": str(tmp_path / "x.csv"), flag: missing}
    assert main(argv + [arg for item in paths.items() for arg in item]) == 1
    err = capsys.readouterr().err
    assert err == f"randstep: error: [Errno 2] No such file or directory: '{missing}'\n"
    assert not list(tmp_path.iterdir())


def test_time_integral_echo_leaves_out_unread_settings(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["ode", "--problem", "time-integral", "--scheme", "rbe", "--n", "0:1",
                 "--mc", "2", "--workers", "1", "--out", str(out)]) == 0
    echo = capsys.readouterr().out.splitlines()[0]
    assert echo == ("config: problem=time-integral scheme=rbe n=0:1 mc=2 seed=42 "
                    "error_mode=final workers=1")


@pytest.mark.parametrize("argv, what", [
    # 8 * (2 rows * 2^40 nodes + 16 temporaries * 2 rows * 4096 steps): a
    # block of 2 rows holds the FREEZE_FLOOR of 2^13 row-steps
    (["ode", "--problem", "prothero-robinson", "--scheme", "rbe", "--n", "40:40",
      "--mc", "2", "--workers", "1"], "the largest batch needs 17592187092992 bytes"),
    (["residual", "--K", "30", "--n", "4:5", "--mc", "2"],
     "the residual study needs 25769803808 bytes"),
    (["pde", "--problem", "semilinear-heat", "--scheme", "rbe", "--n", "3:3", "--mc", "2",
      "--dof", "100000000000", "--workers", "1"],
     "the largest batch needs 102400000000064 bytes"),
], ids=["ode", "residual", "pde"])
def test_size_above_physical_memory_is_refused(tmp_path, capsys, monkeypatch, argv, what):
    # each asked numpy for 8 GiB to 32 TiB and ended in a MemoryError
    # traceback or the OOM killer; now the size is refused before anything
    # is allocated, against a 1 GiB limit here
    from randstep import harness

    monkeypatch.delenv("RANDSTEP_SEED", raising=False)
    monkeypatch.setattr(harness, "physical_memory", lambda: 2**30)
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"randstep: error: {what} ") and err.count("\n") == 1
    assert err.endswith("above the 1073741824 bytes of physical memory\n")
    assert not out.exists()
