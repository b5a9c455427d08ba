import os
import subprocess
import sys
from pathlib import Path

import pytest

import randstep
from randstep.cli import main
from randstep.harness import read_error_csv


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


def test_module_entry_point():
    # the child must import the package these tests import, installed or not
    src = str(Path(randstep.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "randstep", "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "randstep" in proc.stdout


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_explicit_overflow_is_numerical_failure(tmp_path, capsys):
    # a finite but huge stiffness overflows the explicit steps to inf, then
    # nan; the sweep used to exit 0 and write nan/inf columns, then warned
    # about the overflow before its own message
    out = tmp_path / "x.csv"
    code = main(
        ["ode", "--problem", "prothero-robinson", "--lambda=-1e308", "--K", "4",
         "--scheme", "rfe", "--n", "2:3", "--mc", "2", "--workers", "1",
         "--out", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "scheme=rfe" in err and "step=" in err and "non-finite" in err
    assert "Traceback" not in err
    assert not out.exists()
