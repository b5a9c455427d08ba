"""Byte guards: small sweeps whose CSV output must not change.

Each case is a reduced-size shape of one benchmark sweep, rendered once
into ``tests/golden/<name>.csv``.  A refactor of the stepping core must
reproduce these files byte for byte.  A change that alters them on
purpose reports the largest relative difference and the reason in
CHANGES.md; the files are never regenerated silently.
"""

from pathlib import Path

import pytest

from randstep.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    # fig1-left shape: stiff sawtooth, randomized vs classical implicit
    "fig1_left": ["ode", "--problem", "prothero-robinson", "--lambda", "2",
                  "--K", "10", "--scheme", "rbe,be", "--n", "4:12", "--mc", "5",
                  "--seed", "42", "--workers", "1"],
    # fig1-right shape: dissipative, implicit vs explicit randomized
    "fig1_right": ["ode", "--problem", "prothero-robinson", "--lambda", "-1000",
                   "--K", "10", "--scheme", "rbe,rfe", "--n", "5:12", "--mc", "5",
                   "--seed", "42", "--workers", "1"],
    # fig2 shape: semilinear heat, three step exponents
    "fig2": ["pde", "--problem", "semilinear-heat", "--K", "7", "--dof", "127",
             "--scheme", "rbe,be", "--n", "3:5", "--mc", "3", "--seed", "42",
             "--workers", "1"],
    # short residual study
    "residual": ["residual", "--lambda", "2", "--K", "8", "--n", "4:6",
                 "--mc", "50", "--seed", "42"],
    # rate fit of the fig1-left golden: int window, float fit columns
    "fig1_left_rates": ["rates", "--in", str(GOLDEN / "fig1_left.csv"),
                        "--scheme", "rbe", "--window", "4:8"],
}


def render(argv, out: Path) -> bytes:
    assert main(argv + ["--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(name, tmp_path):
    got = render(CASES[name], tmp_path / f"{name}.csv")
    assert got == (GOLDEN / f"{name}.csv").read_bytes()


def test_ode_worker_invariance_uneven_chunks(tmp_path):
    # 5 step sizes over 3 workers: each worker marches whole cells of all
    # 7 replicas, largest first, so cells may finish out of plan order; the
    # process a cell marches in must not touch any of its bits
    argv = ["ode", "--problem", "prothero-robinson", "--lambda", "2", "--K", "6",
            "--scheme", "rbe,be", "--n", "4:8", "--mc", "7", "--seed", "42"]
    one = render(argv + ["--workers", "1"], tmp_path / "w1.csv")
    three = render(argv + ["--workers", "3"], tmp_path / "w3.csv")
    assert one == three


def test_pde_worker_invariance_uneven_chunks(tmp_path):
    # as above for the PDE: each of the 4 cells is one batch of 7 replicas
    # and the be row
    argv = ["pde", "--problem", "semilinear-heat", "--K", "4", "--dof", "15",
            "--scheme", "rbe,be", "--n", "2:5", "--mc", "7", "--seed", "42"]
    one = render(argv + ["--workers", "1"], tmp_path / "w1.csv")
    three = render(argv + ["--workers", "3"], tmp_path / "w3.csv")
    assert one == three


def test_worker_invariance_more_workers_than_tasks(tmp_path):
    # one step size of rbe,rfe is two tasks; a third worker gets none
    argv = ["ode", "--problem", "prothero-robinson", "--lambda", "-1000",
            "--K", "6", "--scheme", "rbe,rfe", "--n", "7:7", "--mc", "5",
            "--seed", "42"]
    one, two, three = (
        render(argv + ["--workers", w], tmp_path / f"w{w}.csv") for w in "123"
    )
    assert one == two == three


@pytest.mark.parametrize("workers", ["1", "2"])
def test_rows_follow_scheme_order(tmp_path, workers):
    # rbe and be march as one batch, yet --scheme be,rbe writes the be rows
    # first, with the same bytes as the golden's rbe,be rows
    argv = list(CASES["fig1_left"])
    argv[argv.index("rbe,be")] = "be,rbe"
    argv[argv.index("--workers") + 1] = workers
    got = render(argv, tmp_path / "be_rbe.csv").decode().splitlines()
    header, *rows = (GOLDEN / "fig1_left.csv").read_text().splitlines()
    rbe = [r for r in rows if r.startswith("rbe,")]
    be = [r for r in rows if r.startswith("be,")]
    assert len(rbe) == len(be) == 9
    assert got == [header] + be + rbe
