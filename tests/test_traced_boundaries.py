"""The benchmark's tracer must still see the solver boundaries it wraps.

``benchmarks/tracing.py`` replaces module attributes such as
``ode_solver._newton_scalar`` with counting wrappers; a solver that stops
calling those names would silently drop out of the traced benchmark pass.
"""

import sys
from pathlib import Path

import pytest

from randstep.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Flags that shrink a workload's command line to a tier-1 size.
SHRINK = {"--n": "4:5", "--mc": "2", "--K": "3", "--dof": "7", "--workers": "1"}


def traced_calls(*argvs):
    tracer = Tracer()
    tracer.install()
    try:
        for argv in argvs:
            assert main(argv) == 0
    finally:
        tracer.uninstall()
    return {key: stat[0] for key, stat in tracer.stats.items()}


def test_tiny_sweeps_fire_the_traced_newton_and_rhs_boundaries(tmp_path):
    calls = traced_calls(
        ["ode", "--problem", "prothero-robinson", "--K", "4",
         "--scheme", "rbe,be", "--n", "4:5", "--mc", "2",
         "--workers", "1", "--out", str(tmp_path / "ode.csv")],
        ["pde", "--problem", "semilinear-heat", "--K", "3", "--dof", "7",
         "--scheme", "rbe,be", "--n", "2:3", "--mc", "2",
         "--workers", "1", "--out", str(tmp_path / "pde.csv")],
    )
    for key in ("ode_solver.newton", "pde_solver.newton", "problems.rhs"):
        assert calls.get(key, 0) > 0, key


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_shrunk_workload_fires_its_boundaries(name, tmp_path):
    # each benchmark workload's command line at a tier-1 size, in process
    argv = list(WORKLOADS[name]["argv"])
    for i, flag in enumerate(argv[:-1]):
        if flag in SHRINK:
            argv[i + 1] = SHRINK[flag]
    calls = traced_calls(argv + ["--out", str(tmp_path / "out.csv")])
    silent = [key for key in WORKLOADS[name]["fires"] if not calls.get(key)]
    assert not silent
