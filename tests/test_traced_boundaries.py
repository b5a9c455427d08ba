"""The benchmark's tracer must still see the solver boundaries it wraps.

``benchmarks/tracing.py`` replaces module attributes such as
``ode_solver._newton_scalar`` with counting wrappers; a solver that stops
calling those names would silently drop out of the traced benchmark pass.
"""

import sys
from pathlib import Path

from randstep.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from tracing import Tracer  # noqa: E402


def test_tiny_sweeps_fire_the_traced_newton_and_rhs_boundaries(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        assert main(["ode", "--problem", "prothero-robinson", "--K", "4",
                     "--scheme", "rbe,be", "--n", "4:5", "--mc", "2",
                     "--workers", "1", "--out", str(tmp_path / "ode.csv")]) == 0
        assert main(["pde", "--problem", "semilinear-heat", "--K", "3", "--dof", "7",
                     "--scheme", "rbe,be", "--n", "2:3", "--mc", "2",
                     "--workers", "1", "--out", str(tmp_path / "pde.csv")]) == 0
    finally:
        tracer.uninstall()
    calls = {key: stat[0] for key, stat in tracer.stats.items()}
    for key in ("ode_solver.newton", "pde_solver.newton", "problems.rhs"):
        assert calls.get(key, 0) > 0, key
