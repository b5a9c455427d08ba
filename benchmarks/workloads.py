"""The benchmark's workloads: argv shapes and the boundaries each must fire.

Every workload is a ``randstep`` command line; why each was chosen is
recorded in ``BENCHMARK.json``.  The benchmark adds
``--seed`` and ``--out``; the program sees nothing else.  Replica counts
are sized so that one sweep takes about two to three seconds on a 2-core
Xeon, which lets a twenty-second run hold seven or more sweeps.
"""

from __future__ import annotations

DEFAULT_SEED = 42
#: Seed for which references are stored but which no tuning run used.
HELD_OUT_SEED = 2017
REFERENCE_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)


def _steps(lo: int, hi: int) -> int:
    return sum(2**n for n in range(lo, hi + 1))


WORKLOADS = {
    "ode-stiff": {
        "argv": ["ode", "--problem", "prothero-robinson", "--lambda", "2",
                 "--K", "10", "--scheme", "rbe,be", "--n", "4:12",
                 "--workers", "1", "--mc", "20"],
        "workers": 1,
        "replica_steps": 2 * 20 * _steps(4, 12),
        "fires": ("rand_nodes.stream", "rand_nodes.taus", "problems.rhs",
                  "problems.sawtooth_g", "problems.exact", "ode_solver.solve",
                  "ode_solver.newton", "harness.sweep", "harness.csv"),
    },
    "pde-heat": {
        "argv": ["pde", "--problem", "semilinear-heat", "--K", "7",
                 "--dof", "127", "--scheme", "rbe,be", "--n", "3:9",
                 "--workers", "1", "--mc", "3"],
        "workers": 1,
        "replica_steps": 2 * 3 * _steps(3, 9),
        "fires": ("rand_nodes.stream", "problems.forcing", "problems.nonlinearity",
                  "problems.exact", "fem1d.load_vector", "fem1d.nonlinearity",
                  "fem1d.jacobian", "fem1d.tridiag_solve", "fem1d.l2_error",
                  "fem1d.matvec", "pde_solver.solve", "pde_solver.newton",
                  "harness.sweep", "harness.csv"),
    },
    "residual": {
        "argv": ["residual", "--lambda", "2", "--K", "8", "--n", "4:8",
                 "--mc", "2000"],
        "workers": 1,
        "replica_steps": 2000 * _steps(4, 8),
        "fires": ("rand_nodes.stream", "rand_nodes.taus", "problems.rhs",
                  "problems.exact", "ode_solver.quad", "harness.sweep",
                  "harness.csv"),
    },
    "ode-dissipative-w2": {
        "argv": ["ode", "--problem", "prothero-robinson", "--lambda", "-1000",
                 "--K", "10", "--scheme", "rbe,rfe", "--n", "5:12",
                 "--workers", "2", "--mc", "40"],
        "workers": 2,
        "replica_steps": 2 * 40 * _steps(5, 12),
        "fires": ("rand_nodes.stream", "rand_nodes.taus", "problems.rhs",
                  "problems.exact", "ode_solver.solve", "harness.sweep",
                  "harness.csv"),
    },
}


def with_workers(argv: list[str], workers: int) -> list[str]:
    """The same command line with ``--workers`` replaced."""
    out = list(argv)
    out[out.index("--workers") + 1] = str(workers)
    return out


# Which end-to-end metric each per-layer metric should move, and on which
# workload; "none" rows are predictions of no change.
PREDICTIONS = [
    ("rand_nodes.stream_s", "sweep_s", "residual", "largest share"),
    ("rand_nodes.stream_s", "sweep_s", "ode-stiff", "smaller share"),
    ("rand_nodes.stream_s", "sweep_s", "pde-heat", "none"),
    ("problems.rhs_s", "sweep_s", "ode-stiff", "moves"),
    ("problems.rhs_s", "sweep_s", "residual", "moves"),
    ("problems.rhs_s", "sweep_s", "pde-heat", "none"),
    ("problems.forcing_s", "sweep_s", "pde-heat", "moves"),
    ("problems.nonlinearity_s", "sweep_s", "pde-heat", "moves"),
    ("problems.forcing_s", "sweep_s", "ode-stiff", "none"),
    ("ode_solver.self_s", "sweep_s", "ode-stiff", "moves"),
    ("ode_solver.self_s", "sweep_s", "ode-dissipative-w2", "moves"),
    ("ode_solver.self_s", "sweep_s", "residual", "none"),
    ("ode_solver.self_s", "sweep_s", "pde-heat", "none"),
    ("ode_solver.quad_s", "sweep_s", "residual", "moves"),
    ("fem1d.load_vector_s", "sweep_s", "pde-heat", "moves"),
    ("fem1d.tridiag_solve_s", "sweep_s", "pde-heat", "moves"),
    ("fem1d.l2_error_s", "sweep_s", "pde-heat", "moves"),
    ("fem1d.load_vector_s", "sweep_s", "ode-stiff", "none"),
    ("fem1d.import_s", "setup_s", "ode-stiff", "moves"),
    ("fem1d.import_s", "setup_s", "pde-heat", "moves"),
    ("fem1d.import_s", "setup_s", "residual", "moves"),
    ("fem1d.import_s", "setup_s", "ode-dissipative-w2", "moves"),
    ("pde_solver.self_s", "sweep_s", "pde-heat", "moves"),
    ("pde_solver.self_s", "sweep_s", "ode-stiff", "none"),
    ("pde_solver.self_s", "sweep_s", "ode-dissipative-w2", "none"),
    ("harness.error_eval_s", "sweep_s", "pde-heat", "moves"),
    ("harness.sweep_self_s", "sweep_s", "ode-stiff", "moves"),
    ("harness.pool_efficiency", "sweep_s", "ode-dissipative-w2", "moves"),
    ("harness.pool_efficiency", "cpu_s", "ode-dissipative-w2", "moves"),
]
