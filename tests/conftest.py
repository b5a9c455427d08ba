"""Shared fixtures.  The desk-scale sweeps are expensive (seconds to
minutes), so each runs once per session and is shared between the
behavioral tests and the acceptance suite."""

import time

import pytest

from randstep.harness import ExperimentSpec, reproduce_figure, residual_study

ACCEPTANCE_SEED = 42


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


@pytest.fixture(scope="session")
def fig1_left_desk():
    (table, fits), seconds = _timed(
        reproduce_figure, "fig1-left", "desk", master_seed=ACCEPTANCE_SEED, workers=1
    )
    return table, fits, seconds


@pytest.fixture(scope="session")
def fig1_right_desk():
    (table, summary), _ = _timed(
        reproduce_figure, "fig1-right", "desk", master_seed=ACCEPTANCE_SEED, workers=1
    )
    return table, summary


@pytest.fixture(scope="session")
def fig2_desk():
    (table, fits), seconds = _timed(
        reproduce_figure, "fig2", "desk", master_seed=ACCEPTANCE_SEED, workers=1
    )
    return table, fits, seconds


@pytest.fixture(scope="session")
def residual_rows_desk():
    return residual_study(ExperimentSpec(
        "prothero-robinson", (), tuple(range(4, 9)), 1000,
        master_seed=ACCEPTANCE_SEED, lam=2.0, sawtooth_exponent=8,
    ))
