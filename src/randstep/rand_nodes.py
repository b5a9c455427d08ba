"""Reproducible uniform draws and randomized temporal evaluation nodes.

Every Monte Carlo replica owns its own substream of uniforms tau_n in
[0, 1).  Substreams are derived from a 64-bit master seed through
seed-sequence mixing (never by seed + index arithmetic), so the full
matrix of nodes xi_n across replicas is a pure function of the master
seed and the time grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Documented default master seed; CLI runs are reproducible by default.
DEFAULT_MASTER_SEED = 42

_UINT64_SPAN = 2**64


@dataclass(frozen=True)
class SeedSpec:
    """Address of one draw substream: (master seed, replica index)."""

    master_seed: int
    replica_index: int = 0

    def __post_init__(self):
        if not 0 <= int(self.master_seed) < _UINT64_SPAN:
            raise ValueError("master_seed must fit in an unsigned 64-bit integer")
        if int(self.replica_index) < 0:
            raise ValueError("replica_index must be nonnegative")


@dataclass(frozen=True)
class TimeGrid:
    """Equidistant partition t_n = n*T/N of [0, T]."""

    final_time: float
    steps: int

    def __post_init__(self):
        if not self.final_time > 0.0:
            raise ValueError("final_time must be positive")
        if self.steps < 1:
            raise ValueError("steps must be a positive integer")

    @property
    def step_size(self) -> float:
        return self.final_time / self.steps

    def node(self, n: int) -> float:
        """Grid point t_n, computed as n*T/N (no cumulative addition)."""
        if not 0 <= n <= self.steps:
            raise IndexError(f"grid index {n} outside 0..{self.steps}")
        if n == self.steps:
            # n*T/N can round off T for non-dyadic T; the right endpoint
            # is required to be exact.
            return self.final_time
        return n * self.final_time / self.steps

    def nodes(self) -> np.ndarray:
        """All grid points t_0..t_N; entry n equals node(n) bit for bit."""
        t = np.arange(self.steps + 1) * self.final_time / self.steps
        t[-1] = self.final_time
        return t

    def random_nodes(self, streams) -> np.ndarray:
        """(R, N) block of randomized nodes xi_n; row r draws from streams[r].

        Each stream supplies its next N draws, so row r holds exactly the
        nodes ``node(self, n, tau)`` would give for that stream.  The block
        costs R*N*8 bytes.
        """
        block = np.empty((len(streams), self.steps))
        for row, stream in zip(block, streams):
            row[:] = stream.taus(self.steps)
        return self.nodes_from_taus(block, out=block)

    def nodes_from_taus(self, taus, out=None) -> np.ndarray:
        """Randomized nodes xi_n = t_{n-1} + k*tau_n of (..., N) draws.

        Entry n-1 of the last axis equals ``node(self, n, tau_n)`` bit for
        bit; ``out`` may be ``taus`` itself.
        """
        t = self.nodes()
        xi = np.multiply(taus, self.step_size, out=out)
        xi += t[:-1]
        # k*tau can round up to k: keep every node strictly below t_n
        np.minimum(xi, np.nextafter(t[1:], t[:-1]), out=xi)
        return xi


class NodeStream:
    """Deterministic uniform stream over [0, 1) for a single replica.

    Backed by the counter-based Philox generator keyed through a seed
    sequence, so the d-th draw is a pure function of (seed, d).  Streams
    are value-like: create one per worker, never share.
    """

    def __init__(self, seed: SeedSpec):
        self.seed = seed
        sequence = np.random.SeedSequence(
            seed.master_seed, spawn_key=(seed.replica_index,)
        )
        self._gen = np.random.Generator(np.random.Philox(sequence))

    def taus(self, count: int) -> np.ndarray:
        """Next ``count`` draws; the same values as ``count`` calls taus(1)."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        return self._gen.random(count)


def node(grid: TimeGrid, n: int, tau: float) -> float:
    """Randomized node xi_n = t_{n-1} + k*tau inside the n-th step interval.

    Guarantees t_{n-1} <= xi_n < t_n; the half-open right end keeps the
    node strictly inside the step even when tau*k rounds up.  This is the
    scalar reference rule that the tests compare ``nodes_from_taus``
    against; the solvers use ``nodes_from_taus``.
    """
    if not 1 <= n <= grid.steps:
        raise IndexError(f"step index {n} outside 1..{grid.steps}")
    if not (0.0 <= tau < 1.0):
        raise ValueError("tau must lie in [0, 1)")
    t_prev = grid.node(n - 1)
    t_next = grid.node(n)
    xi = t_prev + grid.step_size * tau
    if xi >= t_next:
        xi = math.nextafter(t_next, t_prev)
    return xi
