"""Reproducible uniform draws and randomized temporal evaluation nodes.

Every Monte Carlo replica owns its own substream of uniforms tau_n in
[0, 1).  Substreams are derived from a 64-bit master seed through
seed-sequence mixing (never by seed + index arithmetic), so the full
matrix of nodes xi_n across replicas is a pure function of the master
seed and the time grid.
"""

from __future__ import annotations

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
    """Equidistant partition t_n = n/N of [0, 1], step size k = 1/N."""

    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be a positive integer")

    @property
    def step_size(self) -> float:
        return 1.0 / self.steps

    def nodes(self) -> np.ndarray:
        """All grid points t_0..t_N, t_n = n/N (no cumulative addition);
        the endpoint N/N is exactly 1."""
        return np.arange(self.steps + 1) / self.steps

    def random_nodes(self, streams) -> np.ndarray:
        """(R, N) block of randomized nodes xi_n; row r draws from streams[r].

        Each stream supplies its next N draws, which ``nodes_from_taus``
        maps to nodes.  The block costs R*N*8 bytes.
        """
        block = np.empty((len(streams), self.steps))
        for row, stream in zip(block, streams):
            row[:] = stream.taus(self.steps)
        return self.nodes_from_taus(block, out=block)

    def nodes_from_taus(self, taus, out=None) -> np.ndarray:
        """Randomized nodes xi_n = t_{n-1} + k*tau_n of (..., N) draws.

        Every node lies in [t_{n-1}, t_n), the half-open right end kept
        even where k*tau rounds up; ``out`` may be ``taus`` itself.
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
        sequence = np.random.SeedSequence(
            seed.master_seed, spawn_key=(seed.replica_index,)
        )
        self._gen = np.random.Generator(np.random.Philox(sequence))

    def taus(self, count: int) -> np.ndarray:
        """Next ``count`` draws; the same values as ``count`` calls taus(1)."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        return self._gen.random(count)
