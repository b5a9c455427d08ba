"""Reproducible uniform draws and randomized temporal evaluation nodes.

Every Monte Carlo replica r owns its own substream of uniforms tau_n in
[0, 1), addressed by the pair (master_seed, r).  Substreams are derived
from a 64-bit master seed through seed-sequence mixing (never by seed +
index arithmetic), so the full matrix of nodes xi_n across replicas is
a pure function of the master seed and the step count N.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

#: Documented default master seed; CLI runs are reproducible by default.
DEFAULT_MASTER_SEED = 42

_UINT64_SPAN = 2**64


def check_seed(master_seed, replica=0) -> None:
    """Refuse a substream address (master_seed, replica) with ValueError
    unless both are integers, 0 <= master_seed < 2^64 and replica >= 0."""
    try:
        master_seed, replica = operator.index(master_seed), operator.index(replica)
    except TypeError as err:
        raise ValueError(f"master_seed and replica must be integers: {err}") from None
    if not (0 <= master_seed < _UINT64_SPAN and replica >= 0):
        raise ValueError("need an unsigned 64-bit master_seed and a nonnegative "
                         f"replica, got {master_seed}, {replica}")


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

    def random_nodes(self, master_seed, replicas) -> np.ndarray:
        """(len(replicas), N) block of randomized nodes xi_n: row i maps the
        first N draws of the substream (master_seed, replicas[i]) by
        ``nodes_from_taus``, in place.  The block costs 8*N bytes per replica."""
        block = np.empty((len(replicas), self.steps))
        for row, replica in zip(block, replicas):
            row[:] = NodeStream(master_seed, replica).taus(self.steps)
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
    """Deterministic uniform stream over [0, 1) of replica ``replica``.

    Backed by the counter-based Philox generator keyed through a seed
    sequence, so the d-th draw is a pure function of (master_seed,
    replica, d).  Streams are value-like: create one per worker, never share.
    """

    def __init__(self, master_seed: int, replica: int = 0):
        check_seed(master_seed, replica)
        sequence = np.random.SeedSequence(master_seed, spawn_key=(replica,))
        self._gen = np.random.Generator(np.random.Philox(sequence))

    def taus(self, count: int) -> np.ndarray:
        """Next ``count`` draws; the same values as ``count`` calls taus(1)."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        return self._gen.random(count)
