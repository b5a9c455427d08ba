"""Reproducible uniform draws and randomized temporal evaluation nodes.

Every Monte Carlo replica r owns its own substream of uniforms tau_n in
[0, 1), addressed by the pair (master_seed, r): the Philox stream that
numpy keys with ``SeedSequence(master_seed, spawn_key=(r,))``.  Substreams
are derived through seed-sequence mixing (never by seed + index
arithmetic), so the full matrix of nodes xi_n across replicas is a pure
function of the master seed and the step count N.

Philox is counter-based: a stream is fixed by its 128-bit key, and one
generator serves any key once re-keyed.  The seed sequence is a fixed
integer hash (NumPy's NEP 19), so a ``NodeStream`` keys a whole block of
replicas in one vectorized pass of that hash and draws every row from
one re-keyed Philox, bit for bit the streams numpy builds one at a time.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

import numpy as np

#: Documented default master seed; CLI runs are reproducible by default.
DEFAULT_MASTER_SEED = 42

_UINT64_SPAN = 2**64

# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx): its pool of
# four 32-bit words and the constants of its hashmix and mix functions
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16

#: Philox4x64 turns each counter value into four 64-bit words, one per draw.
_PHILOX_WORDS = 4


def is_integer(value) -> bool:
    """Whether ``value`` is an integer (``operator.index`` takes it) and
    not a bool."""
    if isinstance(value, (bool, np.bool_)):
        return False
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


def _unsigned(value, name) -> int:
    """``value`` as an int; ValueError unless it is an integer, not a
    bool, in 0..2^64-1."""
    if is_integer(value) and 0 <= operator.index(value) < _UINT64_SPAN:
        return operator.index(value)
    raise ValueError(f"{name} must be integers in 0..2^64-1 (unsigned 64-bit), "
                     f"got {value!r}")


def check_seed(master_seed) -> int:
    """The master seed as an int; ValueError unless it is an integer, not a
    bool, in 0..2^64-1."""
    return _unsigned(master_seed, "master_seed")


def _hash_consts(const: int, mult: int, count: int) -> np.ndarray:
    """(count, 1) uint32 hash constants const, const*mult, const*mult^2, ..."""
    consts = [const]
    for _ in range(count - 1):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


#: Constants of the seed sequence's hashmix calls, in call order: 4 hash
#: the seed into the pool, 12 mix the pool, then 4 per replica word (two
#: at most).
_MIX_CONSTS = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE**2 + 2 * _POOL_SIZE + 1)
#: generate_state hashes the four pool words with these.
_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, _POOL_SIZE + 1)


def _hashmix(words, consts):
    """NumPy's hashmix of each row of the uint32 ``words``: row i is xor-ed
    with consts[i], multiplied by consts[i + 1] and folded."""
    value = (words ^ consts[:-1]) * consts[1:]
    return value ^ value >> _XSHIFT


def _mix(x, y):
    """NumPy's mix of two uint32 arrays."""
    mixed = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return mixed ^ mixed >> _XSHIFT


@functools.lru_cache(maxsize=64)
def _seed_pool(master_seed: int) -> np.ndarray:
    """The (4, 1) uint32 pool of ``SeedSequence(master_seed,
    spawn_key=(r,))`` before r is mixed in: the entropy words of the seed,
    zero-padded to the pool size as numpy pads them when a spawn key
    follows, hashed into the pool and mixed across it."""
    words = [master_seed & _MASK32, master_seed >> 32]
    words = words[:1] if words[1] == 0 else words
    words += [0] * (_POOL_SIZE - len(words))
    pool = _hashmix(np.array(words, dtype=np.uint32)[:, None], _MIX_CONSTS[:_POOL_SIZE + 1])
    pairs = itertools.permutations(range(_POOL_SIZE), 2)
    for call, (src, dst) in enumerate(pairs, start=_POOL_SIZE):
        mixin = _hashmix(pool[src : src + 1], _MIX_CONSTS[call : call + 2])
        pool[dst : dst + 1] = _mix(pool[dst : dst + 1], mixin)
    # every caller of a seed shares the array
    pool.flags.writeable = False
    return pool


def _philox_keys(master_seed: int, replicas: np.ndarray) -> np.ndarray:
    """(R, 2) uint64 Philox keys of the (R,) uint64 replicas: row i is
    ``SeedSequence(master_seed, spawn_key=(replicas[i],)).generate_state(2,
    np.uint64)``.  A replica below 2^32 is one entropy word, a larger one
    two, low word first; each word is mixed into every pool word."""
    first = _POOL_SIZE**2  # the seed's hashmix calls come first
    # the uint32 cast keeps a replica's low word
    low = _hashmix(replicas.astype(np.uint32), _MIX_CONSTS[first : first + _POOL_SIZE + 1])
    pool = _mix(_seed_pool(master_seed), low)
    wide = replicas > _MASK32
    if wide.any():
        high = (replicas >> np.uint64(32)).astype(np.uint32)
        pool = np.where(wide, _mix(pool, _hashmix(high, _MIX_CONSTS[first + _POOL_SIZE :])), pool)
    # generate_state(2, uint64): four hashed pool words, paired little-endian
    state = _hashmix(pool, _STATE_CONSTS).astype(np.uint64)
    return (state[0::2] | state[1::2] << np.uint64(32)).T


@dataclass(frozen=True)
class TimeGrid:
    """Equidistant partition t_n = n/N of [0, 1], step size k = 1/N."""

    steps: int

    def __post_init__(self):
        steps = self.steps
        if not is_integer(steps) or steps < 1:
            raise ValueError(f"steps must be a positive integer, got {steps!r}")

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
        taus = NodeStream(master_seed, replicas).taus(self.steps)
        block = taus.reshape(-1, self.steps)
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
    """Deterministic uniform streams over [0, 1) of a block of replicas.

    Row i is the Philox stream of ``SeedSequence(master_seed,
    spawn_key=(replicas[i],))``, so the d-th draw of a replica is a pure
    function of (master_seed, replica, d), whatever block it is drawn in.
    The block's keys come from one vectorized pass of the seed-sequence
    hash, and one Philox, re-keyed and set to the row's counter, draws
    each row.  Replicas are integers in 0..2^64-1.  Streams are
    value-like: create one per worker, never share.
    """

    def __init__(self, master_seed, replicas):
        seed = check_seed(master_seed)
        replicas = np.array([_unsigned(r, "replicas") for r in replicas], dtype=np.uint64)
        self._keys = _philox_keys(seed, replicas).tolist()
        self._bits = np.random.Philox(key=0)
        self._gen = np.random.Generator(self._bits)
        self._drawn = 0

    def taus(self, count: int) -> np.ndarray:
        """Next ``count`` draws of every replica, replica-major: a flat
        array of replicas * count values whose (replicas, count) view has
        replica i's draws in row i.  Each row continues where the last
        call left it, so taus(a) then taus(b) give the rows of taus(a + b)."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        out = np.empty((len(self._keys), count))
        counter, skip = divmod(self._drawn, _PHILOX_WORDS)
        # an empty buffer: a row's next draw computes the block at counter + 1
        philox = {"counter": [counter, 0, 0, 0]}
        state = {"bit_generator": "Philox", "state": philox, "buffer": [0] * _PHILOX_WORDS,
                 "buffer_pos": _PHILOX_WORDS, "has_uint32": 0, "uinteger": 0}
        for key, row in zip(self._keys, out):
            philox["key"] = key
            self._bits.state = state
            if skip:
                self._bits.random_raw(skip, output=False)
            self._gen.random(out=row)
        self._drawn += count
        return out.reshape(-1)
