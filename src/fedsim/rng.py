"""Deterministic random-stream derivation.

Every random draw in the package comes from a generator derived here. Streams
are identified by a master seed plus a structured path (stream kind, client,
round, ...), so the same logical draw is reproducible regardless of evaluation
order or worker count. The stream of (seed, *path) is PCG64 seeded by
np.random.SeedSequence(seed, spawn_key=path). substream builds one; sites
that need one stream per client or trial derive the seed states of many paths
at once with seed_states and build each generator with from_state, which
gives the same bits.
"""

from __future__ import annotations

import operator

import numpy as np
import numpy.random  # noqa: F401  numpy loads it lazily; load it with fedsim, not at a first draw
from numpy.random.bit_generator import ISeedSequence

# Stream kinds. Values are part of the reproducibility contract: changing them
# changes every derived stream.
DATA = 1
POOLED = 2
INIT = 3
BATCH = 4
PARTICIPATION = 5
TRIAL = 6
EVAL = 7
IDENTITY = 8
COEF = 9


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return a generator for the stream identified by (seed, *path)."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(p) for p in path))
    return np.random.default_rng(ss)


# np.random.SeedSequence's constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


class _Hash:
    """SeedSequence's hashmix: each call takes the next constant of one fixed sequence.

    Values are Python ints or uint32 arrays; the constants do not depend on
    them, so one call hashes a whole column of paths.
    """

    def __init__(self, const: int):
        self.const = const

    def __call__(self, value, mult: int):
        value = value ^ self.const
        self.const = self.const * mult & _MASK32
        value = value * self.const & _MASK32
        return value ^ (value >> _XSHIFT)


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


def seed_states(seed: int, paths) -> np.ndarray:
    """The PCG64 seed state of each stream (seed, *path), for a (..., L) array of paths.

    Returns a (..., 4) uint64 array whose row for a path equals
    SeedSequence(seed, spawn_key=path).generate_state(4, np.uint64). It ports
    SeedSequence's entropy mixing to whole columns: the seed's words (zero
    padded to the pool size, as with any spawn key) mix the same way for
    every path, so they are mixed once, and each path word then mixes into
    all paths' pools at once. Every path word must lie in [0, 2**32).
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("seed must be a non-negative integer.")
    paths = np.asarray(paths)
    if paths.ndim < 1 or paths.shape[-1] < 1 or paths.dtype.kind not in "iu":
        raise ValueError("paths must be an integer array of shape (..., L) with L >= 1.")
    if paths.size and (paths.min() < 0 or paths.max() > _MASK32):
        raise ValueError("every path word must lie in [0, 2**32).")
    lead, paths = paths.shape[:-1], paths.reshape(-1, paths.shape[-1])

    words = []
    while True:
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    words += [0] * (_POOL_SIZE - len(words))

    # the seed's words, as Python ints: the same for every path
    hashmix = _Hash(_INIT_A)
    pool = [hashmix(w, _MULT_A) for w in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src], _MULT_A))
    for w in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(w, _MULT_A))

    # the path words, one uint32 column at a time
    pool = [np.full(paths.shape[0], p, dtype=np.uint32) for p in pool]
    for j in range(paths.shape[1]):
        column = paths[:, j].astype(np.uint32)
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(column, _MULT_A))

    # generate_state(4, np.uint64): eight little-endian uint32 words per path
    hashmix = _Hash(_INIT_B)
    out = np.empty((paths.shape[0], 8), dtype="<u4")
    for i in range(8):
        out[:, i] = hashmix(pool[i % _POOL_SIZE], _MULT_B)
    return out.view("<u8").astype(np.uint64, copy=False).reshape(lead + (4,))


def stream_paths(*keys) -> np.ndarray:
    """The (..., L) path array of the broadcast keys: one path word per key, in order.

    stream_paths(BATCH, clients, rounds[:, None]) holds the path
    (BATCH, clients[k], rounds[r]) at [r, k].
    """
    return np.stack(np.broadcast_arrays(*keys), axis=-1)


class _SeedState(ISeedSequence):
    """One row of seed_states, handed to PCG64 as the state it asks its seed for."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("holds only the generate_state(4, np.uint64) of a PCG64 seed.")
        return self.state


def from_state(state: np.ndarray) -> np.random.Generator:
    """The generator of a stream from its seed_states row; equals substream's for that path."""
    return np.random.Generator(np.random.PCG64(_SeedState(state)))
