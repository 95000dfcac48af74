"""Deterministic random-stream derivation.

Every random draw in the package comes from a generator derived here. Streams
are identified by a master seed plus a structured path (stream kind, client,
round, ...), so the same logical draw is reproducible regardless of evaluation
order or worker count.
"""

from __future__ import annotations

import numpy as np
import numpy.random  # noqa: F401  numpy loads it lazily; load it with fedsim, not at a first draw

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
