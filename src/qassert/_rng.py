"""Seeded random substreams.

Every stochastic draw in the package comes from a substream derived
injectively from a (seed, lane, index) triple, so results are reproducible
and independent of execution order: shot i of a sampling run gets its own
generator, and a Monte Carlo test draws all of its resampled tables from
one generator, substream 0 of its checkpoint seed. Lanes keep the different
consumers (shot sampling, table resampling) off each other's streams even
when they share a user-facing seed.
"""

from __future__ import annotations

import numpy as np

_U64 = 0xFFFFFFFFFFFFFFFF

# Lane assignments. Keep these stable: they are part of the reproducibility
# contract for reports produced with a given seed.
LANE_SHOTS = 0
LANE_RESAMPLES = 1


def substream(seed: int, index: int, lane: int = LANE_SHOTS) -> np.random.Generator:
    """Generator for substream `index` of `seed` on the given lane."""
    return np.random.default_rng((seed & _U64, lane, index))


def derive_seed(seed: int, *path: int) -> int:
    """Collapse (seed, *path) into a fresh 64-bit seed, injectively."""
    ss = np.random.SeedSequence((seed & _U64, *path))
    return int(ss.generate_state(1, np.uint64)[0])
