"""Seeded random substreams.

Every stochastic draw in the package comes from a substream derived
injectively from a (seed, lane, index) triple, so results are reproducible
and independent of execution order. A checkpoint's shots all come from one
generator, substream 0 of its checkpoint seed on the shots lane: binomial
splits at mid-circuit measurements, then one multinomial per leaf of the
walk. A Monte Carlo test likewise draws all of its resampled tables from
substream 0 on the resamples lane. Lanes keep the different consumers off
each other's streams even when they share a user-facing seed.
"""

from __future__ import annotations

import numpy as np

_U64 = 0xFFFFFFFFFFFFFFFF

# Lane assignments. Keep these stable: they are part of the reproducibility
# contract for reports produced with a given seed.
LANE_SHOTS = 0
LANE_RESAMPLES = 1

# Reported in every JSON report. Bump it whenever any draw's stream changes,
# so that the same seed gives the same bytes within one version. Version 1
# gave each shot its own generator.
STREAM_VERSION = 2


def substream(seed: int, index: int, lane: int = LANE_SHOTS) -> np.random.Generator:
    """Generator for substream `index` of `seed` on the given lane."""
    return np.random.default_rng((seed & _U64, lane, index))


def derive_seed(seed: int, *path: int) -> int:
    """Collapse (seed, *path) into a fresh 64-bit seed, injectively."""
    ss = np.random.SeedSequence((seed & _U64, *path))
    return int(ss.generate_state(1, np.uint64)[0])
