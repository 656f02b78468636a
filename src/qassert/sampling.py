"""Shot sampling and exact outcome distributions for circuit prefixes.

`sample` is the workhorse the assertions build on: it walks a circuit
prefix once, splitting its shots at mid-circuit measurements, and tallies
full-register outcomes with one multinomial draw per leaf of the walk.
`exact_distribution` walks the same prefix with probability weights
instead of shots and serves as the reference the sampled distributions
converge to as shots grow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import LANE_SHOTS, substream
from .errors import CapacityError
from .sim import _BRANCH_EPS, Circuit, Measurement, bitstring, walk
from .sim import run_trajectory  # noqa: F401  bench/spans.py traces it under this name

DEFAULT_SHOTS = 1000


@dataclass
class MeasurementDistribution:
    """Counts of n_qubits-character bitstrings over a fixed number of shots.

    Only observed outcomes are stored; consumers that need the full outcome
    space (uniform test, contingency tables) reconstruct the zero cells.
    """

    n_qubits: int
    shots: int
    counts: dict[str, int]

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        total = 0
        for key, count in self.counts.items():
            if len(key) != self.n_qubits or any(ch not in "01" for ch in key):
                raise ValueError(f"malformed outcome key {key!r}")
            if count <= 0:
                raise ValueError(f"outcome {key!r} has non-positive count {count}")
            total += count
        if total != self.shots:
            raise ValueError(f"counts sum to {total}, expected shots={self.shots}")

    def frequency(self, key: str) -> float:
        return self.counts.get(key, 0) / self.shots


MAX_SHOTS = 10**6


def sample(circuit: Circuit, upto: int | None = None, shots: int = DEFAULT_SHOTS,
           seed: int = 0) -> MeasurementDistribution:
    """Sample `shots` full-register measurements of the prefix items[:upto].

    Every draw comes from one generator, substream 0 of `seed`. The prefix
    is walked once in split mode (`sim.walk`): mid-circuit measurements
    split the shots binomially, and each leaf's shots are drawn as one
    multinomial over its final probabilities. A measurement-free prefix is
    a single leaf.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if shots > MAX_SHOTS:
        raise CapacityError(f"{shots} shots exceed the cap of {MAX_SHOTS}")
    n = circuit.n_qubits
    rng = substream(seed, 0, LANE_SHOTS)
    counts: dict[str, int] = {}
    for state, leaf_shots, _ in walk(circuit, upto, rng, shots):
        probs = state.probabilities()
        probs /= probs.sum()  # numpy rejects probabilities summing a hair above 1
        drawn = rng.multinomial(leaf_shots, probs)
        hit = np.flatnonzero(drawn)
        for index, count in zip(hit.tolist(), drawn[hit].tolist()):
            key = bitstring(index, n)
            counts[key] = counts.get(key, 0) + count
    return MeasurementDistribution(n, shots, counts)


MAX_EXACT_BRANCHES = 16


def exact_distribution(circuit: Circuit, upto: int | None = None) -> dict[str, float]:
    """Exact full-register outcome probabilities for the prefix items[:upto].

    The prefix is walked in exact mode (`sim.walk`): mid-circuit
    measurements split the evolution into weighted branches (at most 2^16
    of them), and zero-probability branches are pruned. Returned
    probabilities sum to 1 within 1e-9.
    """
    items = circuit.items if upto is None else circuit.items[:upto]
    n_meas = sum(1 for item in items if isinstance(item, Measurement))
    if n_meas > MAX_EXACT_BRANCHES:
        raise CapacityError(
            f"{n_meas} mid-circuit measurements would branch into 2^{n_meas} "
            f"trajectories; cap is 2^{MAX_EXACT_BRANCHES}")

    n = circuit.n_qubits
    result: dict[str, float] = {}
    for state, weight, _ in walk(circuit, upto):
        probs = weight * state.probabilities()
        hit = np.flatnonzero(probs > _BRANCH_EPS)
        for index, p in zip(hit.tolist(), probs[hit].tolist()):
            key = bitstring(index, n)
            result[key] = result.get(key, 0.0) + p
    return result


def marginalize(dist: MeasurementDistribution,
                qubits: list[int]) -> MeasurementDistribution:
    """Restrict a distribution to the given qubits, in the given order."""
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate qubit index in {qubits}")
    for q in qubits:
        if not 0 <= q < dist.n_qubits:
            raise ValueError(f"qubit index {q} out of range for {dist.n_qubits} qubits")
    counts: dict[str, int] = {}
    for key, count in dist.counts.items():
        sub = "".join(key[q] for q in qubits)
        counts[sub] = counts.get(sub, 0) + count
    return MeasurementDistribution(len(qubits), dist.shots, counts)
