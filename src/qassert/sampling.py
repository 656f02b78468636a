"""Shot sampling and exact outcome distributions for circuit prefixes.

`sample` is the workhorse the assertions build on: it walks a circuit
prefix once, splitting its shots at mid-circuit measurements, and sums
one multinomial draw per leaf of the walk into a count vector.
`exact_distribution` walks the same prefix with probability weights
instead of shots and serves as the reference the sampled distributions
converge to as shots grow.

Counts and probabilities are vectors of length 2^n indexed by basis index,
qubit 0 the most significant bit (the `sim` convention), so index order is
bitstring order. Bitstrings are formatted only for reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import LANE_SHOTS, substream
from .errors import CapacityError
from .ir import Circuit, Measurement
from .sim import StateVector, walk
from .sim import run_trajectory  # noqa: F401  bench/spans.py traces it under this name

DEFAULT_SHOTS = 1000


@dataclass(eq=False)
class MeasurementDistribution:
    """Outcome counts of n_qubits over a fixed number of shots.

    `counts` is an int64 vector of length 2^n_qubits indexed by basis
    index; unobserved outcomes count 0.
    """

    n_qubits: int
    shots: int
    counts: np.ndarray

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape != (1 << self.n_qubits,):
            raise ValueError(f"counts has shape {self.counts.shape}, expected "
                             f"({1 << self.n_qubits},) for {self.n_qubits} qubits")
        if self.counts.min() < 0:
            raise ValueError(f"negative count {self.counts.min()}")
        total = int(self.counts.sum())
        if total != self.shots:
            raise ValueError(f"counts sum to {total}, expected shots={self.shots}")


MAX_SHOTS = 10**6


def sample(circuit: Circuit, upto: int | None = None, shots: int = DEFAULT_SHOTS,
           seed: int = 0, start: tuple[StateVector, int] | None = None
           ) -> MeasurementDistribution:
    """Sample `shots` full-register measurements of the prefix items[:upto].

    Every draw comes from one generator, substream 0 of `seed`. The prefix
    is walked once in split mode (`sim.walk`): mid-circuit measurements
    split the shots binomially, and each leaf's shots are drawn as one
    multinomial over its final probabilities. A measurement-free prefix is
    a single leaf.

    `start` is passed to `walk`, which advances that state in place to
    `upto`; the counts are the same as without it.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if shots > MAX_SHOTS:
        raise CapacityError(f"{shots} shots exceed the cap of {MAX_SHOTS}")
    rng = substream(seed, 0, LANE_SHOTS)
    counts = None
    for state, leaf_shots, _ in walk(circuit, upto, rng, shots, start):
        probs = state.probabilities()
        probs /= probs.sum()  # numpy rejects probabilities summing a hair above 1
        drawn = rng.multinomial(leaf_shots, probs)
        if counts is None:
            counts = drawn
        else:
            counts += drawn
    return MeasurementDistribution(circuit.n_qubits, shots, counts)


MAX_EXACT_BRANCHES = 16


def exact_distribution(circuit: Circuit, upto: int | None = None) -> np.ndarray:
    """Exact full-register outcome probabilities for the prefix items[:upto],
    as a vector indexed by basis index.

    The prefix is walked in exact mode (`sim.walk`): mid-circuit
    measurements split the evolution into weighted branches (at most 2^16
    of them), and zero-probability branches are pruned. The probabilities
    sum to 1 within 1e-9.
    """
    items = circuit.items if upto is None else circuit.items[:upto]
    n_meas = sum(1 for item in items if isinstance(item, Measurement))
    if n_meas > MAX_EXACT_BRANCHES:
        raise CapacityError(
            f"{n_meas} mid-circuit measurements would branch into 2^{n_meas} "
            f"trajectories; cap is 2^{MAX_EXACT_BRANCHES}")
    return sum(weight * state.probabilities() for state, weight, _ in walk(circuit, upto))


def marginalize(dist: MeasurementDistribution,
                qubits: list[int]) -> MeasurementDistribution:
    """Restrict a distribution to the given qubits, in the given order: the
    first listed qubit becomes the most significant bit of the result."""
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate qubit index in {qubits}")
    for q in qubits:
        if not 0 <= q < dist.n_qubits:
            raise ValueError(f"qubit index {q} out of range for {dist.n_qubits} qubits")
    # Qubit q is bit n-1-q of a basis index. Regrouping only the observed
    # cells (at most `shots` of them) beats summing out axes of the (2,)*n
    # tensor, which at n = 20 takes milliseconds per kept axis.
    observed = np.flatnonzero(dist.counts)
    index = np.zeros_like(observed)
    for q in qubits:
        index = (index << 1) | ((observed >> (dist.n_qubits - 1 - q)) & 1)
    counts = np.zeros(1 << len(qubits), dtype=np.int64)
    np.add.at(counts, index, dist.counts[observed])
    return MeasurementDistribution(len(qubits), dist.shots, counts)
