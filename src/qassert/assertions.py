"""Statistical assertion checkpoints: classical, uniform, and product state.

Each assertion samples the circuit prefix ending at the checkpoint, reduces
the measurement distribution to the asserted qubits, and runs a hypothesis
test whose null is the asserted state. `passed` is always `p > alpha`: a
small p-value rejects the asserted state, a large one is consistent with it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._rng import derive_seed
from .errors import InfeasibleShotsError
from .ir import AssertionDirective, AssertionKind, Circuit, check_run_parameters
from .sampling import MeasurementDistribution, marginalize, sample
from .sim import StateVector, bitstring
from .stats import (
    ContingencyTable,
    DEFAULT_RESAMPLES,
    PValue,
    TestMethod,
    chi_square_gof_pvalue,
    chi_square_statistic,
    fisher_exact_2x2,
    legacy_chisq_add1,
    monte_carlo_independence,
    upper_regularized_gamma,
)

DEFAULT_ALPHA = 0.05

# Expected count assigned to each non-target cell by the classical-state
# null ("negligible probability elsewhere" made concrete). Small enough to
# keep the target cell dominant, large enough that the statistic is defined.
CLASSICAL_FLOOR = 0.5


@dataclass
class ProgramConfig:
    """Run-wide defaults and overrides for checkpoint evaluation."""

    shots: int | None = None
    seed: int = 0
    alpha: float = DEFAULT_ALPHA
    resamples: int = DEFAULT_RESAMPLES
    legacy_chisq: bool = False

    def __post_init__(self):
        check_run_parameters(self.alpha, self.shots, self.resamples, self.seed)


@dataclass
class AssertionResult:
    """Outcome of one checkpoint evaluation."""

    kind: AssertionKind
    qubits: tuple[int, ...]
    group0: tuple[int, ...] | None
    group1: tuple[int, ...] | None
    alpha: float
    p_value: PValue
    passed: bool
    shots_used: int
    target_bitstring: str | None = None
    table_shape: tuple[int, int] | None = None
    expected_verdict: bool | None = None
    matches_expected: bool | None = None


def default_shots(kind: AssertionKind) -> int:
    """Per-kind shot budget: a single sharp peak needs far fewer shots than
    the statistically subtle uniform/product distributions."""
    if kind == AssertionKind.CLASSICAL:
        return 1000
    return 10000


def build_contingency_table(dist: MeasurementDistribution, group0, group1) -> ContingencyTable:
    """Full 2^|g0| x 2^|g1| cross-tabulation of two qubit groups.

    Cell (i, j) counts outcomes whose group0 qubits encode i and group1
    qubits encode j (first listed qubit = most significant bit). All-zero
    rows and columns are kept.
    """
    g0 = tuple(group0)
    g1 = tuple(group1)
    if not g0 or not g1:
        raise ValueError("both qubit groups must be non-empty")
    counts = marginalize(dist, g0 + g1).counts
    return ContingencyTable(counts.reshape(1 << len(g0), 1 << len(g1)))


def _classical_pvalue(marg: MeasurementDistribution, target: int) -> PValue:
    shots = marg.shots
    if marg.counts[target] == shots:
        return PValue(1.0, TestMethod.CHI_SQUARE, degrees_of_freedom=0)
    others = np.flatnonzero(marg.counts)
    others = others[others != target]
    observed = [marg.counts[target]] + marg.counts[others].tolist()
    expected = [shots - CLASSICAL_FLOOR * len(others)] + [CLASSICAL_FLOOR] * len(others)
    statistic = chi_square_statistic(observed, expected)
    df = len(others)
    p = upper_regularized_gamma(df / 2.0, statistic / 2.0)
    return PValue(p, TestMethod.CHI_SQUARE, degrees_of_freedom=df)


def _check(directive: AssertionDirective, circuit: Circuit, at: int | None,
           alpha: float, shots: int | None, resamples: int | None, seed: int,
           legacy_chisq: bool = False,
           start: tuple[StateVector, int] | None = None) -> AssertionResult:
    """Evaluate `directive` on the prefix items[:at]: draw once, reduce the
    counts to the asserted qubits, test them.

    The other arguments are the resolved run parameters; shots and
    resamples of None take the per-kind shot default and DEFAULT_RESAMPLES.
    A seed that is not an integer, and a uniform test with fewer shots than
    outcomes, are refused before anything is drawn; a uniform test warns
    below 5 shots per outcome.
    """
    check_run_parameters(seed=seed)
    kind, qubits = directive.kind, directive.qubits
    shots = shots if shots is not None else default_shots(kind)
    k = 1 << len(qubits)
    if kind == AssertionKind.UNIFORM and shots < 5 * k:
        if shots < k:
            raise InfeasibleShotsError(
                f"uniform assertion over {len(qubits)} qubits has {k} outcomes; "
                f"{shots} shots give an expected count below 1 per outcome "
                f"(need at least {k} shots, at least {5 * k} recommended)")
        warnings.warn(
            f"uniform assertion: expected count {shots / k:.2f} per outcome is "
            f"below 5; consider at least {5 * k} shots", stacklevel=3)
    dist = sample(circuit, at, shots, seed, start)
    target = table_shape = None
    if kind == AssertionKind.PRODUCT:
        table = build_contingency_table(dist, directive.group0, directive.group1)
        table_shape = table.cells.shape
        if legacy_chisq:
            p_value = legacy_chisq_add1(table)
        elif table_shape == (2, 2):
            p_value = fisher_exact_2x2(table)
        else:
            resamples = resamples if resamples is not None else DEFAULT_RESAMPLES
            p_value = monte_carlo_independence(table, resamples, seed=seed)
    else:
        marg = marginalize(dist, list(qubits))
        if kind == AssertionKind.UNIFORM:
            p_value = chi_square_gof_pvalue(marg.counts, [1.0 / k] * k, shots)
        else:
            # Index order is bitstring order, so the first argmax is the
            # lexicographically smallest of tied modes.
            bits = directive.expected_bitstring
            index = int(bits, 2) if bits is not None else int(np.argmax(marg.counts))
            p_value = _classical_pvalue(marg, index)
            target = bitstring(index, len(qubits))
    return AssertionResult(
        kind=kind, qubits=qubits, group0=directive.group0 or None,
        group1=directive.group1 or None, alpha=alpha, p_value=p_value,
        passed=p_value.value > alpha, shots_used=shots, target_bitstring=target,
        table_shape=table_shape)


def assert_classical(circuit: Circuit, at: int | None, qubits,
                     expected_bitstring: str | None = None,
                     alpha: float = DEFAULT_ALPHA, shots: int | None = None,
                     seed: int = 0) -> AssertionResult:
    """Test that the asserted qubits deterministically measure one bitstring.

    The null is a single sharp peak: all mass on the target bitstring, an
    expected count of CLASSICAL_FLOOR on every other observed outcome. The
    target is `expected_bitstring` when supplied (testing "equals this
    string"), otherwise the empirical mode (testing "is classical").
    Arguments are checked as an `AssertionDirective` checks them.
    """
    directive = AssertionDirective(AssertionKind.CLASSICAL, qubits=tuple(qubits),
                                   alpha=alpha, shots=shots,
                                   expected_bitstring=expected_bitstring)
    return _check(directive, circuit, at, alpha, shots, None, seed)


def assert_uniform(circuit: Circuit, at: int | None, qubits,
                   alpha: float = DEFAULT_ALPHA, shots: int | None = None,
                   seed: int = 0) -> AssertionResult:
    """Test that the asserted qubits are in an equal superposition.

    Chi-square goodness of fit against probability 1/2^n for each of the
    2^n outcomes, unobserved outcomes counting zero. Fewer shots than
    outcomes raise InfeasibleShotsError; fewer than 5 per outcome warn.
    Arguments are checked as an `AssertionDirective` checks them.
    """
    directive = AssertionDirective(AssertionKind.UNIFORM, qubits=tuple(qubits),
                                   alpha=alpha, shots=shots)
    return _check(directive, circuit, at, alpha, shots, None, seed)


def assert_product(circuit: Circuit, at: int | None, group0, group1,
                   alpha: float = DEFAULT_ALPHA, shots: int | None = None,
                   resamples: int | None = None, seed: int = 0,
                   legacy_chisq: bool = False) -> AssertionResult:
    """Test that two qubit groups are unentangled (statistically independent).

    Builds the full contingency table of the two groups and dispatches:
    Fisher's exact test for 2x2 tables, the Monte Carlo permutation test
    otherwise. passed=True means consistent with a product state;
    passed=False means likely entangled. `legacy_chisq` reroutes through the
    add-1 chi-square baseline regardless of table size. Arguments are
    checked as an `AssertionDirective` checks them.
    """
    directive = AssertionDirective(AssertionKind.PRODUCT, group0=tuple(group0),
                                   group1=tuple(group1), alpha=alpha, shots=shots,
                                   resamples=resamples)
    return _check(directive, circuit, at, alpha, shots, resamples, seed, legacy_chisq)


def evaluate_checkpoint(circuit: Circuit, index: int, config: ProgramConfig,
                        start: tuple[StateVector, int] | None = None) -> AssertionResult:
    """Evaluate the assertion directive at circuit.items[index].

    Parameter precedence: an explicit run-config shot override beats the
    directive, which beats the per-kind default; alpha and resamples fall
    back from directive to config. The checkpoint seed is derived from
    (config seed, item index) so checkpoints sample independently. `start`
    is the run's evolved prefix, passed on to `sample`.
    """
    item = circuit.items[index]
    if not isinstance(item, AssertionDirective):
        raise ValueError(f"item {index} is not an assertion directive: {item!r}")
    alpha = item.alpha if item.alpha is not None else config.alpha
    shots = config.shots if config.shots is not None else item.shots
    resamples = item.resamples if item.resamples is not None else config.resamples
    result = _check(item, circuit, index, alpha, shots, resamples,
                    derive_seed(config.seed, index), config.legacy_chisq, start)
    result.expected_verdict = item.expected_verdict
    if item.expected_verdict is not None:
        result.matches_expected = result.passed == item.expected_verdict
    return result
