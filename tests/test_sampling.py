"""Sampling, exact distributions, and marginalization."""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    binomial_two_sided_pvalue,
    bitstring_counts,
    chi_square_sf_quadrature,
    contingency_ref,
    count_vector,
    marginal_counts_ref,
    tv_distance,
)
from qassert import assertions, runner, sim
from qassert.assertions import AssertionDirective, ProgramConfig, build_contingency_table
from qassert.errors import CapacityError
from qassert.examples import build_bv, build_qft
from qassert.parser import parse_circuit
from qassert.runner import render_report, run_program
from qassert.sampling import (
    MAX_EXACT_BRANCHES,
    MAX_SHOTS,
    MeasurementDistribution,
    exact_distribution,
    marginalize,
    sample,
)
from qassert.sim import Circuit, GateOp, Measurement

ROOT = Path(__file__).resolve().parents[1]

# Exact probabilities at or below this are treated as impossible outcomes.
EPS = 1e-15


def bell():
    return Circuit(2, 0, [GateOp("h", (0,)), GateOp("cx", (1,), controls=(0,))])


def xx_circuit():
    return Circuit(2, 0, [GateOp("x", (0,)), GateOp("x", (1,))])


def counts_dist(counts: dict[str, int]) -> MeasurementDistribution:
    """A distribution holding bitstring-keyed counts."""
    vector = count_vector(counts)
    return MeasurementDistribution(len(next(iter(counts))), int(vector.sum()), vector)


class TestSample:
    def test_bell_supports_only_00_and_11(self):
        counts = bitstring_counts(sample(bell(), shots=1000, seed=7).counts)
        assert set(counts) <= {"00", "11"}
        assert sum(counts.values()) == 1000

    def test_deterministic_state_all_shots_one_key(self):
        for seed in (0, 1, 99):
            dist = sample(xx_circuit(), shots=1000, seed=seed)
            assert bitstring_counts(dist.counts) == {"11": 1000}

    def test_hadamard_frequency_matches_exact(self):
        circuit = Circuit(1, 0, [GateOp("h", (0,))])
        dist = sample(circuit, shots=10000, seed=1)
        exact = bitstring_counts(exact_distribution(circuit), EPS)
        assert exact["1"] == pytest.approx(0.5, abs=1e-12)
        assert 0.48 <= bitstring_counts(dist.counts)["1"] / 10000 <= 0.52

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError):
            sample(bell(), shots=0, seed=0)

    def test_determinism(self):
        a = sample(bell(), shots=500, seed=123)
        b = sample(bell(), shots=500, seed=123)
        assert np.array_equal(a.counts, b.counts)

    def test_mid_circuit_measurement_path(self):
        circuit = Circuit(1, 1, [GateOp("h", (0,)), Measurement(0, 0),
                                 GateOp("x", (0,), classical_condition=0)])
        # measure then conditionally flip: every shot ends in |0>
        dist = sample(circuit, shots=200, seed=5)
        assert bitstring_counts(dist.counts) == {"0": 200}

    def test_shots_above_cap_rejected(self):
        with pytest.raises(CapacityError):
            sample(bell(), shots=MAX_SHOTS + 1, seed=0)

    def test_counts_are_an_int64_vector_over_all_outcomes(self):
        dist = sample(bell(), shots=50, seed=3)
        assert dist.counts.dtype == np.int64
        assert dist.counts.shape == (4,)
        assert dist.counts[1] == dist.counts[2] == 0


class TestMeasurementDistribution:
    def test_rejects_count_mismatch(self):
        with pytest.raises(ValueError):
            MeasurementDistribution(1, 10, [5, 0])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            MeasurementDistribution(2, 1, [1, 0])

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            MeasurementDistribution(1, 1, [2, -1])

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            MeasurementDistribution(1, 0, [0, 0])


class TestExactDistribution:
    def test_bell(self):
        dist = bitstring_counts(exact_distribution(bell()), EPS)
        assert set(dist) == {"00", "11"}
        assert dist["00"] == pytest.approx(0.5, abs=1e-12)
        assert dist["11"] == pytest.approx(0.5, abs=1e-12)

    def test_uniform_three_qubits(self):
        circuit = Circuit(3, 0, [GateOp("h", (q,)) for q in range(3)])
        dist = bitstring_counts(exact_distribution(circuit), EPS)
        assert len(dist) == 8
        for p in dist.values():
            assert p == pytest.approx(0.125, abs=1e-12)

    def test_qft_of_basis_state_is_uniform(self):
        circuit = build_qft("10000")
        directive_positions = [i for i, item in enumerate(circuit.items)
                               if isinstance(item, AssertionDirective)]
        after_transform = directive_positions[2]
        dist = bitstring_counts(exact_distribution(circuit, upto=after_transform), EPS)
        assert len(dist) == 32
        for p in dist.values():
            assert p == pytest.approx(1.0 / 32.0, abs=1e-9)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)

    def test_branches_on_measurement(self):
        circuit = Circuit(1, 1, [GateOp("h", (0,)), Measurement(0, 0),
                                 GateOp("x", (0,), classical_condition=0)])
        dist = bitstring_counts(exact_distribution(circuit), EPS)
        assert dist["0"] == pytest.approx(1.0, abs=1e-12)

    def test_too_many_measurements_raises(self):
        items = [GateOp("h", (0,))]
        items += [Measurement(0, i) for i in range(17)]
        circuit = Circuit(1, 17, items)
        with pytest.raises(CapacityError):
            exact_distribution(circuit)

    def test_probabilities_sum_to_one(self):
        circuit = teleport = Circuit(2, 1, [
            GateOp("rx", (0,), angle=1.234),
            Measurement(0, 0),
            GateOp("x", (1,), classical_condition=0),
            GateOp("h", (0,)),
        ])
        dist = exact_distribution(teleport)
        assert float(dist.sum()) == pytest.approx(1.0, abs=1e-9)


class TestMarginalize:
    def test_single_qubit(self):
        dist = counts_dist({"00": 600, "11": 400})
        marg = marginalize(dist, [0])
        assert bitstring_counts(marg.counts) == {"0": 600, "1": 400}

    def test_other_qubit(self):
        dist = counts_dist({"01": 250, "10": 750})
        marg = marginalize(dist, [1])
        assert bitstring_counts(marg.counts) == {"1": 250, "0": 750}

    def test_identity(self):
        dist = counts_dist({"00": 30, "01": 20, "10": 25, "11": 25})
        marg = marginalize(dist, [0, 1])
        assert np.array_equal(marg.counts, dist.counts)

    def test_reorder(self):
        dist = counts_dist({"01": 10})
        marg = marginalize(dist, [1, 0])
        assert bitstring_counts(marg.counts) == {"10": 10}

    def test_duplicate_index_rejected(self):
        dist = counts_dist({"00": 10})
        with pytest.raises(ValueError):
            marginalize(dist, [0, 0])

    def test_invalid_index_rejected(self):
        dist = counts_dist({"00": 10})
        with pytest.raises(ValueError):
            marginalize(dist, [2])

    def test_total_preserved(self):
        dist = sample(bell(), shots=777, seed=2)
        assert marginalize(dist, [1]).shots == 777
        assert int(marginalize(dist, [1]).counts.sum()) == 777


@st.composite
def distributions(draw, min_qubits=1):
    """A distribution over min_qubits..6 qubits with random counts, zeros
    allowed, and a random ordering of all its qubits."""
    n = draw(st.integers(min_qubits, 6))
    cells = draw(st.lists(st.integers(0, 30), min_size=1 << n, max_size=1 << n))
    cells[draw(st.integers(0, (1 << n) - 1))] += 1  # at least one shot
    return MeasurementDistribution(n, sum(cells), cells), draw(st.permutations(range(n)))


@st.composite
def marginal_cases(draw):
    """A distribution and a non-empty ordered subset of its qubits."""
    dist, order = draw(distributions())
    return dist, order[:draw(st.integers(1, dist.n_qubits))]


@st.composite
def table_cases(draw):
    """A distribution and two disjoint non-empty ordered qubit groups."""
    dist, order = draw(distributions(min_qubits=2))
    a = draw(st.integers(1, dist.n_qubits - 1))
    b = draw(st.integers(a + 1, dist.n_qubits))
    return dist, order[:a], order[a:b]


SKEWED = {"001": 3, "100": 5, "110": 1}


class TestMarginalReference:
    """Vector marginals and tables against the bitstring-joining reference."""

    @given(case=marginal_cases())
    @settings(max_examples=150, deadline=None)
    @example(case=(counts_dist(SKEWED), [2, 0]))
    def test_marginalize_matches_reference(self, case):
        dist, qubits = case
        expected = marginal_counts_ref(bitstring_counts(dist.counts), qubits)
        marg = marginalize(dist, qubits)
        assert marg.shots == dist.shots
        assert bitstring_counts(marg.counts) == expected

    @given(case=table_cases())
    @settings(max_examples=150, deadline=None)
    @example(case=(counts_dist(SKEWED), [2, 0], [1]))
    def test_contingency_table_matches_reference(self, case):
        dist, group0, group1 = case
        expected = contingency_ref(bitstring_counts(dist.counts), group0, group1)
        table = build_contingency_table(dist, group0, group1)
        assert table.cells.tolist() == expected.tolist()

    def test_range_group_accepted(self):
        dist = counts_dist({"000000": 4, "100001": 6})
        table = build_contingency_table(dist, range(5), (5,))
        assert table.cells.shape == (32, 2)
        assert table.cells[0, 0] == 4
        assert table.cells[16, 1] == 6


class TestConvergence:
    def test_total_variation_shrinks_with_shots(self):
        # Seed ladder: the empirical distribution at 10,000 shots must be
        # closer to exact than at 100 shots for at least 9 of 10 seeds.
        circuit = bell()
        exact = bitstring_counts(exact_distribution(circuit), EPS)
        improved = 0
        for seed in range(10):
            small = bitstring_counts(sample(circuit, shots=100, seed=seed).counts)
            large = bitstring_counts(sample(circuit, shots=10000, seed=seed).counts)
            improved += tv_distance(large, 10000, exact) < tv_distance(small, 100, exact)
        assert improved >= 9

    def test_trajectory_and_state_sampling_agree(self):
        # The sampled distribution against the exact one, at 10,000 shots.
        circuit = bell()
        sampled = bitstring_counts(sample(circuit, shots=10000, seed=22).counts)
        exact = bitstring_counts(exact_distribution(circuit), EPS)
        assert tv_distance(sampled, 10000, exact) < 0.05


TELEPORT = """
qubits 3
rx 1.234 0
h 1
cx 1 2
cx 0 1
h 0
measure 0 -> 0
measure 1 -> 1
cif 1 x 2
cif 0 z 2
"""

FEEDFORWARD_RESET = """
qubits 2
ry 1.1 0
cx 0 1
ry 0.7 1
measure 0 -> 0
cif 0 x 1
"""

MEASURED_QFT = """
qubits 3
x 0
ry 0.4 2
h 0
cr1 1.5707963267948966 1 0
cr1 0.7853981633974483 2 0
h 1
cr1 1.5707963267948966 2 1
h 2
measure 0 -> 0
measure 1 -> 1
cif 0 x 1
measure 2 -> 2
cif 1 h 2
"""


def reset_loop(rounds):
    """`rounds` x (h, measure, reset by feed-forward), then a final h."""
    items = []
    for _ in range(rounds):
        items += [GateOp("h", (0,)), Measurement(0, 0),
                  GateOp("x", (0,), classical_condition=0)]
    return Circuit(1, 1, items + [GateOp("h", (0,))])


class TestShotSplitting:
    def test_measure_and_reset_loop_past_exact_cap(self):
        circuit = reset_loop(40)
        assert 40 > MAX_EXACT_BRANCHES
        with pytest.raises(CapacityError):
            exact_distribution(circuit)
        dist = sample(circuit, shots=400, seed=3)
        ones = bitstring_counts(dist.counts).get("1", 0)
        assert binomial_two_sided_pvalue(ones, 400, Fraction(1, 2)) > 0.01

    @pytest.mark.parametrize("text", [TELEPORT, FEEDFORWARD_RESET, MEASURED_QFT],
                             ids=["teleport", "feedforward-reset", "measured-qft"])
    @pytest.mark.parametrize("seed", range(5))
    def test_goodness_of_fit_to_exact(self, text, seed):
        circuit = parse_circuit(text)
        exact = bitstring_counts(exact_distribution(circuit), EPS)
        shots = 10000
        counts = bitstring_counts(sample(circuit, shots=shots, seed=seed).counts)
        assert set(counts) <= set(exact)
        statistic = sum((counts.get(k, 0) - shots * p) ** 2 / (shots * p)
                        for k, p in exact.items())
        assert chi_square_sf_quadrature(statistic, len(exact) - 1) > 1e-3

    def test_same_seed_same_counts(self):
        circuit = parse_circuit(MEASURED_QFT)
        for seed in (0, 9):
            a = sample(circuit, shots=3000, seed=seed)
            b = sample(circuit, shots=3000, seed=seed)
            assert np.array_equal(a.counts, b.counts)


def read_circuit(path: str) -> Circuit:
    return parse_circuit((ROOT / path).read_text())


# Runs whose checkpoints draw from a held state (bv, qft, wide20), that
# drop it at a mid-circuit measurement (teleport_corrected) or at a
# checkpoint that raises before it draws (middle-raises), or that list
# their qubits out of order (reordered).
HELD_RUNS = {
    "wide20": lambda: read_circuit("bench/circuits/wide20.qc"),
    "bv": build_bv,
    "bv-drop-setup-hadamard": lambda: build_bv(drop_setup_hadamard=True),
    "qft": build_qft,
    "teleport-corrected": lambda: read_circuit("bench/circuits/teleport_corrected.qc"),
    "reordered": lambda: read_circuit("tests/golden/reordered.qc"),
    "middle-raises": lambda: parse_circuit(
        "qubits 3\nh 0\nassert_uniform 0\nx 1\nh 2\n"
        "assert_uniform 0 1 2 shots=4\ncx 0 2\nassert_product [0] [2]\n"),
}


class TestHeldState:
    def test_probabilities_is_a_new_array(self):
        state = sim.new_state(2)
        sim.apply_gate(state, GateOp("h", (0,)))
        before = state.amplitudes.copy()
        probs = state.probabilities()
        probs[:] = 7.0
        assert not np.shares_memory(probs, state.amplitudes)
        assert np.array_equal(state.amplitudes, before)

    def test_drawing_twice_from_the_held_state_matches_a_fresh_sample(self):
        circuit = build_qft()
        upto = next(i for i, item in enumerate(circuit.items)
                    if isinstance(item, AssertionDirective))
        held = sim.new_state(circuit.n_qubits)
        first = sample(circuit, upto, 2000, 5, (held, 0))
        amplitudes = held.amplitudes.copy()
        second = sample(circuit, upto, 2000, 5, (held, upto))
        fresh = sample(circuit, upto, 2000, 5)
        assert np.array_equal(held.amplitudes, amplitudes)
        assert np.array_equal(first.counts, fresh.counts)
        assert np.array_equal(second.counts, fresh.counts)

    def test_a_measurement_in_between_drops_the_held_state(self, monkeypatch):
        circuit = parse_circuit(TELEPORT)
        held = sim.new_state(circuit.n_qubits)
        sample(circuit, 2, 100, 1, (held, 0))
        assert np.array_equal(sample(circuit, None, 3000, 1, (held, 2)).counts,
                              sample(circuit, None, 3000, 1).counts)
        # A run hands the checkpoint after a measurement no start.
        circuit = parse_circuit(TELEPORT.replace("measure 0", "assert_uniform 1\nmeasure 0")
                                + "assert_classical 0\n")
        starts = []
        real_sample = assertions.sample

        def recording(*args):
            starts.append(args[4])
            return real_sample(*args)

        monkeypatch.setattr(assertions, "sample", recording)
        assert run_program(circuit, ProgramConfig(seed=1)).n_errors == 0
        assert starts[0] is not None and starts[1] is None

    @pytest.mark.parametrize("name", HELD_RUNS)
    @pytest.mark.parametrize("seed", [1, 11, 12345])
    def test_run_report_equals_one_walk_per_checkpoint(self, name, seed, monkeypatch):
        circuit, config = HELD_RUNS[name](), ProgramConfig(seed=seed)
        held_json = render_report(run_program(circuit, config), "json")
        evaluate = runner.evaluate_checkpoint
        monkeypatch.setattr(runner, "evaluate_checkpoint",
                            lambda circuit, index, config, *held: evaluate(circuit, index, config))
        assert held_json == render_report(run_program(circuit, config), "json")

    def test_a_wide20_run_applies_each_gate_once(self, monkeypatch):
        circuit = read_circuit("bench/circuits/wide20.qc")
        calls = []
        apply_gate = sim.apply_gate

        def counting(state, gate):  # `walk` looks `apply_gate` up at each gate
            calls.append(gate)
            return apply_gate(state, gate)

        monkeypatch.setattr(sim, "apply_gate", counting)
        report = run_program(circuit, ProgramConfig(seed=1))
        assert report.n_errors == 0 and len(report.checkpoints) == 3
        assert len(calls) == len(set(map(id, calls))) == 19
