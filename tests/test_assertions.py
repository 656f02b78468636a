"""Assertion checkpoint tests: classical, uniform, product, dispatch."""

import inspect

import numpy as np
import pytest
from oracles import count_vector

from qassert import assertions
from qassert.assertions import (
    AssertionDirective,
    AssertionKind,
    AssertionResult,
    assert_classical,
    assert_product,
    assert_uniform,
    build_contingency_table,
    default_shots,
    evaluate_checkpoint,
)
from qassert.errors import InfeasibleShotsError
from qassert.examples import build_bv, build_qft, build_teleport, build_xgate
from qassert.runner import ProgramConfig, run_program
from qassert.sampling import MeasurementDistribution
from qassert.sim import Circuit, GateOp, StateVector
from qassert.stats import TestMethod


def bell():
    return Circuit(2, 0, [GateOp("h", (0,)), GateOp("cx", (1,), controls=(0,))])


def hh():
    return Circuit(2, 0, [GateOp("h", (0,)), GateOp("h", (1,))])


def checkpoint_indices(circuit):
    return [i for i, item in enumerate(circuit.items)
            if isinstance(item, AssertionDirective)]


class TestDefaultShots:
    def test_per_kind_budgets(self):
        assert default_shots(AssertionKind.CLASSICAL) == 1000
        assert default_shots(AssertionKind.UNIFORM) == 10000
        assert default_shots(AssertionKind.PRODUCT) == 10000


class TestBuildContingencyTable:
    def test_direct_tabulation(self):
        dist = MeasurementDistribution(
            2, 1000, count_vector({"00": 300, "01": 200, "10": 250, "11": 250}))
        tbl = build_contingency_table(dist, [0], [1])
        assert tbl.cells.tolist() == [[300, 200], [250, 250]]

    def test_wide_table_shape(self):
        # five data qubits vs one auxiliary: 32 x 2, zero rows kept
        dist = MeasurementDistribution(6, 10, count_vector({"000000": 4, "111111": 6}))
        tbl = build_contingency_table(dist, [0, 1, 2, 3, 4], [5])
        assert tbl.cells.shape == (32, 2)
        assert tbl.total == 10
        assert tbl.cells[0, 0] == 4
        assert tbl.cells[31, 1] == 6

    def test_deterministic_state(self):
        dist = MeasurementDistribution(2, 1000, count_vector({"11": 1000}))
        tbl = build_contingency_table(dist, [0], [1])
        assert tbl.cells.tolist() == [[0, 0], [0, 1000]]

    def test_overlapping_groups_rejected(self):
        dist = MeasurementDistribution(2, 1, count_vector({"00": 1}))
        with pytest.raises(ValueError):
            build_contingency_table(dist, [0, 1], [1])

    def test_duplicate_within_group_rejected(self):
        dist = MeasurementDistribution(3, 1, count_vector({"000": 1}))
        with pytest.raises(ValueError):
            build_contingency_table(dist, [0, 0], [1])

    def test_empty_group_rejected(self):
        dist = MeasurementDistribution(2, 1, count_vector({"00": 1}))
        with pytest.raises(ValueError):
            build_contingency_table(dist, [], [1])


class TestAssertClassical:
    def test_deterministic_state_passes_with_p_one(self):
        circuit = build_xgate()
        result = assert_classical(circuit, None, [0, 1],
                                  expected_bitstring="11", shots=1000, seed=0)
        assert result.p_value.value == 1.0
        assert result.passed
        assert result.target_bitstring == "11"

    def test_mode_target_when_no_expectation(self):
        circuit = build_xgate()
        result = assert_classical(circuit, None, [0, 1], shots=1000, seed=0)
        assert result.target_bitstring == "11"
        assert result.passed

    def test_bv_final_register_is_the_secret(self):
        circuit = build_bv("01011")
        index = checkpoint_indices(circuit)[4]
        result = assert_classical(circuit, index, list(range(5)),
                                  expected_bitstring="01011", shots=10000, seed=0)
        assert result.passed
        assert result.p_value.value == 1.0

    def test_uniform_state_fails_hard(self):
        circuit = Circuit(1, 0, [GateOp("h", (0,))])
        result = assert_classical(circuit, None, [0], expected_bitstring="0",
                                  shots=10000, seed=3)
        assert result.p_value.value < 1e-100
        assert not result.passed

    def test_exact_tie_picks_the_lower_index(self, monkeypatch):
        # "01" and "10" tie as the mode; the first argmax is index 1, "01"
        tied = MeasurementDistribution(2, 10, count_vector({"01": 4, "10": 4, "11": 2}))
        monkeypatch.setattr(assertions, "sample", lambda *args: tied)
        result = assert_classical(hh(), None, [0, 1], shots=10, seed=0)
        assert result.target_bitstring == "01"
        assert result.p_value.degrees_of_freedom == 2
        reordered = assert_classical(hh(), None, [1, 0], shots=10, seed=0)
        assert reordered.target_bitstring == "01"

    def test_wrong_length_bitstring_rejected(self):
        with pytest.raises(ValueError):
            assert_classical(bell(), None, [0, 1], expected_bitstring="0")

    def test_stable_across_shot_budgets(self):
        # deterministic state: verdict must not depend on the budget
        circuit = build_xgate()
        for shots in (500, 1000, 10000):
            result = assert_classical(circuit, None, [0, 1],
                                      expected_bitstring="11", shots=shots, seed=1)
            assert result.passed, shots


class TestAssertUniform:
    def test_true_null_pass_rate(self):
        # H x H is exactly uniform: pass rate over seeds ~ 1 - alpha
        passes = sum(
            assert_uniform(hh(), None, [0, 1], shots=10000, seed=seed).passed
            for seed in range(100))
        assert passes >= 95

    def test_classical_state_fails_hard(self):
        result = assert_uniform(build_xgate(), None, [0, 1], shots=1000, seed=0)
        assert result.p_value.value < 1e-100
        assert not result.passed

    def test_qft_input_state_is_not_uniform(self):
        circuit = build_qft("10000")
        index = checkpoint_indices(circuit)[1]
        result = assert_uniform(circuit, index, list(range(5)), shots=10000, seed=0)
        assert not result.passed

    def test_infeasible_shots_error_names_requirement(self):
        circuit = Circuit(11, 0, [GateOp("h", (q,)) for q in range(11)])
        with pytest.raises(InfeasibleShotsError, match="2048"):
            assert_uniform(circuit, None, list(range(11)), shots=1000, seed=0)

    def test_low_expected_count_warns(self):
        with pytest.warns(UserWarning, match="below 5"):
            assert_uniform(hh(), None, [0, 1], shots=16, seed=0)


class TestAssertProduct:
    def test_xgate_qubits_are_independent(self):
        result = assert_product(build_xgate(), None, [0], [1], shots=1000, seed=0)
        assert result.p_value.value == 1.0
        assert result.passed
        assert result.p_value.method == TestMethod.FISHER_EXACT
        assert result.table_shape == (2, 2)

    def test_bell_state_is_entangled(self):
        result = assert_product(bell(), None, [0], [1], shots=1000, seed=0)
        assert result.p_value.value < 1e-6
        assert not result.passed

    def test_teleport_checkpoint_is_entangled(self):
        circuit = build_teleport()
        index = checkpoint_indices(circuit)[0]
        result = assert_product(circuit, index, [0], [1, 2], shots=1000,
                                resamples=999, seed=0)
        assert not result.passed
        assert result.p_value.method == TestMethod.MONTE_CARLO
        assert result.table_shape == (2, 4)

    def test_legacy_reroute(self):
        result = assert_product(build_xgate(), None, [0], [1], shots=1000,
                                seed=0, legacy_chisq=True)
        assert result.p_value.method == TestMethod.LEGACY_CHI_SQUARE_ADD1
        assert not result.passed

    def test_overlapping_groups_rejected(self):
        with pytest.raises(ValueError):
            assert_product(bell(), None, [0], [0, 1])


class TestEvaluateCheckpoint:
    def test_bv_setup_uniform_passes(self):
        circuit = build_bv("01011")
        index = checkpoint_indices(circuit)[0]
        result = evaluate_checkpoint(circuit, index, ProgramConfig(shots=10000))
        assert result.passed
        assert result.matches_expected is True

    def test_bv_without_setup_hadamard_fails_uniform(self):
        circuit = build_bv("01011", drop_setup_hadamard=True)
        indices = checkpoint_indices(circuit)
        config = ProgramConfig(shots=10000)
        first_uniform = evaluate_checkpoint(circuit, indices[0], config)
        second_uniform = evaluate_checkpoint(circuit, indices[2], config)
        assert not first_uniform.passed
        assert not second_uniform.passed
        assert first_uniform.matches_expected is False

    def test_qft_without_loop_hadamard_keeps_classical_state(self):
        circuit = build_qft("10000", drop_qft_hadamard=True)
        indices = checkpoint_indices(circuit)
        config = ProgramConfig()
        classical_after = evaluate_checkpoint(circuit, indices[2], config)
        uniform_after = evaluate_checkpoint(circuit, indices[3], config)
        assert classical_after.passed          # state never left the input
        assert not uniform_after.passed
        assert classical_after.matches_expected is False
        assert uniform_after.matches_expected is False

    def test_non_directive_index_rejected(self):
        circuit = build_bv("01011")
        with pytest.raises(ValueError):
            evaluate_checkpoint(circuit, 0, ProgramConfig())

    def test_shot_precedence_config_beats_directive(self):
        items = [GateOp("x", (0,)),
                 AssertionDirective(AssertionKind.CLASSICAL, qubits=(0,),
                                    shots=500)]
        circuit = Circuit(1, 0, items)
        result = evaluate_checkpoint(circuit, 1, ProgramConfig(shots=250))
        assert result.shots_used == 250
        result = evaluate_checkpoint(circuit, 1, ProgramConfig())
        assert result.shots_used == 500

    def test_directive_alpha_beats_config(self):
        items = [GateOp("x", (0,)),
                 AssertionDirective(AssertionKind.CLASSICAL, qubits=(0,), alpha=0.2)]
        circuit = Circuit(1, 0, items)
        result = evaluate_checkpoint(circuit, 1, ProgramConfig(alpha=0.01))
        assert result.alpha == 0.2


class TestVerdictSemantics:
    def test_determinism(self):
        circuit = bell()
        a = assert_product(circuit, None, [0], [1], shots=1000, seed=9)
        b = assert_product(circuit, None, [0], [1], shots=1000, seed=9)
        assert a == b

    def test_passed_is_pure_threshold_function(self):
        result = assert_uniform(hh(), None, [0, 1], shots=10000, seed=17)
        p = result.p_value.value
        assert 0.0 < p < 1.0
        below = assert_uniform(hh(), None, [0, 1], alpha=p * 0.5,
                               shots=10000, seed=17)
        above = assert_uniform(hh(), None, [0, 1], alpha=min(0.999, p * 1.5),
                               shots=10000, seed=17)
        assert below.p_value.value == p
        assert above.p_value.value == p
        assert below.passed and not above.passed

    def test_directive_validation(self):
        with pytest.raises(ValueError):
            AssertionDirective(AssertionKind.PRODUCT, group0=(0,), group1=(0,))
        with pytest.raises(ValueError):
            AssertionDirective(AssertionKind.PRODUCT, group0=(0, 0), group1=(1,))
        with pytest.raises(ValueError):
            AssertionDirective(AssertionKind.UNIFORM, qubits=())
        with pytest.raises(ValueError):
            AssertionDirective(AssertionKind.CLASSICAL, qubits=(0,), alpha=1.5)
        with pytest.raises(ValueError):
            AssertionDirective(AssertionKind.UNIFORM, qubits=(0,),
                               expected_bitstring="0")

    def test_result_is_dataclass_with_expected_fields(self):
        result = assert_product(build_xgate(), None, [0], [1], shots=100, seed=0)
        assert isinstance(result, AssertionResult)
        assert result.kind == AssertionKind.PRODUCT
        assert result.shots_used == 100
        assert result.group0 == (0,)
        assert result.group1 == (1,)


class TestOnePipeline:
    # Each call breaks a rule that AssertionDirective enforces. If accepted,
    # alpha outside (0, 1) would always fail or always pass, and an empty
    # qubit list would pass with p = 1.
    @pytest.mark.parametrize("call, message", [
        (lambda: assert_uniform(bell(), None, [0], alpha=5.0), "alpha"),
        (lambda: assert_classical(build_xgate(), None, [0, 1], alpha=0.0), "alpha"),
        (lambda: assert_classical(build_xgate(), None, [0, 1], alpha=-1.0), "alpha"),
        (lambda: assert_classical(bell(), None, []), "at least one qubit"),
        (lambda: assert_product(bell(), None, [0], [1], resamples=0), "resamples"),
        (lambda: assert_uniform(bell(), None, [0], shots=0), "shots must be >= 1"),
    ], ids=["uniform-alpha-5", "classical-alpha-0", "classical-alpha-negative",
            "classical-no-qubits", "product-resamples-0", "uniform-shots-0"])
    def test_library_calls_check_the_directive_rules(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    # Unchecked, shots=2.5 drew 2 shots and then failed on "counts sum to 2",
    # an int bitstring raised TypeError from len(), and shots=True ran 1 shot.
    # A str alpha and a non-integer seed raised a bare TypeError naming no
    # parameter, and a str verdict was accepted and then reported a mismatch.
    @pytest.mark.parametrize("call, message", [
        (lambda: assert_classical(build_xgate(), None, [0, 1], shots=2.5),
         "shots must be an integer, got 2.5"),
        (lambda: assert_product(bell(), None, [0], [1], resamples=9.5),
         "resamples must be an integer, got 9.5"),
        (lambda: assert_classical(build_xgate(), None, [0, 1], expected_bitstring=11),
         "expected_bitstring must be a string, got 11"),
        (lambda: run_program(build_xgate(), ProgramConfig(shots=2.5)),
         "shots must be an integer, got 2.5"),
        (lambda: assert_classical(build_xgate(), None, [0, 1], shots=True),
         "shots must be an integer, got True"),
        (lambda: run_program(build_xgate(), ProgramConfig(resamples=True)),
         "resamples must be an integer, got True"),
        (lambda: assert_uniform(bell(), None, [0], alpha="0.1"),
         "alpha must be a real number, got '0.1'"),
        (lambda: run_program(build_xgate(), ProgramConfig(alpha=True)),
         "alpha must be a real number, got True"),
        (lambda: AssertionDirective(AssertionKind.UNIFORM, qubits=(0,), expected_verdict="pass"),
         "expected_verdict must be a bool, got 'pass'"),
        (lambda: run_program(build_xgate(), ProgramConfig(seed="1")),
         "seed must be an integer, got '1'"),
        (lambda: assert_uniform(bell(), None, [0], seed=1.5),
         "seed must be an integer, got 1.5"),
        (lambda: assert_product(bell(), None, [0], [1], seed=True),
         "seed must be an integer, got True"),
    ], ids=["classical-shots-float", "product-resamples-float", "classical-bitstring-int",
            "config-shots-float", "classical-shots-bool", "config-resamples-bool",
            "uniform-alpha-str", "config-alpha-bool", "directive-verdict-str",
            "config-seed-str", "uniform-seed-float", "product-seed-bool"])
    def test_parameter_types_are_checked_before_any_draw(self, call, message, monkeypatch):
        monkeypatch.setattr(assertions, "sample", lambda *args: pytest.fail("sampled"))
        with pytest.raises(ValueError, match=message):
            call()

    def test_one_draw_per_checkpoint_from_the_runs_held_state(self, monkeypatch):
        calls = []
        real_sample = assertions.sample

        def counting(*args):
            calls.append(args)
            return real_sample(*args)

        monkeypatch.setattr(assertions, "sample", counting)
        circuit = build_bv("01011")
        report = run_program(circuit, ProgramConfig(shots=2000, resamples=99))
        assert [args[1] for args in calls] == checkpoint_indices(circuit)
        assert report.n_errors == 0
        held = calls[0][4][0]
        assert isinstance(held, StateVector)
        assert all(args[4][0] is held for args in calls)

    @pytest.mark.parametrize("fn", [assert_classical, assert_uniform, assert_product])
    def test_held_state_is_not_a_library_parameter(self, fn):
        assert "start" not in inspect.signature(fn).parameters
