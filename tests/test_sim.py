"""State-vector simulator tests: gates, measurement, trajectories."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import apply_gate_mix, bitstring_counts, evolve_with_unitaries

from qassert import sim
from qassert.errors import CapacityError, CircuitError
from qassert.ir import GATES
from qassert.parser import parse_circuit, render_circuit
from qassert.sampling import exact_distribution, sample
from qassert.sim import (
    Circuit,
    GateOp,
    Measurement,
    apply_gate,
    measure_qubit,
    new_state,
    run_trajectory,
    walk,
)

SQRT1_2 = 1.0 / math.sqrt(2.0)


def rng_for(seed):
    return np.random.default_rng(seed)


def bell_circuit():
    return Circuit(2, 0, [GateOp("h", (0,)), GateOp("cx", (1,), controls=(0,))])


class TestNewState:
    def test_one_qubit_is_ket_zero(self):
        state = new_state(1)
        np.testing.assert_allclose(state.amplitudes, [1, 0])

    def test_two_qubits_is_ket_zero_zero(self):
        state = new_state(2)
        np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0])

    @pytest.mark.parametrize("n", [0, -1, 21, 100])
    def test_out_of_range_raises(self, n):
        with pytest.raises(CapacityError):
            new_state(n)


class TestApplyGate:
    def test_hadamard_on_zero(self):
        state = apply_gate(new_state(1), GateOp("h", (0,)))
        np.testing.assert_allclose(state.amplitudes, [SQRT1_2, SQRT1_2])

    def test_x_on_both_qubits_gives_ket_11(self):
        state = new_state(2)
        apply_gate(state, GateOp("x", (0,)))
        apply_gate(state, GateOp("x", (1,)))
        np.testing.assert_allclose(state.amplitudes, [0, 0, 0, 1])

    def test_bell_preparation(self):
        state = new_state(2)
        apply_gate(state, GateOp("h", (0,)))
        apply_gate(state, GateOp("cx", (1,), controls=(0,)))
        np.testing.assert_allclose(state.amplitudes, [SQRT1_2, 0, 0, SQRT1_2])

    def test_invalid_index_raises(self):
        with pytest.raises(IndexError):
            apply_gate(new_state(1), GateOp("x", (1,)))

    def test_angle_required_iff_parameterized(self):
        with pytest.raises(ValueError):
            GateOp("rx", (0,))
        with pytest.raises(ValueError):
            GateOp("x", (0,), angle=1.0)

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, angle):
        with pytest.raises(ValueError, match="finite"):
            GateOp("rx", (0,), angle=angle)

    def test_swap_exchanges_qubits(self):
        state = new_state(2)
        apply_gate(state, GateOp("x", (0,)))
        apply_gate(state, GateOp("swap", (0, 1)))
        np.testing.assert_allclose(state.amplitudes, [0, 1, 0, 0])  # |01>

    def test_rx_pi_flips(self):
        state = apply_gate(new_state(1), GateOp("rx", (0,), angle=math.pi))
        assert abs(state.amplitudes[1]) == pytest.approx(1.0, abs=1e-12)


class TestMeasureQubit:
    def test_deterministic_outcome(self):
        state = apply_gate(new_state(1), GateOp("x", (0,)))
        bit, post = measure_qubit(state, 0, rng_for(0))
        assert bit == 1
        np.testing.assert_allclose(post.amplitudes, [0, 1])

    def test_plus_state_frequency_over_seeded_trials(self):
        # binomial(10000, 0.5) concentrates well inside +/- 0.02
        ones = 0
        trials = 10000
        for i in range(trials):
            state = apply_gate(new_state(1), GateOp("h", (0,)))
            bit, _ = measure_qubit(state, 0, rng_for(i))
            ones += bit
        assert abs(ones / trials - 0.5) < 0.02

    def test_bell_collapse_to_00(self):
        for seed in range(50):
            state = new_state(2)
            apply_gate(state, GateOp("h", (0,)))
            apply_gate(state, GateOp("cx", (1,), controls=(0,)))
            bit, post = measure_qubit(state, 0, rng_for(seed))
            if bit == 0:
                np.testing.assert_allclose(post.amplitudes, [1, 0, 0, 0], atol=1e-12)
                return
        pytest.fail("no seed produced outcome 0 on a Bell state in 50 tries")

    def test_invalid_index_raises(self):
        with pytest.raises(IndexError):
            measure_qubit(new_state(1), 3, rng_for(0))


def teleport_circuit():
    """Teleports an rx(3.14) state from q0 to q2 (Bell pair on q1, q2)."""
    return Circuit(3, 2, [
        GateOp("rx", (0,), angle=3.14),
        GateOp("h", (1,)),
        GateOp("cx", (2,), controls=(1,)),
        GateOp("cx", (1,), controls=(0,)),
        GateOp("h", (0,)),
        Measurement(0, 0),
        Measurement(1, 1),
        GateOp("x", (2,), classical_condition=1),
        GateOp("z", (2,), classical_condition=0),
    ])


class TestRunTrajectory:
    def test_teleportation_delivers_the_state(self):
        # Oracle: exact distribution of the full circuit. The teleported qubit
        # must measure 1 with probability sin^2(3.14 / 2).
        expected_p1 = math.sin(3.14 / 2.0) ** 2
        dist = exact_distribution(teleport_circuit())
        p1 = sum(p for key, p in bitstring_counts(dist).items() if key[2] == "1")
        assert p1 == pytest.approx(expected_p1, abs=1e-9)

    def test_teleportation_per_trajectory_state(self):
        # Each trajectory's corrections land q2 in the same teleported state.
        expected_p1 = math.sin(3.14 / 2.0) ** 2
        for seed in range(20):
            state, _ = run_trajectory(teleport_circuit(), None, rng_for(seed))
            probs = state.probabilities()
            p1 = sum(float(probs[i]) for i in range(8) if (i >> 0) & 1)
            assert p1 == pytest.approx(expected_p1, abs=1e-9)

    def test_no_measurement_means_zero_bits(self):
        circuit = Circuit(2, 3, [GateOp("h", (0,)), GateOp("x", (1,))])
        state, bits = run_trajectory(circuit, None, rng_for(1))
        assert bits == [0, 0, 0]
        reference = new_state(2)
        apply_gate(reference, GateOp("h", (0,)))
        apply_gate(reference, GateOp("x", (1,)))
        np.testing.assert_allclose(state.amplitudes, reference.amplitudes)

    def test_x_then_measure_is_deterministic(self):
        circuit = Circuit(1, 1, [GateOp("x", (0,)), Measurement(0, 0)])
        for seed in range(10):
            _, bits = run_trajectory(circuit, None, rng_for(seed))
            assert bits == [1]

    def test_conditional_on_unwritten_bit_raises(self):
        circuit = Circuit(1, 1, [GateOp("x", (0,), classical_condition=0)])
        with pytest.raises(CircuitError):
            run_trajectory(circuit, None, rng_for(0))

    def test_upto_limits_execution(self):
        circuit = Circuit(1, 0, [GateOp("x", (0,)), GateOp("x", (0,))])
        state, _ = run_trajectory(circuit, 1, rng_for(0))
        np.testing.assert_allclose(state.amplitudes, [0, 1])

    def test_determinism_same_seed_same_result(self):
        circuit = teleport_circuit()
        state_a, bits_a = run_trajectory(circuit, None, rng_for(42))
        state_b, bits_b = run_trajectory(circuit, None, rng_for(42))
        assert bits_a == bits_b
        np.testing.assert_array_equal(state_a.amplitudes, state_b.amplitudes)


def five_measurements():
    items = []
    for q in range(5):
        items += [GateOp("h", (q,)), Measurement(q, q)]
    return Circuit(5, 5, items)


class TestWalk:
    def test_split_mode_leaves_bounded_by_shots(self):
        for seed in range(20):
            leaves = list(walk(five_measurements(), None, rng_for(seed), shots=3))
            assert len(leaves) <= 3
            assert sum(mass for _, mass, _ in leaves) == 3

    def test_split_mode_leaves_bounded_by_branches(self):
        leaves = list(walk(teleport_circuit(), None, rng_for(0), shots=10000))
        assert len(leaves) == 4
        assert sorted(tuple(sorted(bits.items())) for _, _, bits in leaves) == [
            ((0, a), (1, b)) for a in (0, 1) for b in (0, 1)]

    def test_exact_mode_masses_sum_to_one(self):
        leaves = list(walk(five_measurements()))
        assert len(leaves) == 32
        assert sum(mass for _, mass, _ in leaves) == pytest.approx(1.0, abs=1e-12)

    def test_impossible_branch_is_not_walked(self):
        circuit = Circuit(1, 1, [GateOp("x", (0,)), Measurement(0, 0)])
        [(state, mass, bits)] = walk(circuit, None, rng_for(0), shots=7)
        assert (mass, bits) == (7, {0: 1})
        np.testing.assert_allclose(state.amplitudes, [0, 1])


ONE_QUBIT_KINDS = ["h", "x", "y", "z", "s", "t", "rx", "ry", "rz", "r1"]
TWO_QUBIT_KINDS = ["cx", "cz", "cr1", "swap"]


def random_gate(rng, n_qubits):
    kind = rng.choice(ONE_QUBIT_KINDS + TWO_QUBIT_KINDS)
    qubits = rng.choice(n_qubits, size=2, replace=False)
    angle = float(rng.uniform(-math.pi, math.pi))
    if kind in {"cx", "cz"}:
        return GateOp(kind, (int(qubits[1]),), controls=(int(qubits[0]),))
    if kind == "cr1":
        return GateOp(kind, (int(qubits[1]),), controls=(int(qubits[0]),), angle=angle)
    if kind == "swap":
        return GateOp(kind, (int(qubits[0]), int(qubits[1])))
    if kind in {"rx", "ry", "rz", "r1"}:
        return GateOp(kind, (int(qubits[0]),), angle=angle)
    return GateOp(kind, (int(qubits[0]),))


class TestInvariants:
    @pytest.mark.parametrize("n_qubits,seed", [(2, 0), (4, 1), (6, 2), (8, 3)])
    def test_norm_preserved_over_random_circuit(self, n_qubits, seed):
        rng = rng_for(seed)
        state = new_state(n_qubits)
        for _ in range(100):
            apply_gate(state, random_gate(rng, n_qubits))
            assert abs(state.norm() - 1.0) < 1e-9

    @pytest.mark.parametrize("kind", ["h", "x", "y", "z", "cx", "cz", "swap"])
    def test_self_inverse_gates(self, kind):
        rng = rng_for(7)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        state = new_state(3)
        state.amplitudes = amps.copy()
        if kind in {"cx", "cz"}:
            gate = GateOp(kind, (2,), controls=(0,))
        elif kind == "swap":
            gate = GateOp(kind, (0, 2))
        else:
            gate = GateOp(kind, (1,))
        apply_gate(state, gate)
        apply_gate(state, gate)
        np.testing.assert_allclose(state.amplitudes, amps, atol=1e-12)

    def test_endianness_qubit0_is_leftmost(self):
        circuit = Circuit(2, 0, [GateOp("x", (0,))])
        dist = sample(circuit, shots=5, seed=0)
        assert bitstring_counts(dist.counts) == {"10": 5}


@st.composite
def gate_circuits(draw):
    """Gate-only circuits of 1-6 qubits over all 14 gate kinds."""
    n = draw(st.integers(1, 6))
    kinds = ONE_QUBIT_KINDS + (TWO_QUBIT_KINDS if n > 1 else [])
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=12)):
        q0, q1 = draw(st.permutations(range(n)))[:2] if n > 1 else (0, None)
        angle = (draw(st.floats(-2 * math.pi, 2 * math.pi))
                 if GATES[kind][2] else None)
        if kind == "swap":
            gates.append(GateOp(kind, (q0, q1)))
        elif kind in TWO_QUBIT_KINDS:
            gates.append(GateOp(kind, (q1,), controls=(q0,), angle=angle))
        else:
            gates.append(GateOp(kind, (q0,), angle=angle))
    return Circuit(n, 0, gates)


class TestKernelOracle:
    @settings(deadline=None)
    @given(circuit=gate_circuits(), seed=st.integers(0, 2**32 - 1))
    # Every qubit axis is indexed when a 1-qubit state meets any gate or a
    # 2-qubit state meets a controlled gate or a swap.
    @example(circuit=Circuit(1, 0, [GateOp("h", (0,)), GateOp("rx", (0,), angle=0.7)]),
             seed=0)
    @example(circuit=Circuit(2, 0, [GateOp("cx", (0,), controls=(1,)),
                                    GateOp("cz", (1,), controls=(0,)),
                                    GateOp("cr1", (0,), controls=(1,), angle=-1.2),
                                    GateOp("swap", (1, 0))]),
             seed=1)
    def test_apply_gate_matches_kronecker_oracle(self, circuit, seed):
        n = circuit.n_qubits
        rng = rng_for(seed)
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        amps /= np.linalg.norm(amps)
        state = new_state(n)
        state.amplitudes = amps.copy()
        for gate in circuit.items:
            apply_gate(state, gate)
        expected = evolve_with_unitaries(
            n, amps, [(g.kind, g.targets, g.controls, g.angle) for g in circuit.items])
        np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=1e-12)
        assert state.norm() == pytest.approx(1.0, abs=1e-12)
        assert parse_circuit(render_circuit(circuit)) == circuit


def every_gate(n, rng):
    """Every kind in GATES on every ordered choice of its qubits among n,
    each parameterised kind with a fresh angle."""
    for kind, (n_controls, n_targets, takes_angle, _) in GATES.items():
        for qubits in itertools.permutations(range(n), n_controls + n_targets):
            angle = float(rng.uniform(-2 * math.pi, 2 * math.pi)) if takes_angle else None
            yield GateOp(kind, qubits[n_controls:], qubits[:n_controls], angle)


X_MATRIX = np.array([[0, 1], [1, 0]], dtype=np.complex128)


class TestKernelBitExact:
    # At n = 1, and for two-qubit gates at n = 2, every axis of the tensor
    # is fixed, so _half returns 0-d views.
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
    def test_every_kernel_gives_the_floats_of_the_full_mix(self, n):
        rng = rng_for(n)
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        kinds = set()
        for gate in every_gate(n, rng):
            base = GATES[gate.kind][3]
            m = X_MATRIX if base == "x" else None if base is None else sim._gate_matrix(gate)
            expected = apply_gate_mix(amps, n, m, gate.targets, gate.controls)
            state = new_state(n)
            state.amplitudes = amps.copy()
            apply_gate(state, gate)
            assert np.array_equal(state.amplitudes, expected), gate
            kinds.add(gate.kind)
        assert kinds == {kind for kind, (c, t, _, _) in GATES.items() if c + t <= n}


class TestCircuitValidate:
    def test_valid_circuit_passes(self):
        teleport_circuit().validate()
        bell_circuit().validate()

    def test_bad_gate_index(self):
        with pytest.raises(CircuitError):
            Circuit(1, 0, [GateOp("x", (3,))]).validate()

    def test_conditional_before_write(self):
        circuit = Circuit(2, 1, [GateOp("x", (0,), classical_condition=0),
                                 Measurement(0, 0)])
        with pytest.raises(CircuitError):
            circuit.validate()

    def test_measurement_bit_range(self):
        with pytest.raises(CircuitError):
            Circuit(1, 1, [Measurement(0, 5)]).validate()


class TestUnvalidatedCircuitGuards:
    # `sample` and `measure_qubit` take circuits and qubits that no
    # validate() has seen; a negative index must not wrap to another qubit.
    def test_sample_rejects_negative_measured_qubit(self):
        circuit = Circuit(2, 1, [GateOp("x", (1,)), Measurement(-1, 0)])
        with pytest.raises(IndexError):
            sample(circuit, None, 10)

    def test_measure_qubit_rejects_negative_qubit(self):
        with pytest.raises(IndexError):
            measure_qubit(new_state(2), -1, rng_for(0))
