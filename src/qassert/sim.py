"""Dense state-vector simulation with mid-circuit measurement.

Basis convention: basis index b encodes qubit i as bit (n_qubits - 1 - i),
so qubit 0 is the most significant bit and the leftmost character of a
formatted bitstring. Preparing |q0=1, q1=0> therefore reads "10".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, CircuitError
from .ir import GATES, QUBIT_CAP, Circuit, GateOp, Measurement

_SQRT1_2 = 1.0 / np.sqrt(2.0)
_FIXED_MATRICES = {
    "h": np.array([[1, 1], [1, -1]], dtype=np.complex128) * _SQRT1_2,
    "y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
    "s": np.array([[1, 0], [0, 1j]], dtype=np.complex128),
    "t": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=np.complex128),
}


def _rotation_matrix(kind: str, angle: float) -> np.ndarray:
    half = angle / 2.0
    c, s = np.cos(half), np.sin(half)
    if kind == "rx":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)
    if kind == "ry":
        return np.array([[c, -s], [s, c]], dtype=np.complex128)
    if kind == "rz":
        return np.array([[np.exp(-1j * half), 0], [0, np.exp(1j * half)]],
                        dtype=np.complex128)
    return np.array([[1, 0], [0, np.exp(1j * angle)]], dtype=np.complex128)  # r1


@dataclass(eq=False)
class StateVector:
    """Complex amplitudes over the 2^n_qubits computational basis."""

    n_qubits: int
    amplitudes: np.ndarray

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.amplitudes.copy())

    def probabilities(self) -> np.ndarray:
        probs = np.abs(self.amplitudes)
        return np.square(probs, out=probs)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def new_state(n_qubits: int) -> StateVector:
    """The all-zeros state |0...0>."""
    if not 0 < n_qubits <= QUBIT_CAP:
        raise CapacityError(f"n_qubits must be in 1..{QUBIT_CAP}, got {n_qubits}")
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


def _check_qubit(state: StateVector, q: int) -> None:
    # Public entry points take circuits that no validate() has seen, and a
    # negative index would silently address another qubit's axis.
    if not 0 <= q < state.n_qubits:
        raise IndexError(f"qubit index {q} out of range for {state.n_qubits} qubits")


def _half(state: StateVector, q: int, bit: int,
          controls: tuple[int, ...] = ()) -> np.ndarray:
    """Writable view of the amplitudes where qubit q reads `bit` and every
    control reads 1. Axis i of the (2,)*n tensor is qubit i; the trailing
    Ellipsis keeps the result a (0-d) view when every axis is fixed."""
    index = [slice(None)] * state.n_qubits
    for c in controls:
        index[c] = 1
    index[q] = bit
    return state.amplitudes.reshape((2,) * state.n_qubits)[(*index, ...)]


def _gate_matrix(gate: GateOp) -> np.ndarray:
    """The 2x2 matrix of the gate's base kind; x and swap only exchange halves."""
    _, _, takes_angle, base = GATES[gate.kind]
    return _rotation_matrix(base, gate.angle) if takes_angle else _FIXED_MATRICES[base]


def apply_gate(state: StateVector, gate: GateOp) -> StateVector:
    """Apply the gate's unitary in place, with the floats of the full 2x2 mix
    by a kernel per base kind; classical guards are the caller's job."""
    for q in gate.qubits():
        _check_qubit(state, q)
    base = GATES[gate.kind][3]
    if base is None:  # swap exchanges the |01> and |10> blocks
        a, b = gate.targets
        v0, v1 = _half(state, a, 0, (b,)), _half(state, b, 0, (a,))
    else:
        v0 = _half(state, gate.targets[0], 0, gate.controls)
        v1 = _half(state, gate.targets[0], 1, gate.controls)
    if base in (None, "x"):
        held = v0.copy()  # the views are disjoint, so one copy exchanges them
        v0[...], v1[...] = v1, held
        return state
    m = _gate_matrix(gate)
    if base == "h":  # m00 = m01 = m10 = -m11: two products instead of four
        a, b = m[0, 0] * v0, m[0, 1] * v1
        np.add(a, b, out=v0)
        np.subtract(a, b, out=v1)
    elif base in ("y", "rx", "ry"):
        new0 = m[0, 0] * v0 + m[0, 1] * v1
        v1[...] = m[1, 0] * v0 + m[1, 1] * v1
        v0[...] = new0
    else:  # diagonal, and m00 = 1 unless rz
        v1[...] = m[1, 1] * v1
        if base == "rz":
            v0[...] = m[0, 0] * v0
    return state


# A measurement branch at or below this probability is treated as impossible.
_BRANCH_EPS = 1e-15


def _prob_one(state: StateVector, q: int) -> float:
    """Probability that measuring qubit q reads 1, with near-impossible
    outcomes (at or below _BRANCH_EPS) snapped to exactly 0 or 1."""
    _check_qubit(state, q)  # walk and measure_qubit reach here unvalidated
    ones = _half(state, q, 1)
    p1 = min(max(float(np.vdot(ones, ones).real), 0.0), 1.0)
    if p1 <= _BRANCH_EPS:
        return 0.0
    return 1.0 if 1.0 - p1 <= _BRANCH_EPS else p1


def _collapse(state: StateVector, q: int, bit: int, p: float) -> StateVector:
    """Project qubit q onto `bit`, an outcome of probability p > 0, in place."""
    _half(state, q, 1 - bit)[...] = 0.0
    state.amplitudes /= np.sqrt(p)
    return state


def measure_qubit(state: StateVector, q: int,
                  rng: np.random.Generator) -> tuple[int, StateVector]:
    """Projective measurement: sample an outcome, collapse, renormalize."""
    p1 = _prob_one(state, q)
    bit = 1 if rng.random() < p1 else 0
    return bit, _collapse(state, q, bit, p1 if bit else 1.0 - p1)


def walk(circuit: Circuit, upto: int | None = None,
         rng: np.random.Generator | None = None, shots: int = 1,
         start: tuple[StateVector, int] | None = None):
    """Depth-first walk of the prefix items[:upto], branching at measurements.

    Yields one (state, mass, bits) leaf per live branch, where `bits` maps
    each written classical bit to its value on that branch. Gates with a
    classical condition fire only when their bit reads 1; reading a bit no
    measurement has written is a circuit-validity error. Assertion
    directives are skipped.

    Exact mode (no `rng`): mass is the branch's probability, and a
    measurement sends p1 and 1 - p1 of it down its two outcomes.
    Split mode: mass is a shot count, starting at `shots`, and a
    measurement sends `rng.binomial(mass, p1)` shots down the 1-branch and
    the rest down the 0-branch. A branch with no mass is never walked, so
    split mode has at most min(2^measurements, shots) leaves. The state is
    copied only where both outcomes stay live.

    `start` is a `(state, position)` pair: the walk then evolves that state,
    in place, through items[position:upto] instead of evolving |0...0>
    through the whole prefix. It must be the state of items[:position], and
    no measurement may lie before `position`, since no classical bit is
    known there.
    """
    items = circuit.items if upto is None else circuit.items[:upto]
    state, pos = start if start is not None else (new_state(circuit.n_qubits), 0)
    stack = [(state, {}, pos, 1.0 if rng is None else shots)]
    while stack:
        state, bits, pos, mass = stack.pop()
        for pos in range(pos, len(items)):
            item = items[pos]
            if isinstance(item, Measurement):
                q = item.qubit
                p1 = _prob_one(state, q)
                m1 = mass * p1 if rng is None else int(rng.binomial(mass, p1))
                m0 = mass - m1
                if m1 and m0:
                    other = _collapse(state.copy(), q, 0, 1.0 - p1)
                    stack.append((other, {**bits, item.cbit: 0}, pos + 1, m0))
                bit = 1 if m1 else 0
                _collapse(state, q, bit, p1 if bit else 1.0 - p1)
                bits[item.cbit] = bit
                mass = m1 if bit else m0
            elif isinstance(item, GateOp):
                cond = item.classical_condition
                if cond is not None:
                    # Circuit.validate's rule, kept for unvalidated callers of sample.
                    if cond not in bits:
                        raise CircuitError(f"conditional gate reads classical bit "
                                           f"{cond} before it is written")
                    if bits[cond] != 1:
                        continue
                apply_gate(state, item)
        yield state, mass, bits


def run_trajectory(circuit: Circuit, upto: int | None,
                   rng: np.random.Generator) -> tuple[StateVector, list[int]]:
    """Execute one stochastic trajectory of the circuit prefix items[:upto]:
    the walk of a single shot. Unwritten classical bits read 0."""
    state, _, bits = next(walk(circuit, upto, rng))
    return state, [bits.get(i, 0) for i in range(circuit.n_classical_bits)]


def bitstring(index: int, n_qubits: int) -> str:
    """Format a basis index with qubit 0 as the leftmost character."""
    return format(index, f"0{n_qubits}b")
