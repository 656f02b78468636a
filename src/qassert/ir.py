"""The circuit IR: gates, measurements and assertion directives in one
ordered item list.

Each rule about a single item is checked once, by that item's
constructor, which raises ValueError. Each rule that needs the whole
circuit (index ranges, classical bits written before they are read) is
checked once, by `Circuit.validate`, which raises CircuitError with the
position of the offending item.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from enum import Enum

from .errors import CircuitError

QUBIT_CAP = 20
# Classical bits a circuit may have; a measurement's bit index is below it.
CBIT_CAP = 1024

# Every gate kind: (controls, targets, takes an angle, the kind whose 2x2
# matrix it applies to its target, or None for swap). A circuit file lists
# its operands as angle, controls, targets.
GATES = {
    "h": (0, 1, False, "h"),
    "x": (0, 1, False, "x"),
    "y": (0, 1, False, "y"),
    "z": (0, 1, False, "z"),
    "s": (0, 1, False, "s"),
    "t": (0, 1, False, "t"),
    "rx": (0, 1, True, "rx"),
    "ry": (0, 1, True, "ry"),
    "rz": (0, 1, True, "rz"),
    "r1": (0, 1, True, "r1"),
    "cx": (1, 1, False, "x"),
    "cz": (1, 1, False, "z"),
    "cr1": (1, 1, True, "r1"),
    "swap": (0, 2, False, None),
}


def check_run_parameters(alpha: float | None = None, shots: int | None = None,
                         resamples: int | None = None, seed: int | None = None) -> None:
    """Check run parameters: alpha is a real number in (0, 1), shots and
    resamples are integers >= 1, and the seed is an integer; a bool is none
    of these. None stands for "use the default" and always passes."""
    if alpha is not None:
        if isinstance(alpha, bool) or not isinstance(alpha, numbers.Real):
            raise ValueError(f"alpha must be a real number, got {alpha!r}")
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    for name, value in (("shots", shots), ("resamples", resamples), ("seed", seed)):
        if value is not None and (isinstance(value, bool) or not hasattr(value, "__index__")):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    for name, count in (("shots", shots), ("resamples", resamples)):
        if count is not None and count < 1:
            raise ValueError(f"{name} must be >= 1, got {count}")


def _check_indices(indices: tuple) -> None:
    """Qubit and classical-bit indices are integers: anything that
    `operator.index` accepts."""
    try:
        list(map(operator.index, indices))
    except TypeError:
        raise ValueError(f"qubit and classical bit indices must be integers, "
                         f"got {list(indices)}") from None


@dataclass(frozen=True)
class GateOp:
    """One gate application: kind, qubits, optional angle and classical guard.

    `GATES[kind]` fixes how many `controls` and `targets` the gate takes and
    whether it takes an angle. A gate with `classical_condition` set is
    applied only when that classical bit holds 1 at execution time.
    """

    kind: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    angle: float | None = None
    classical_condition: int | None = None

    def __post_init__(self):
        spec = GATES.get(self.kind)
        if spec is None:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        n_controls, n_targets, takes_angle, _ = spec
        if (len(self.controls) != n_controls or len(self.targets) != n_targets
                or (self.angle is not None) != takes_angle):
            raise ValueError(
                f"gate {self.kind!r} takes {n_controls} control(s), {n_targets} "
                f"target(s) and {'an' if takes_angle else 'no'} angle, got controls "
                f"{list(self.controls)}, targets {list(self.targets)}, angle {self.angle}")
        qubits = self.qubits()
        cond = self.classical_condition
        _check_indices(qubits if cond is None else qubits + (cond,))
        if takes_angle and not math.isfinite(self.angle):
            raise ValueError(f"gate {self.kind!r}: angle must be finite, got {self.angle}")
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"gate {self.kind!r}: qubits must differ, got {list(qubits)}")

    def qubits(self) -> tuple[int, ...]:
        return self.targets + self.controls


@dataclass(frozen=True)
class Measurement:
    """Mid-circuit projective measurement of one qubit into a classical bit."""

    qubit: int
    cbit: int

    def __post_init__(self):
        _check_indices((self.qubit, self.cbit))


class AssertionKind(str, Enum):
    CLASSICAL = "CLASSICAL"
    UNIFORM = "UNIFORM"
    PRODUCT = "PRODUCT"


@dataclass(frozen=True)
class AssertionDirective:
    """A checkpoint embedded in a circuit's item list.

    CLASSICAL and UNIFORM assert over `qubits`; PRODUCT asserts independence
    between `group0` and `group1`. Fields left as None fall back to run
    configuration defaults. `expected_verdict` records what the circuit's
    author expects the assertion to return, for regression checking.
    """

    kind: AssertionKind
    qubits: tuple[int, ...] = ()
    group0: tuple[int, ...] = ()
    group1: tuple[int, ...] = ()
    alpha: float | None = None
    shots: int | None = None
    resamples: int | None = None
    expected_bitstring: str | None = None
    expected_verdict: bool | None = None

    def __post_init__(self):
        _check_indices(self.all_qubits())
        if self.kind == AssertionKind.PRODUCT:
            groups = (self.group0, self.group1)
            shared = sorted(set(self.group0) & set(self.group1))
            if shared:
                raise ValueError(f"product groups overlap: {shared}")
        else:
            groups = (self.qubits,)
        for group in groups:
            if not group:
                raise ValueError(f"{self.kind.value} assertion needs at least "
                                 "one qubit in each group")
            if len(set(group)) != len(group):
                raise ValueError(f"assertion qubits must be distinct, got {list(group)}")
        check_run_parameters(self.alpha, self.shots, self.resamples)
        if self.alpha is not None:  # reports are written as JSON
            object.__setattr__(self, "alpha", float(self.alpha))
        if self.resamples is not None and self.kind != AssertionKind.PRODUCT:
            raise ValueError("resamples only applies to product assertions")
        if self.expected_verdict is not None and not isinstance(self.expected_verdict, bool):
            raise ValueError(f"expected_verdict must be a bool, got {self.expected_verdict!r}")
        bits = self.expected_bitstring
        if bits is not None:
            if self.kind != AssertionKind.CLASSICAL:
                raise ValueError("expected_bitstring only applies to classical assertions")
            if not isinstance(bits, str):
                raise ValueError(f"expected_bitstring must be a string, got {bits!r}")
            if len(bits) != len(self.qubits) or any(ch not in "01" for ch in bits):
                raise ValueError(f"expected_bitstring {bits!r} must be "
                                 f"{len(self.qubits)} characters of 0/1")

    def all_qubits(self) -> tuple[int, ...]:
        return self.qubits + self.group0 + self.group1


@dataclass
class Circuit:
    """Ordered gate/measurement/assertion-directive program on n_qubits."""

    n_qubits: int
    n_classical_bits: int = 0
    items: list = field(default_factory=list)

    def validate(self) -> None:
        """Check the rules that span the circuit: the qubit and classical
        bit counts, every qubit and classical bit index in range, and every
        conditional gate reading a bit that an earlier measurement wrote."""
        if not 0 < self.n_qubits <= QUBIT_CAP:
            raise CircuitError(f"qubit count must be in 1..{QUBIT_CAP}, got {self.n_qubits}")
        written: set[int] = set()
        for pos, item in enumerate(self.items):
            if isinstance(item, GateOp):
                qubits = item.qubits()
            elif isinstance(item, Measurement):
                qubits = (item.qubit,)
            elif isinstance(item, AssertionDirective):
                qubits = item.all_qubits()
            else:
                raise CircuitError(f"unsupported item {item!r}", pos)
            for q in qubits:
                if not 0 <= q < self.n_qubits:
                    raise CircuitError(f"qubit index {q} out of range "
                                       f"(circuit has {self.n_qubits})", pos)
            if isinstance(item, Measurement):
                if item.cbit >= CBIT_CAP:
                    raise CircuitError(f"classical bit {item.cbit} exceeds the cap "
                                       f"of {CBIT_CAP} classical bits", pos)
                if not 0 <= item.cbit < self.n_classical_bits:
                    raise CircuitError(f"classical bit {item.cbit} out of range "
                                       f"(circuit has {self.n_classical_bits})", pos)
                written.add(item.cbit)
            elif isinstance(item, GateOp):
                # Only in-range bits are ever written, so this also
                # rejects an out-of-range condition.
                cond = item.classical_condition
                if cond is not None and cond not in written:
                    raise CircuitError(f"conditional gate reads classical bit {cond} "
                                       "before any measurement writes it", pos)
        # Checked after the items, so that a parsed circuit's error points
        # at the measurement whose bit set the count.
        if not 0 <= self.n_classical_bits <= CBIT_CAP:
            raise CircuitError(f"classical bit count must be in 0..{CBIT_CAP}, "
                               f"got {self.n_classical_bits}")
