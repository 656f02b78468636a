"""Circuit IR items built as library objects: per-item rules at construction,
and no exception escaping a run of a circuit that validates."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qassert import errors
from qassert.assertions import ProgramConfig
from qassert.errors import CircuitError, ParseError
from qassert.ir import (
    CBIT_CAP,
    AssertionDirective,
    AssertionKind,
    Circuit,
    GateOp,
    Measurement,
)
from qassert.parser import parse_circuit
from qassert.runner import run_program

# (controls, targets, takes an angle) per kind, written out independently of
# the package's own gate table.
SHAPES = {
    **{kind: (0, 1, False) for kind in ["h", "x", "y", "z", "s", "t"]},
    **{kind: (0, 1, True) for kind in ["rx", "ry", "rz", "r1"]},
    "cx": (1, 1, False), "cz": (1, 1, False), "cr1": (1, 1, True),
    "swap": (0, 2, False),
}

QASSERT_ERRORS = {name for name, obj in vars(errors).items()
                  if isinstance(obj, type) and issubclass(obj, errors.QAssertError)}

# Library-built gates that ran as some other gate, or raised an exception
# that escaped run_program, before GateOp checked its operand counts.
WRONG_OPERANDS = [
    dict(kind="cx", targets=(1,)),
    dict(kind="x", targets=(1,), controls=(0,)),
    dict(kind="cx", targets=(2,), controls=(0, 1)),
    dict(kind="h", targets=(0, 1)),
    dict(kind="swap", targets=(0,)),
    dict(kind="swap", targets=(0, 1, 2)),
    dict(kind="h", targets=()),
]


@pytest.mark.parametrize("fields", WRONG_OPERANDS)
def test_wrong_operand_count_is_rejected_at_construction(fields):
    with pytest.raises(ValueError, match=f"gate {fields['kind']!r} takes"):
        GateOp(**fields)


# Library-built items with an index that is not an integer. A gate on qubit
# 0.5 validated and then failed its checkpoint with a TypeError; a
# measurement into bit 1.0 was accepted and wrote bit 1.
NON_INTEGER_INDICES = [
    (GateOp, dict(kind="h", targets=(0.5,))),
    (GateOp, dict(kind="cx", targets=(1,), controls=(0.0,))),
    (GateOp, dict(kind="x", targets=(0,), classical_condition=1.0)),
    (Measurement, dict(qubit=0, cbit=1.0)),
    (Measurement, dict(qubit=0.0, cbit=0)),
    (AssertionDirective, dict(kind=AssertionKind.CLASSICAL, qubits=(0, 0.5))),
    (AssertionDirective, dict(kind=AssertionKind.PRODUCT, group0=("0",), group1=(1,))),
    (AssertionDirective, dict(kind=AssertionKind.PRODUCT, group0=(0,), group1=(1.5,))),
]


@pytest.mark.parametrize("cls, fields", NON_INTEGER_INDICES)
def test_non_integer_index_is_rejected_at_construction(cls, fields):
    with pytest.raises(ValueError, match="indices must be integers"):
        cls(**fields)


def test_classical_bits_are_capped():
    with pytest.raises(CircuitError, match="cap") as caught:
        Circuit(1, CBIT_CAP + 1, [GateOp("h", (0,)), Measurement(0, CBIT_CAP)]).validate()
    assert caught.value.item == 1
    with pytest.raises(CircuitError, match="classical bit count"):
        Circuit(1, CBIT_CAP + 1).validate()
    Circuit(1, CBIT_CAP, [Measurement(0, CBIT_CAP - 1)]).validate()


def test_a_circuit_file_over_the_classical_bit_cap_names_its_measure_line():
    with pytest.raises(ParseError, match="cap") as caught:
        parse_circuit("qubits 1\nh 0\nmeasure 0 -> 3000000\n")
    assert caught.value.line == 3
    circuit = parse_circuit(f"qubits 1\nmeasure 0 -> {CBIT_CAP - 1}\n")
    assert circuit.n_classical_bits == CBIT_CAP


@pytest.mark.parametrize("kind", [AssertionKind.CLASSICAL, AssertionKind.UNIFORM])
def test_resamples_only_applies_to_product_assertions(kind):
    with pytest.raises(ValueError, match="resamples"):
        AssertionDirective(kind, qubits=(0,), resamples=5)
    AssertionDirective(AssertionKind.PRODUCT, group0=(0,), group1=(1,), resamples=5)


def gate_is_valid(kind, targets, controls=(), angle=None, classical_condition=None):
    """The per-item gate rules: operand counts and angle by kind, a finite
    angle, integer indices, and distinct qubits."""
    n_controls, n_targets, takes_angle = SHAPES[kind]
    qubits = targets + controls
    indices = qubits + (() if classical_condition is None else (classical_condition,))
    return (len(controls) == n_controls and len(targets) == n_targets
            and (angle is not None) == takes_angle
            and (angle is None or math.isfinite(angle))
            and all(isinstance(i, int) for i in indices)
            and len(set(qubits)) == len(qubits))


# Each field's whole range: indices past both ends of every circuit drawn,
# 0-3 qubits or controls, a missing, extra or NaN angle, any option value.
_INDEX = st.integers(-1, 3)
_CBIT = st.integers(-1, 2)
_QUBITS = st.lists(_INDEX, max_size=3).map(tuple)
_ANGLE = st.none() | st.floats(-7.0, 7.0) | st.just(math.nan)
_OPTIONS = {
    "alpha": st.floats(0.0, 1.0) | st.just(math.nan),
    "shots": st.integers(0, 200),
    "resamples": st.integers(0, 30),
    "expected_bitstring": st.sampled_from(["", "0", "01", "2"]),
    "expected_verdict": st.booleans(),
}
# Well-formed values, which keep the drawn circuits long enough to run.
_FITTING_ANGLE = {True: st.floats(-7.0, 7.0), False: st.none()}
_FITTING = {
    "alpha": st.floats(0.001, 0.999), "shots": st.integers(1, 200),
    "resamples": st.integers(1, 30), "expected_verdict": st.booleans(),
}
_SIZES = {n: st.integers(0, n - 1) for n in range(1, 4)}
_ORDERS = {n: st.permutations(range(n)) for n in range(1, 4)}
_FITS = st.integers(0, 3)
_CLASSES = st.sampled_from([GateOp, Measurement, AssertionDirective])
_KINDS = st.sampled_from(sorted(SHAPES))
_ASSERTION_KINDS = st.sampled_from(AssertionKind)


@st.composite
def item_recipes(draw, n_qubits, n_bits):
    """An item class and its fields. Three items in four draw every field
    well formed, and the rest draw each from its whole range."""
    fits = draw(_FITS) > 0

    def qubits(size):
        if fits and size <= n_qubits:
            return tuple(draw(_ORDERS[n_qubits])[:size])
        return draw(_QUBITS)

    index = _SIZES[n_qubits] if fits else _INDEX
    cbit = _SIZES[n_bits] if fits and n_bits else _CBIT
    cls = draw(_CLASSES)
    if cls is GateOp:
        kind = draw(_KINDS)
        n_controls, n_targets, takes_angle = SHAPES[kind]
        angle = draw(_FITTING_ANGLE[takes_angle] if fits else _ANGLE)
        condition = draw(cbit) if draw(st.booleans()) else None
        return cls, dict(kind=kind, targets=qubits(n_targets), controls=qubits(n_controls),
                         angle=angle, classical_condition=condition)
    if cls is Measurement:
        return cls, dict(qubit=draw(index), cbit=draw(cbit))
    kind = draw(_ASSERTION_KINDS)
    fields = dict(kind=kind, qubits=qubits(draw(_SIZES[n_qubits]) + 1),
                  group0=qubits(1), group1=qubits(1))
    for key, whole in _OPTIONS.items():
        if not draw(st.booleans()):
            continue
        if not fits:
            fields[key] = draw(whole)
        elif key == "expected_bitstring" and kind == AssertionKind.CLASSICAL:
            fields[key] = "1" * len(fields["qubits"])
        elif key in _FITTING and (key != "resamples" or kind == AssertionKind.PRODUCT):
            fields[key] = draw(_FITTING[key])
    return cls, fields


@st.composite
def circuits(draw):
    """A qubit count, a classical bit count and up to 8 item recipes."""
    n_qubits, n_bits = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    return n_qubits, n_bits, draw(st.lists(item_recipes(n_qubits, n_bits), max_size=8))


def _classical_01(n_qubits, gate_fields):
    """A wrong-operand gate, then a check that qubits 0 and 1 read 01."""
    return n_qubits, 0, [(GateOp, gate_fields), (AssertionDirective, dict(
        kind=AssertionKind.CLASSICAL, qubits=(0, 1), expected_bitstring="01",
        expected_verdict=True))]


def _non_integer(n_qubits, n_bits, cls, fields):
    """A measurement into every bit, an item with a non-integer index, and a
    check that qubits 0 and 1 read 01."""
    return n_qubits, n_bits, [(Measurement, dict(qubit=0, cbit=b)) for b in range(n_bits)] + [
        (cls, fields), (AssertionDirective, dict(kind=AssertionKind.CLASSICAL, qubits=(0, 1),
                                                 expected_bitstring="01"))]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=circuits())
@example(case=_classical_01(2, WRONG_OPERANDS[0]))
@example(case=_classical_01(2, WRONG_OPERANDS[1]))
@example(case=_classical_01(3, WRONG_OPERANDS[2]))
@example(case=_classical_01(2, WRONG_OPERANDS[3]))
@example(case=_classical_01(2, WRONG_OPERANDS[4]))
@example(case=_classical_01(3, WRONG_OPERANDS[5]))
@example(case=_classical_01(2, WRONG_OPERANDS[6]))
@example(case=_non_integer(2, 0, *NON_INTEGER_INDICES[0]))
@example(case=_non_integer(2, 0, *NON_INTEGER_INDICES[1]))
@example(case=_non_integer(2, 2, *NON_INTEGER_INDICES[2]))
@example(case=_non_integer(2, 2, *NON_INTEGER_INDICES[3]))
@example(case=_non_integer(2, 1, *NON_INTEGER_INDICES[4]))
@example(case=_non_integer(2, 0, *NON_INTEGER_INDICES[5]))
@example(case=_non_integer(2, 0, *NON_INTEGER_INDICES[6]))
@example(case=_non_integer(2, 0, *NON_INTEGER_INDICES[7]))
def test_items_are_checked_and_no_exception_escapes_a_run(case):
    # A gate is rejected exactly when it breaks a per-item rule. Items the
    # circuit-wide rules reject are left out, and what remains is run.
    n_qubits, n_bits, recipes = case
    circuit = Circuit(n_qubits, n_bits)
    for cls, fields in recipes:
        valid = cls is not GateOp or gate_is_valid(**fields)
        try:
            item = cls(**fields)
        except ValueError:
            assert cls is not GateOp or not valid, f"valid gate rejected: {fields}"
            continue
        assert valid, f"invalid gate accepted: {fields}"
        circuit.items.append(item)
        try:
            circuit.validate()
        except CircuitError:
            circuit.items.pop()  # keep the circuit valid; the rest still runs
    report = run_program(circuit, ProgramConfig(shots=50, resamples=19))
    # Containment must not hide a bug: a checkpoint may only fail with one
    # of the package's own errors.
    for entry in report.checkpoints:
        assert entry.error is None or entry.error.split(":")[0] in QASSERT_ERRORS, entry.error
