"""Circuit file parsing, rendering, and round-trips."""

import re
from importlib import resources

import pytest

from qassert.assertions import AssertionDirective, AssertionKind
from qassert.errors import ParseError
from qassert.examples import build_bell, build_bv, build_qft, build_teleport, build_xgate
from qassert.ir import Circuit
from qassert.parser import parse_circuit, render_circuit
from qassert.sim import GateOp, Measurement


def shipped(name: str) -> str:
    return (resources.files("qassert") / "circuits" / f"{name}.qc").read_text()


# Every gate kind: well-formed operands on a 3-qubit circuit, and its usage.
GATE_STATEMENTS = [
    *[(kind, "0", f"{kind} Q") for kind in ["h", "x", "y", "z", "s", "t"]],
    *[(kind, "0.5 0", f"{kind} ANGLE Q") for kind in ["rx", "ry", "rz", "r1"]],
    ("cx", "0 1", "cx QC QT"),
    ("cz", "0 1", "cz QC QT"),
    ("cr1", "0.5 0 1", "cr1 ANGLE QC QT"),
    ("swap", "0 1", "swap Q1 Q2"),
]


class TestParse:
    def test_bell_with_product_assertion(self):
        circuit = parse_circuit(
            "qubits 2\nh 0\ncx 0 1\nassert_product [0] [1] alpha=0.05\n")
        assert circuit.n_qubits == 2
        assert circuit.items[0] == GateOp("h", (0,))
        assert circuit.items[1] == GateOp("cx", (1,), controls=(0,))
        directive = circuit.items[2]
        assert isinstance(directive, AssertionDirective)
        assert directive.kind == AssertionKind.PRODUCT
        assert directive.group0 == (0,)
        assert directive.group1 == (1,)
        assert directive.alpha == 0.05

    def test_comments_and_blank_lines_ignored(self):
        circuit = parse_circuit("# header\nqubits 1\n\nh 0  # trailing\n")
        assert len(circuit.items) == 1

    def test_measure_and_conditional(self):
        circuit = parse_circuit("qubits 2\nh 0\nmeasure 0 -> 0\ncif 0 x 1\n")
        assert circuit.items[1] == Measurement(0, 0)
        assert circuit.items[2] == GateOp("x", (1,), classical_condition=0)
        assert circuit.n_classical_bits == 1

    def test_rotation_angles(self):
        circuit = parse_circuit("qubits 2\nrx -1.5 0\ncr1 0.25 0 1\n")
        assert circuit.items[0].angle == -1.5
        assert circuit.items[1] == GateOp("cr1", (1,), controls=(0,), angle=0.25)

    def test_classical_assertion_options(self):
        circuit = parse_circuit(
            "qubits 2\nx 0\nassert_classical 0 1 expect=10 alpha=0.01 "
            "shots=500 verdict=pass\n")
        directive = circuit.items[1]
        assert directive.expected_bitstring == "10"
        assert directive.alpha == 0.01
        assert directive.shots == 500
        assert directive.expected_verdict is True

    def test_product_group_spacing_variants(self):
        a = parse_circuit("qubits 3\nassert_product [0 1] [2]\n").items[0]
        b = parse_circuit("qubits 3\nassert_product [ 0 1 ] [ 2 ]\n").items[0]
        c = parse_circuit("qubits 3\nassert_product [0 1 ][ 2]\n").items[0]
        assert a == b == c

    def test_shipped_bv_matches_builder(self):
        assert parse_circuit(shipped("bv")) == build_bv("01011")

    @pytest.mark.parametrize("name,builder", [
        ("bell", build_bell), ("xgate", build_xgate), ("teleport", build_teleport),
        ("qft", build_qft),
    ])
    def test_shipped_files_match_builders(self, name, builder):
        assert parse_circuit(shipped(name)) == builder()


class TestParseErrors:
    def test_unknown_gate_reports_line(self):
        with pytest.raises(ParseError) as exc_info:
            parse_circuit("qubits 1\nbadgate 0\n")
        assert exc_info.value.line == 2

    def test_missing_qubits_header(self):
        with pytest.raises(ParseError) as exc_info:
            parse_circuit("h 0\n")
        assert exc_info.value.line == 1

    def test_empty_file(self):
        with pytest.raises(ParseError):
            parse_circuit("# nothing here\n")

    def test_duplicate_qubits_declaration(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_circuit("qubits 1\nqubits 2\n")

    def test_qubit_count_range(self):
        with pytest.raises(ParseError):
            parse_circuit("qubits 0\n")
        with pytest.raises(ParseError):
            parse_circuit("qubits 21\n")

    @pytest.mark.parametrize("kind, operands, usage", GATE_STATEMENTS)
    @pytest.mark.parametrize("change", ["one too few", "one too many"])
    def test_bad_arity(self, kind, operands, usage, change):
        words = operands.split()
        words = words[:-1] if change == "one too few" else words + ["2"]
        with pytest.raises(ParseError, match=re.escape(usage)) as exc_info:
            parse_circuit(f"qubits 3\nh 0\n{' '.join([kind] + words)}\nx 1\n")
        assert exc_info.value.line == 3

    def test_index_out_of_range_with_column(self):
        with pytest.raises(ParseError) as exc_info:
            parse_circuit("qubits 2\nh 5\n")
        assert exc_info.value.line == 2
        assert exc_info.value.column == 3

    @pytest.mark.parametrize("text, column", [
        ("qubits 3\nassert_product [0 5] [1]\n", 19),
        ("qubits 3\nassert_product [0] [1  x 2]\n", 24),
    ], ids=["out-of-range", "not-an-integer"])
    def test_bad_qubit_in_group_points_at_the_qubit(self, text, column):
        with pytest.raises(ParseError, match="qubit index") as exc_info:
            parse_circuit(text)
        assert (exc_info.value.line, exc_info.value.column) == (2, column)

    def test_bad_angle(self):
        with pytest.raises(ParseError, match="angle"):
            parse_circuit("qubits 1\nrx abc 0\n")

    @pytest.mark.parametrize("text, column", [
        ("qubits 1\nrx nan 0\n", 4),
        ("qubits 1\nry inf 0\n", 4),
        ("qubits 1\nrz 1e400 0\n", 4),
        ("qubits 2\ncr1 -inf 0 1\n", 5),
    ])
    def test_non_finite_angle(self, text, column):
        # the error points at the angle token
        with pytest.raises(ParseError, match="finite") as exc_info:
            parse_circuit(text)
        assert (exc_info.value.line, exc_info.value.column) == (2, column)

    def test_non_finite_angle_in_conditional_gate(self):
        with pytest.raises(ParseError, match="finite") as exc_info:
            parse_circuit("qubits 2\nmeasure 0 -> 0\ncif 0 rx nan 1\n")
        assert (exc_info.value.line, exc_info.value.column) == (3, 10)

    def test_malformed_measure(self):
        with pytest.raises(ParseError, match="measure"):
            parse_circuit("qubits 1\nmeasure 0 0\n")

    def test_cif_before_write(self):
        with pytest.raises(ParseError, match="before"):
            parse_circuit("qubits 2\ncif 0 x 1\n")

    def test_unknown_assertion_option(self):
        with pytest.raises(ParseError, match="unknown option"):
            parse_circuit("qubits 1\nassert_uniform 0 expect=0\n")

    def test_alpha_out_of_range(self):
        with pytest.raises(ParseError, match="alpha"):
            parse_circuit("qubits 1\nassert_uniform 0 alpha=1.5\n")

    def test_unterminated_group(self):
        with pytest.raises(ParseError, match="unterminated"):
            parse_circuit("qubits 2\nassert_product [0 1\n")

    def test_stray_bracket_inside_group(self):
        with pytest.raises(ParseError, match="qubit index"):
            parse_circuit("qubits 2\nassert_product [0 [1]\n")

    def test_overlapping_product_groups(self):
        with pytest.raises(ParseError, match="overlap"):
            parse_circuit("qubits 2\nassert_product [0 1] [1]\n")

    def test_bad_verdict_value(self):
        with pytest.raises(ParseError, match="verdict"):
            parse_circuit("qubits 1\nassert_uniform 0 verdict=yes\n")

    def test_duplicate_gate_qubits(self):
        with pytest.raises(ParseError):
            parse_circuit("qubits 2\ncx 1 1\n")


# Statements before and after the offending one, so that the reported line
# is not the statement's item position.
_BEFORE = "qubits 3\n# setup\nh 0\n\nmeasure 0 -> 0\n"
_AFTER = "x 2\nmeasure 1 -> 1\n"


@pytest.mark.parametrize("text, line, keyword", [
    ("qubits 2\ncif 0 x 1\n", 2, "before"),
    (_BEFORE + "cif 1 x 2\n" + _AFTER, 6, "before"),
    (_BEFORE + "cx 1 1\n" + _AFTER, 6, "differ"),
    (_BEFORE + "cr1 0.5 1 1\n" + _AFTER, 6, "differ"),
    (_BEFORE + "swap 0 0\n" + _AFTER, 6, "differ"),
    (_BEFORE + "assert_product [0 1] [1 2]\n" + _AFTER, 6, "overlap: [1]"),
    (_BEFORE + "assert_uniform 0 alpha=1.5\n" + _AFTER, 6, "alpha"),
    (_BEFORE + "assert_uniform 0 shots=0\n" + _AFTER, 6, "shots"),
    (_BEFORE + "assert_product [0] [1] resamples=0\n" + _AFTER, 6, "resamples"),
    (_BEFORE + "measure 0 -> -1\n" + _AFTER, 6, "-1"),
    (_BEFORE + "assert_classical 0 expect=2\n" + _AFTER, 6, "0/1"),
])
def test_ir_checks_report_the_statement_line(text, line, keyword):
    # These rules live in the circuit types; the parser maps their errors
    # back to the source line of the offending statement.
    with pytest.raises(ParseError) as exc_info:
        parse_circuit(text)
    assert exc_info.value.line == line
    assert keyword in str(exc_info.value)
    assert "item" not in str(exc_info.value)


KITCHEN_SINK = """\
qubits 4
h 0
x 1
y 2
z 3
s 0
t 1
rx 0.5 0
ry -0.25 1
rz 3.141592653589793 2
r1 1.0 3
cx 0 1
cz 1 2
cr1 0.785 2 3
swap 0 3
measure 0 -> 0
measure 1 -> 2
cif 0 h 1
cif 2 rx 0.1 2
assert_classical 0 1 expect=01 alpha=0.01 shots=600 verdict=fail
assert_uniform 2 3 alpha=0.2 shots=4000 verdict=pass
assert_product [0 1] [2 3] alpha=0.05 shots=2000 resamples=99 verdict=pass
"""


class TestRoundTrip:
    def test_kitchen_sink_round_trips(self):
        circuit = parse_circuit(KITCHEN_SINK)
        rendered = render_circuit(circuit)
        assert parse_circuit(rendered) == circuit

    def test_render_is_canonical_fixed_point(self):
        circuit = parse_circuit(KITCHEN_SINK)
        once = render_circuit(circuit)
        twice = render_circuit(parse_circuit(once))
        assert once == twice

    @pytest.mark.parametrize("kind, operands, usage", GATE_STATEMENTS)
    def test_conditional_gate_of_each_kind_round_trips(self, kind, operands, usage):
        text = f"qubits 3\nmeasure 2 -> 0\ncif 0 {kind} {operands}\n"
        circuit = parse_circuit(text)
        assert render_circuit(circuit) == text
        assert parse_circuit(render_circuit(circuit)) == circuit

    @pytest.mark.parametrize("kind", list(AssertionKind))
    def test_every_option_a_directive_accepts_round_trips(self, kind):
        # A directive must not hold an option that its statement cannot
        # spell, such as resamples on a classical assertion.
        groups = (dict(group0=(0,), group1=(1,)) if kind == AssertionKind.PRODUCT
                  else dict(qubits=(0, 1)))
        accepted = {}
        for key, value in dict(alpha=0.05, shots=300, resamples=5, expected_bitstring="01",
                               expected_verdict=False).items():
            try:
                AssertionDirective(kind, **groups, **{key: value})
            except ValueError:
                continue
            accepted[key] = value
        circuit = Circuit(2, 0, [AssertionDirective(kind, **groups, **accepted)])
        assert parse_circuit(render_circuit(circuit)) == circuit

    @pytest.mark.parametrize("name", ["bell", "xgate", "teleport", "bv", "qft"])
    def test_shipped_files_round_trip(self, name):
        text = shipped(name)
        circuit = parse_circuit(text)
        assert parse_circuit(render_circuit(circuit)) == circuit
