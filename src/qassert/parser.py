"""Line-based circuit file format.

One statement per line, `#` starts a comment, whitespace separates tokens:

    qubits N
    h|x|y|z|s|t Q
    rx|ry|rz|r1 ANGLE Q
    cx|cz QC QT
    cr1 ANGLE QC QT
    swap Q1 Q2
    measure Q -> CB
    cif CB GATE...
    assert_classical Q... [expect=BITS] [alpha=A] [shots=S] [verdict=pass|fail]
    assert_uniform Q... [alpha=A] [shots=S] [verdict=pass|fail]
    assert_product [Q...] [Q...] [alpha=A] [shots=S] [resamples=R] [verdict=pass|fail]

A gate lists its angle, controls and targets in that order, with the
counts `ir.GATES` gives its kind. Angles are decimal radians. The `qubits`
declaration must come first.
`cif CB` applies the rest of the line only when classical bit CB is 1.
"""

from __future__ import annotations

import re

from .errors import CircuitError, ParseError
from .ir import GATES, AssertionDirective, AssertionKind, Circuit, GateOp, Measurement

# A bracket is a token of its own, so `[0 1]`, `[ 0 1 ]` and `[0][1]` split alike.
_TOKEN = re.compile(r"[\[\]]|[^\s\[\]]+")

_ASSERT_KINDS = {
    "assert_classical": AssertionKind.CLASSICAL,
    "assert_uniform": AssertionKind.UNIFORM,
    "assert_product": AssertionKind.PRODUCT,
}


class _Statement:
    """Tokens of one source line with 1-based column positions."""

    def __init__(self, line_no: int, tokens: list[tuple[str, int]]):
        self.line_no = line_no
        self.tokens = tokens

    def error(self, message: str, pos: int | None = None) -> ParseError:
        if pos is None or pos >= len(self.tokens):
            column = self.tokens[-1][1] + len(self.tokens[-1][0]) if self.tokens else 1
        else:
            column = self.tokens[pos][1]
        return ParseError(message, self.line_no, column)


def _tokenize(text: str) -> list[_Statement]:
    statements = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = [(m.group(), m.start() + 1) for m in _TOKEN.finditer(line)]
        if tokens:
            statements.append(_Statement(line_no, tokens))
    return statements


def _usage(kind: str) -> str:
    """A gate statement's operand template, such as `cr1 ANGLE QC QT`."""
    n_controls, n_targets, takes_angle, _ = GATES[kind]
    target = "QT" if n_controls else "Q"
    targets = [target] if n_targets == 1 else [f"{target}{i + 1}" for i in range(n_targets)]
    return " ".join([kind] + ["ANGLE"] * takes_angle + ["QC"] * n_controls + targets)


class _Parser:
    """Syntax and token-level checks only. Every rule of the circuit IR is
    checked by its constructors and by Circuit.validate, whose errors are
    mapped back to the statement that made the offending item."""

    def __init__(self):
        self.n_qubits = 0
        self.items: list = []
        self.sources: list[_Statement] = []  # the statement of each item
        self.max_cbit = -1

    def parse_int(self, stmt: _Statement, pos: int, what: str) -> int:
        token = stmt.tokens[pos][0]
        try:
            return int(token)
        except ValueError:
            raise stmt.error(f"expected {what}, got {token!r}", pos) from None

    def parse_qubit(self, stmt: _Statement, pos: int) -> int:
        # Circuit.validate checks this too; here the error points at the token.
        q = self.parse_int(stmt, pos, "a qubit index")
        if not 0 <= q < self.n_qubits:
            raise stmt.error(
                f"qubit index {q} out of range (circuit has {self.n_qubits})", pos)
        return q

    def parse_angle(self, stmt: _Statement, pos: int) -> float:
        token = stmt.tokens[pos][0]
        try:
            return float(token)
        except ValueError:
            raise stmt.error(f"expected an angle in radians, got {token!r}", pos) from None

    def parse_gate(self, stmt: _Statement, offset: int,
                   condition: int | None) -> GateOp:
        """Parse the gate at stmt.tokens[offset:]: its kind, then its angle,
        controls and targets, in that order."""
        kind = stmt.tokens[offset][0]
        spec = GATES.get(kind)
        if spec is None:
            raise stmt.error(f"unknown gate {kind!r}", offset)
        n_controls, n_targets, takes_angle, _ = spec
        pos = offset + 1
        count = takes_angle + n_controls + n_targets
        if len(stmt.tokens) - pos != count:
            raise stmt.error(f"{kind!r} takes {count} argument(s): {_usage(kind)}",
                             pos if len(stmt.tokens) > pos else offset)
        angle = self.parse_angle(stmt, pos) if takes_angle else None
        qubits = tuple([self.parse_qubit(stmt, p)
                        for p in range(pos + takes_angle, len(stmt.tokens))])
        try:
            return GateOp(kind, qubits[n_controls:], qubits[:n_controls], angle, condition)
        except ValueError as exc:
            raise stmt.error(str(exc), pos) from None

    def parse_options(self, stmt: _Statement, start: int, kind: AssertionKind) -> dict:
        allowed = {"alpha", "shots", "verdict"}
        if kind == AssertionKind.CLASSICAL:
            allowed.add("expect")
        if kind == AssertionKind.PRODUCT:
            allowed.add("resamples")
        options: dict = {}
        for pos in range(start, len(stmt.tokens)):
            token = stmt.tokens[pos][0]
            if "=" not in token:
                raise stmt.error(f"expected KEY=VALUE option, got {token!r}", pos)
            key, _, value = token.partition("=")
            if key not in allowed:
                raise stmt.error(f"unknown option {key!r} for {kind.value.lower()} "
                                 f"assertion", pos)
            if key in options:
                raise stmt.error(f"duplicate option {key!r}", pos)
            if key == "alpha":
                try:
                    options["alpha"] = float(value)
                except ValueError:
                    raise stmt.error(f"alpha must be a number, got {value!r}", pos) from None
            elif key in {"shots", "resamples"}:
                try:
                    options[key] = int(value)
                except ValueError:
                    raise stmt.error(f"{key} must be an integer, got {value!r}", pos) from None
            elif key == "expect":
                options["expect"] = value
            elif key == "verdict":
                if value not in {"pass", "fail"}:
                    raise stmt.error(f"verdict must be 'pass' or 'fail', got {value!r}", pos)
                options["verdict"] = value == "pass"
        return options

    def parse_group(self, stmt: _Statement, pos: int) -> tuple[tuple[int, ...], int]:
        """Parse a bracketed qubit group like `[0 1 2]` starting at token pos;
        return its qubits and the position after its `]`."""
        words = [token for token, _ in stmt.tokens]
        if words[pos:pos + 1] != ["["]:
            raise stmt.error("expected a bracketed qubit group like [0 1]", pos)
        if "]" not in words[pos:]:
            raise stmt.error("unterminated qubit group (missing ']')", pos)
        end = words.index("]", pos)
        if end == pos + 1:
            raise stmt.error("qubit group must not be empty", pos)
        return tuple(self.parse_qubit(stmt, p) for p in range(pos + 1, end)), end + 1

    def parse_assertion(self, stmt: _Statement) -> AssertionDirective:
        kind = _ASSERT_KINDS[stmt.tokens[0][0]]
        qubits: list[int] = []
        group0 = group1 = ()
        if kind == AssertionKind.PRODUCT:
            group0, pos = self.parse_group(stmt, 1)
            group1, pos = self.parse_group(stmt, pos)
        else:
            pos = 1
            while pos < len(stmt.tokens) and "=" not in stmt.tokens[pos][0]:
                qubits.append(self.parse_qubit(stmt, pos))
                pos += 1
            if not qubits:
                raise stmt.error("assertion needs at least one qubit index", pos)
        options = self.parse_options(stmt, pos, kind)
        try:
            return AssertionDirective(
                kind, qubits=tuple(qubits), group0=group0, group1=group1,
                alpha=options.get("alpha"), shots=options.get("shots"),
                resamples=options.get("resamples"),
                expected_bitstring=options.get("expect"),
                expected_verdict=options.get("verdict"))
        except ValueError as exc:
            raise stmt.error(str(exc), 0) from None

    def parse_statement(self, stmt: _Statement) -> None:
        head = stmt.tokens[0][0]
        if head == "qubits":
            raise stmt.error("duplicate 'qubits' declaration", 0)
        if head == "measure":
            if (len(stmt.tokens) != 4 or stmt.tokens[2][0] != "->"):
                raise stmt.error("usage: measure Q -> CB", 0)
            q = self.parse_qubit(stmt, 1)
            cbit = self.parse_int(stmt, 3, "a classical bit index")
            self.max_cbit = max(self.max_cbit, cbit)
            item = Measurement(q, cbit)
        elif head == "cif":
            if len(stmt.tokens) < 3:
                raise stmt.error("usage: cif CB GATE...", 0)
            cbit = self.parse_int(stmt, 1, "a classical bit index")
            item = self.parse_gate(stmt, 2, condition=cbit)
        elif head in _ASSERT_KINDS:
            item = self.parse_assertion(stmt)
        else:
            item = self.parse_gate(stmt, 0, condition=None)
        self.items.append(item)
        self.sources.append(stmt)

    def validate(self, circuit: Circuit, header: _Statement) -> None:
        try:
            circuit.validate()
        except CircuitError as exc:
            if exc.item is None:  # the qubit count
                raise header.error(exc.message, 1) from None
            raise self.sources[exc.item].error(exc.message, 0) from None

    def run(self, text: str) -> Circuit:
        statements = _tokenize(text)
        if not statements:
            raise ParseError("empty circuit file (expected 'qubits N')", 1)
        first = statements[0]
        if first.tokens[0][0] != "qubits":
            raise first.error("circuit file must start with 'qubits N'", 0)
        if len(first.tokens) != 2:
            raise first.error("usage: qubits N", 0)
        self.n_qubits = self.parse_int(first, 1, "a qubit count")
        circuit = Circuit(self.n_qubits, 0, self.items)
        self.validate(circuit, first)  # the count, before any qubit index
        for stmt in statements[1:]:
            self.parse_statement(stmt)
        circuit.n_classical_bits = self.max_cbit + 1
        self.validate(circuit, first)
        return circuit


def parse_circuit(text: str) -> Circuit:
    """Parse circuit-file text into a validated Circuit."""
    return _Parser().run(text)


def _format_options(directive: AssertionDirective) -> str:
    parts = []
    if directive.expected_bitstring is not None:
        parts.append(f"expect={directive.expected_bitstring}")
    if directive.alpha is not None:
        parts.append(f"alpha={directive.alpha!r}")
    if directive.shots is not None:
        parts.append(f"shots={directive.shots}")
    if directive.resamples is not None:
        parts.append(f"resamples={directive.resamples}")
    if directive.expected_verdict is not None:
        parts.append(f"verdict={'pass' if directive.expected_verdict else 'fail'}")
    return (" " + " ".join(parts)) if parts else ""


def render_circuit(circuit: Circuit) -> str:
    """Canonical circuit-file text; parse(render(c)) == c."""
    lines = [f"qubits {circuit.n_qubits}"]
    for item in circuit.items:
        if isinstance(item, Measurement):
            lines.append(f"measure {item.qubit} -> {item.cbit}")
        elif isinstance(item, AssertionDirective):
            if item.kind == AssertionKind.PRODUCT:
                g0 = " ".join(str(q) for q in item.group0)
                g1 = " ".join(str(q) for q in item.group1)
                lines.append(f"assert_product [{g0}] [{g1}]{_format_options(item)}")
            else:
                name = ("assert_classical" if item.kind == AssertionKind.CLASSICAL
                        else "assert_uniform")
                qs = " ".join(str(q) for q in item.qubits)
                lines.append(f"{name} {qs}{_format_options(item)}")
        else:
            words = [item.kind] if item.classical_condition is None else \
                ["cif", str(item.classical_condition), item.kind]
            if item.angle is not None:
                words.append(repr(item.angle))
            words += (str(q) for q in item.controls + item.targets)
            lines.append(" ".join(words))
    return "\n".join(lines) + "\n"
