"""Built-in example circuits with assertion checkpoints and expected verdicts.

Each example places its checkpoints at the semantically meaningful points
(after setup, after the oracle/transform, before final measurement) and
records the verdict a correct implementation should produce. The bug
injections reproduce classic mistakes (a dropped Hadamard) so the checkpoint
trail can be watched pinpointing them. The fixed examples (bell, xgate,
teleport) are the circuit files shipped in `circuits/`; bv and qft take
parameters and are built here.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Callable

from .ir import AssertionDirective, AssertionKind, Circuit, GateOp, Measurement
from .parser import parse_circuit

_PI = 3.141592653589793


def _gate(kind: str, *qubits: int, angle: float | None = None,
          control: int | None = None) -> GateOp:
    controls = (control,) if control is not None else ()
    return GateOp(kind, targets=tuple(qubits), controls=controls, angle=angle)


def _check_bits(bits: str, what: str) -> str:
    if not bits or any(ch not in "01" for ch in bits):
        raise ValueError(f"{what} must be a non-empty string of 0/1, got {bits!r}")
    return bits


def _shipped(name: str) -> Circuit:
    """The fixed example shipped as circuits/<name>.qc, whose comments
    explain its checkpoints."""
    return parse_circuit(
        (resources.files(__package__) / "circuits" / f"{name}.qc").read_text(encoding="utf-8"))


def build_bell() -> Circuit:
    return _shipped("bell")


def build_xgate() -> Circuit:
    return _shipped("xgate")


def build_teleport() -> Circuit:
    return _shipped("teleport")


def build_bv(secret: str = "01011", drop_setup_hadamard: bool = False) -> Circuit:
    """Bernstein-Vazirani: recover a secret bitstring with one oracle query.

    Checkpoints: uniform + product (data vs auxiliary) after setup, the same
    pair after the oracle, and a classical check of the recovered secret at
    the end. The directives carry explicit critical p-values (0.01): for
    regression-checked true-null checkpoints a designer picks a stricter
    threshold than the interactive 0.05 default to cut false alarms.
    `drop_setup_hadamard` simulates forgetting the Hadamards on the data
    register, which the two uniform checkpoints catch.
    """
    secret = _check_bits(secret, "secret")
    n = len(secret)
    data = tuple(range(n))
    aux = n
    alpha = 0.01
    items: list = [
        _gate("x", aux),
        _gate("h", aux),
    ]
    if not drop_setup_hadamard:
        items.extend(_gate("h", q) for q in data)
    items.append(AssertionDirective(AssertionKind.UNIFORM, qubits=data,
                                    alpha=alpha, expected_verdict=True))
    items.append(AssertionDirective(AssertionKind.PRODUCT, group0=data,
                                    group1=(aux,), alpha=alpha,
                                    expected_verdict=True))
    for q, bit in enumerate(secret):
        if bit == "1":
            items.append(_gate("cx", aux, control=q))
    items.append(AssertionDirective(AssertionKind.UNIFORM, qubits=data,
                                    alpha=alpha, expected_verdict=True))
    items.append(AssertionDirective(AssertionKind.PRODUCT, group0=data,
                                    group1=(aux,), alpha=alpha,
                                    expected_verdict=True))
    items.extend(_gate("h", q) for q in data)
    items.append(AssertionDirective(AssertionKind.CLASSICAL, qubits=data,
                                    expected_bitstring=secret, alpha=alpha,
                                    expected_verdict=True))
    items.extend(Measurement(q, q) for q in data)
    return Circuit(n + 1, n, items)


def build_qft(input_bits: str = "10000", drop_qft_hadamard: bool = False) -> Circuit:
    """Quantum Fourier transform of a computational basis state.

    Checkpoints: classical + uniform right after the input state is prepared
    (expected: classical yes, uniform no) and the same pair after the
    transform (expected: classical no, uniform yes, since the transform of a
    basis state has uniform magnitudes). Directives carry an explicit 0.01
    critical p-value, as in build_bv. `drop_qft_hadamard` simulates
    forgetting the Hadamard inside the transform loop, after which the state
    never leaves the classical input.
    """
    input_bits = _check_bits(input_bits, "input_bits")
    n = len(input_bits)
    qubits = tuple(range(n))
    alpha = 0.01
    items: list = []
    for q, bit in enumerate(input_bits):
        if bit == "1":
            items.append(_gate("x", q))
    items.append(AssertionDirective(AssertionKind.CLASSICAL, qubits=qubits,
                                    expected_bitstring=input_bits, alpha=alpha,
                                    expected_verdict=True))
    items.append(AssertionDirective(AssertionKind.UNIFORM, qubits=qubits,
                                    alpha=alpha, expected_verdict=False))
    for i in range(n):
        if not drop_qft_hadamard:
            items.append(_gate("h", i))
        for j in range(i + 1, n):
            items.append(_gate("cr1", i, angle=2.0 * _PI / (1 << (j - i + 1)),
                               control=j))
    items.append(AssertionDirective(AssertionKind.CLASSICAL, qubits=qubits,
                                    alpha=alpha, expected_verdict=False))
    items.append(AssertionDirective(AssertionKind.UNIFORM, qubits=qubits,
                                    alpha=alpha, expected_verdict=True))
    items.extend(Measurement(q, q) for q in qubits)
    return Circuit(n, n, items)


@dataclass(frozen=True)
class Example:
    name: str
    description: str
    build: Callable[..., Circuit]
    params: tuple[str, ...] = ()
    bugs: tuple[str, ...] = ()


_EXAMPLES = {
    "bell": Example(
        "bell", "Bell pair; product checkpoint expects entanglement (fail)",
        build_bell),
    "xgate": Example(
        "xgate", "X on both qubits of |00>; product checkpoint expects pass "
        "(the legacy add-1 chi-square gets this wrong)",
        build_xgate),
    "teleport": Example(
        "teleport", "quantum teleportation; product checkpoint at the "
        "fully-entangled point expects fail",
        build_teleport),
    "bv": Example(
        "bv", "Bernstein-Vazirani with uniform/product/classical checkpoints",
        build_bv, params=("secret",), bugs=("drop-setup-hadamard",)),
    "qft": Example(
        "qft", "quantum Fourier transform of a basis state with "
        "classical/uniform checkpoints",
        build_qft, params=("input",), bugs=("drop-qft-hadamard",)),
}


def builtin_examples() -> dict[str, Example]:
    """All built-in examples, keyed by name."""
    return dict(_EXAMPLES)


def build_example(name: str, *, secret: str | None = None,
                  input_bits: str | None = None,
                  inject_bug: str | None = None) -> Circuit:
    """Construct a built-in example circuit, optionally with an injected bug."""
    if name not in _EXAMPLES:
        known = ", ".join(sorted(_EXAMPLES))
        raise KeyError(f"unknown example {name!r} (known: {known})")
    example = _EXAMPLES[name]
    if inject_bug is not None and inject_bug not in example.bugs:
        supported = ", ".join(example.bugs) if example.bugs else "none"
        raise KeyError(f"example {name!r} does not support bug {inject_bug!r} "
                       f"(supported: {supported})")
    if name == "bv":
        return build_bv(secret if secret is not None else "01011",
                        drop_setup_hadamard=inject_bug == "drop-setup-hadamard")
    if name == "qft":
        return build_qft(input_bits if input_bits is not None else "10000",
                         drop_qft_hadamard=inject_bug == "drop-qft-hadamard")
    if secret is not None or input_bits is not None:
        raise ValueError(f"example {name!r} takes no parameters")
    return example.build()
