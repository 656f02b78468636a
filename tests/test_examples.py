"""Built-in example structure: checkpoint placements and expected verdicts."""

import time
from importlib import resources

import pytest

from qassert.assertions import AssertionDirective, AssertionKind
from qassert.examples import build_bv, build_example, build_qft, builtin_examples
from qassert.parser import parse_circuit
from qassert.runner import ProgramConfig, run_program


def directives(circuit):
    return [item for item in circuit.items if isinstance(item, AssertionDirective)]


def test_catalog_names():
    assert set(builtin_examples()) == {"bell", "xgate", "teleport", "bv", "qft"}


def test_unknown_example_is_lookup_error():
    with pytest.raises(KeyError, match="ghz9"):
        build_example("ghz9")


@pytest.mark.parametrize("name, build", [("bv", build_bv), ("qft", build_qft)])
def test_shipped_circuit_file_equals_the_default_build(name, build):
    # bv and qft are built in code; their files in circuits/ are a second
    # source of the same default circuit and must not drift from it.
    text = (resources.files("qassert") / "circuits" / f"{name}.qc").read_text(encoding="utf-8")
    assert parse_circuit(text) == build()


def test_qft_expected_verdicts_are_tfft():
    circuit = build_example("qft", input_bits="10000")
    kinds = [(d.kind, d.expected_verdict) for d in directives(circuit)]
    assert kinds == [(AssertionKind.CLASSICAL, True), (AssertionKind.UNIFORM, False),
                     (AssertionKind.CLASSICAL, False), (AssertionKind.UNIFORM, True)]


def test_teleport_expects_entanglement():
    circuit = build_example("teleport")
    (directive,) = directives(circuit)
    assert directive.kind == AssertionKind.PRODUCT
    assert directive.expected_verdict is False
    assert directive.group0 == (0,)
    assert directive.group1 == (1, 2)


def test_bv_has_five_checkpoints_in_order():
    circuit = build_example("bv", secret="110")
    kinds = [d.kind for d in directives(circuit)]
    assert kinds == [AssertionKind.UNIFORM, AssertionKind.PRODUCT,
                     AssertionKind.UNIFORM, AssertionKind.PRODUCT,
                     AssertionKind.CLASSICAL]
    assert directives(circuit)[4].expected_bitstring == "110"


def test_bv_secret_validation():
    with pytest.raises(ValueError):
        build_example("bv", secret="01x")


def test_parameters_rejected_for_fixed_examples():
    with pytest.raises(ValueError):
        build_example("bell", secret="01")


def test_unsupported_bug_rejected():
    with pytest.raises(KeyError, match="does not support"):
        build_example("teleport", inject_bug="drop-setup-hadamard")


@pytest.mark.parametrize("name", ["bell", "xgate", "teleport", "bv", "qft"])
def test_every_example_runs_at_default_shots_quickly(name):
    start = time.perf_counter()
    report = run_program(build_example(name), ProgramConfig())
    elapsed = time.perf_counter() - start
    assert report.n_errors == 0
    assert elapsed < 30.0
    assert report.exit_status() == 0  # expected verdicts all match at seed 0
