"""Program execution: evaluate every checkpoint in a circuit and report.

A run walks the circuit in order, evaluates each assertion directive with
`evaluate_checkpoint`, and collects the results into a RunReport that can be
rendered as human-readable text or as stable JSON. Any exception raised by one
checkpoint becomes that checkpoint's error, and the run goes on. The process
exit status is 0 exactly when no checkpoint errored and every directive that
declares an expected verdict matched it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ._rng import STREAM_VERSION
from .assertions import AssertionResult, ProgramConfig, evaluate_checkpoint
from .ir import AssertionDirective, AssertionKind, Circuit, Measurement
from .sim import new_state

TEXT = "text"
JSON = "json"


@dataclass
class CheckpointReport:
    """One checkpoint's outcome: a result, or the error that prevented one."""

    index: int
    result: AssertionResult | None = None
    error: str | None = None


@dataclass
class RunReport:
    config: ProgramConfig
    checkpoints: list[CheckpointReport] = field(default_factory=list)

    @property
    def n_passed(self) -> int:
        return sum(1 for c in self.checkpoints if c.result and c.result.passed)

    @property
    def n_failed(self) -> int:
        return sum(1 for c in self.checkpoints if c.result and not c.result.passed)

    @property
    def n_mismatched(self) -> int:
        return sum(1 for c in self.checkpoints
                   if c.result and c.result.matches_expected is False)

    @property
    def n_errors(self) -> int:
        return sum(1 for c in self.checkpoints if c.error is not None)

    def exit_status(self) -> int:
        return 0 if self.n_mismatched == 0 and self.n_errors == 0 else 1


def run_program(circuit: Circuit, config: ProgramConfig | None = None) -> RunReport:
    """Evaluate every assertion checkpoint in the circuit, in circuit order.

    Up to the first mid-circuit measurement, the run holds one evolved
    `(state, pos)` pair, and each checkpoint advances it and draws from it.
    A measurement, or a checkpoint that raises, drops it.
    """
    config = config if config is not None else ProgramConfig()
    circuit.validate()
    report = RunReport(config=config)
    held = (new_state(circuit.n_qubits), 0)
    for index, item in enumerate(circuit.items):
        if isinstance(item, Measurement):
            held = None
        if not isinstance(item, AssertionDirective):
            continue
        entry = CheckpointReport(index=index)
        start, held = held, None
        try:
            entry.result = evaluate_checkpoint(circuit, index, config, start)
            if start is not None:
                # `sample` walked items[pos:index], which holds no
                # measurement, so start[0] is now the state of items[:index].
                held = (start[0], index)
        except Exception as exc:  # one faulty checkpoint must not hide the rest
            entry.error = f"{type(exc).__name__}: {exc}"
        report.checkpoints.append(entry)
    return report


def _qubit_list(qubits) -> str:
    return "[" + " ".join(str(q) for q in qubits) + "]"


def _text_line(entry: CheckpointReport) -> str:
    if entry.error is not None:
        return f"#{entry.index} ERROR {entry.error}"
    r = entry.result
    if r.kind == AssertionKind.PRODUCT:
        where = f"{_qubit_list(r.group0)}x{_qubit_list(r.group1)}"
    else:
        where = _qubit_list(r.qubits)
    parts = [
        f"#{entry.index}",
        r.kind.value,
        where,
        f"method={r.p_value.method.value}",
        f"p={r.p_value.value:.6g}",
        "passed" if r.passed else "failed",
    ]
    if r.expected_verdict is not None:
        expected = "pass" if r.expected_verdict else "fail"
        flag = "match" if r.matches_expected else "MISMATCH"
        parts.append(f"expected={expected} {flag}")
    return " ".join(parts)


def _checkpoint_json(entry: CheckpointReport) -> dict:
    if entry.error is not None:
        return {"index": entry.index, "error": entry.error}
    r = entry.result
    return {
        "index": entry.index,
        "kind": r.kind.value,
        "qubits": list(r.qubits) if r.qubits else None,
        "group0": list(r.group0) if r.group0 else None,
        "group1": list(r.group1) if r.group1 else None,
        "alpha": r.alpha,
        "method": r.p_value.method.value,
        "p_value": r.p_value.value,
        "degrees_of_freedom": r.p_value.degrees_of_freedom,
        "resamples": r.p_value.resamples,
        "shots": r.shots_used,
        "target_bitstring": r.target_bitstring,
        "table_shape": list(r.table_shape) if r.table_shape else None,
        "passed": r.passed,
        "expected_verdict": r.expected_verdict,
        "matches_expected": r.matches_expected,
    }


def render_report(report: RunReport, fmt: str = TEXT) -> str:
    """Render a report as text (one line per checkpoint) or stable JSON."""
    if fmt == JSON:
        payload = {
            "config": {
                "shots": report.config.shots,
                "seed": report.config.seed,
                "alpha": report.config.alpha,
                "resamples": report.config.resamples,
                "legacy_chisq": report.config.legacy_chisq,
                "stream_version": STREAM_VERSION,
            },
            "checkpoints": [_checkpoint_json(c) for c in report.checkpoints],
            "summary": {
                "checkpoints": len(report.checkpoints),
                "passed": report.n_passed,
                "failed": report.n_failed,
                "mismatched": report.n_mismatched,
                "errors": report.n_errors,
            },
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt != TEXT:
        raise ValueError(f"format must be 'text' or 'json', got {fmt!r}")
    lines = [_text_line(entry) for entry in report.checkpoints]
    lines.append(
        f"summary: {len(report.checkpoints)} checkpoints, "
        f"{report.n_passed} passed, {report.n_failed} failed, "
        f"{report.n_mismatched} mismatched"
        + (f", {report.n_errors} errors" if report.n_errors else ""))
    return "\n".join(lines) + "\n"
