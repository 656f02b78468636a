"""Workload rotations and the correctness gate behind `failed`.

A workload is a fixed rotation of `qassert` CLI invocations. Each
invocation lists, in checkpoint order, what its report must say:

- "p=1"    the checkpoint passes with p = 1 (true by construction), within
           P1_TOLERANCE: Fisher's sum over a single possible table rounds;
- "reject" the checkpoint fails: the state is entangled or far from the
           asserted one, so p sits far below alpha whatever the seed;
- "null"   the asserted state is true, so the checkpoint rejects at a rate
           of about alpha. A rejection is counted, never a failure.

`exit` is the exit status when it cannot depend on the seed, or None when
a null checkpoint that expects to pass can turn it to 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

CIRCUITS = Path(__file__).resolve().parent / "circuits"
P1_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    expect: tuple[str, ...]
    exit: int | None

    @property
    def label(self) -> str:
        return " ".join(Path(a).name if a.endswith(".qc") else a for a in self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    rotation: tuple[Invocation, ...]
    # Percentile reported as run_s.tail, fixed so that a faster program is
    # not judged on a different one. 75 leaves ten or more samples beyond
    # it on trail-shots at the default run length. The other workloads run
    # too few invocations of their slowest file for a percentile with ten
    # beyond it to land inside that file's samples, so their tail is the
    # slowest invocation (100).
    tail_pct: float


def _run(name: str, expect: tuple[str, ...], exit: int | None) -> Invocation:
    return Invocation(("run", str(CIRCUITS / name)), expect, exit)


def _example(args: str, expect: tuple[str, ...], exit: int | None) -> Invocation:
    return Invocation(("example", *args.split()), expect, exit)


WORKLOADS = {w.name: w for w in (
    Workload("trail-mc", (
        _example("bv", ("null", "null", "null", "null", "p=1"), None),
        _example("bv --inject-bug drop-setup-hadamard",
                 ("reject", "p=1", "reject", "p=1", "reject"), 1),
        _example("teleport", ("reject",), 0),
    ), tail_pct=100.0),
    Workload("trail-shots", (
        _example("bell", ("reject",), 0),
        _example("xgate", ("p=1",), 0),
        _example("xgate --legacy-chisq", ("reject",), 1),
        _example("qft", ("p=1", "reject", "reject", "null"), None),
        _example("qft --inject-bug drop-qft-hadamard",
                 ("p=1", "reject", "p=1", "reject"), 1),
    ), tail_pct=75.0),
    Workload("midcircuit", (
        _run("feedforward_reset.qc", ("p=1", "p=1"), 0),
        _run("teleport_corrected.qc", ("null", "p=1"), None),
        _run("qft_measured.qc", ("null", "p=1"), None),
    ), tail_pct=100.0),
    Workload("wide", (
        _run("wide20.qc", ("reject", "p=1", "p=1"), 0),
    ), tail_pct=100.0),
)}


class Gate:
    """Decides whether one invocation failed; counts null rejections.

    An invocation fails when it raised or exited 2, when a checkpoint
    reports an error, when its report differs in any byte from the first
    report of the same invocation and seed, or when a verdict or exit
    status that cannot depend on the seed comes out wrong.
    """

    def __init__(self):
        self.first: dict[tuple, tuple[int, str]] = {}
        self.null_rejections = 0

    def check(self, inv: Invocation, seed: int, status: int, out: str) -> list[str]:
        key = (inv.argv, seed)
        if key in self.first:
            if self.first[key] != (status, out):
                return ["report or exit status differs from the first run "
                        "of the same invocation and seed"]
        else:
            self.first[key] = (status, out)
        problems, rejections = verdict_problems(inv, status, out)
        self.null_rejections += rejections
        return problems


def verdict_problems(inv: Invocation, status: int, out: str) -> tuple[list[str], int]:
    """Problems with one JSON report, and how many null checkpoints rejected."""
    if status == 2:
        return ["exit status 2"], 0
    try:
        report = json.loads(out)
        checkpoints = report["checkpoints"]
        summary = report["summary"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"], 0
    if len(checkpoints) != len(inv.expect):
        return [f"{len(checkpoints)} checkpoints, expected {len(inv.expect)}"], 0
    problems = []
    rejections = 0
    for cp, want in zip(checkpoints, inv.expect):
        where = f"checkpoint #{cp.get('index')}"
        if "error" in cp:
            problems.append(f"{where} error: {cp['error']}")
        elif want == "p=1" and not (cp["p_value"] >= 1.0 - P1_TOLERANCE and cp["passed"]):
            problems.append(f"{where}: expected p=1, got p={cp['p_value']}")
        elif want == "reject" and (cp["passed"] or cp["p_value"] >= cp["alpha"]):
            problems.append(f"{where}: expected a rejection, got p={cp['p_value']}")
        elif want == "null" and not cp["passed"]:
            rejections += 1
    mismatched = sum(1 for cp in checkpoints if cp.get("matches_expected") is False)
    errors = sum(1 for cp in checkpoints if "error" in cp)
    if summary.get("mismatched") != mismatched or summary.get("errors") != errors:
        problems.append("summary disagrees with its checkpoints")
    consistent = 0 if mismatched == 0 and errors == 0 else 1
    if status != consistent:
        problems.append(f"exit status {status}, report implies {consistent}")
    if inv.exit is not None and status != inv.exit:
        problems.append(f"exit status {status}, expected {inv.exit}")
    return problems, rejections


def tamper_check(inv: Invocation, seed: int, status: int, out: str) -> list[str]:
    """Tamper with a report the gate accepted; return each tamper it missed."""
    def edited(edit) -> str:
        report = json.loads(out)
        edit(report)
        return json.dumps(report, indent=2) + "\n"

    def flip(report):
        cp = report["checkpoints"][fixed]
        cp["passed"] = not cp["passed"]

    def error(report):
        report["checkpoints"][0] = {"index": report["checkpoints"][0]["index"],
                                    "error": "QAssertError: tampered"}

    seen = Gate()
    seen.check(inv, seed, status, out)
    fixed = next((i for i, w in enumerate(inv.expect) if w != "null"), None)
    tampers = {
        "one byte changed": lambda: seen.check(
            inv, seed, status, out.replace('"p_value": ', '"p_value":  ', 1)),
        "exit status changed": lambda: Gate().check(inv, seed, 1 - status, out),
        "checkpoint error": lambda: Gate().check(inv, seed, status, edited(error)),
    }
    if fixed is not None:
        tampers["seed-independent verdict flipped"] = lambda: Gate().check(
            inv, seed, status, edited(flip))
    return [what for what, flagged in tampers.items() if not flagged()]
