"""Golden JSON reports: the same invocation must give the same bytes.

Each JSON file under tests/golden/ is the `--format json` report of one CLI
invocation at a fixed seed, 2000 shots and 999 resamples: the built-in
examples, two injected bugs, the legacy add-1 chi-square route, a circuit
file whose checkpoints follow mid-circuit measurements, one whose
checkpoints list their qubits out of ascending order, and one whose
product tables have empty rows or columns, or a single nonzero row or
column. A mismatch means a random stream or a report field changed. A
deliberate stream change bumps `_rng.STREAM_VERSION` and regenerates the
files in the same change:

    PYTHONPATH=src python tests/test_golden.py

The checked-in files were made with numpy 2.4.6 (stream_version 2). numpy
does not promise identical `binomial` and `multinomial` streams across
releases, so under another numpy a mismatch may be numpy's, not ours.
"""

import contextlib
import io
from pathlib import Path

import numpy
import pytest

from qassert.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_NUMPY = "2.4.6"
FIXED = ["--seed", "11", "--shots", "2000", "--resamples", "999", "--format", "json"]
CASES = {
    "bell": ["example", "bell"],
    "xgate": ["example", "xgate"],
    "teleport": ["example", "teleport"],
    "bv": ["example", "bv"],
    "qft": ["example", "qft"],
    "bv-drop-setup-hadamard": ["example", "bv", "--inject-bug", "drop-setup-hadamard"],
    "qft-drop-qft-hadamard": ["example", "qft", "--inject-bug", "drop-qft-hadamard"],
    "teleport-corrected": ["run", str(GOLDEN / "teleport-corrected.qc")],
    "xgate-legacy-chisq": ["example", "xgate", "--legacy-chisq"],
    "reordered": ["run", str(GOLDEN / "reordered.qc")],
    "sparse-product": ["run", str(GOLDEN / "sparse-product.qc")],
}


def report(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv + FIXED)
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert report(CASES[name]) == expected, (
        f"the goldens were made with numpy {GOLDEN_NUMPY}; this is numpy "
        f"{numpy.__version__}, and stream_version holds only within one numpy version")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.json").write_text(report(argv), encoding="utf-8")
        print(f"wrote {GOLDEN / name}.json")
