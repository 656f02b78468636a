"""The package surface the benchmark's tracer reaches must keep resolving.

bench/spans.py wraps qassert functions by module and name and reads some
call arguments by position, and bench/probes.py calls into each layer
directly, so a rename or a signature change breaks `bench/run.py --trace 1`
without failing any other test. These tests only read bench/.
"""

import contextlib
import importlib.util
import io
import math
from pathlib import Path

from qassert import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_cli_run_records_spans():
    spans = load_bench("spans")
    recorder = spans.SpanRecorder()
    spans.install(recorder)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["example", "teleport", "--shots", "200", "--resamples", "99"])
    finally:
        recorder.uninstall()
    totals = recorder.totals()
    assert totals["cli.main"][0] == 1
    assert totals["sampling.sample"][0] == 1
    assert totals["sim.apply_gate"][0] > 0
    assert recorder.counts["sampling.shots"] == 200


def test_layer_probes_run():
    out = load_bench("probes").run_probes(1)
    assert out
    assert all(math.isfinite(value) and value >= 0 for value in out.values())
