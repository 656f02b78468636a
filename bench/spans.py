"""Span recorder for the traced run, installed around qassert's layers.

`install` replaces each public function that a qassert module calls by
name (its point of use, such as `qassert.sampling.substream`) with a
wrapper that records a span: name, start, end, parent span and the
invocation it belongs to. The package's own files are not edited; the
originals come back on `uninstall`. Spans stay in memory, in flat arrays,
until `save` writes them out. Counts are recorded at the same boundaries.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# Layers are the package's modules; `rng` is `qassert._rng`.
LAYERS = ("cli", "runner", "parser", "examples", "assertions", "sampling",
          "sim", "stats", "rng")


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.invocation = -1
        self.counts: Counter = Counter()
        self.gates_seen: set[tuple[int, int]] = set()
        self._undo: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.invocation)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def wrap(self, module: str, attr: str, name: str, hook=None) -> None:
        """Record a span around every call of `module.attr`.

        `hook(args, kwargs)` runs before the call; it records counts and
        may return a more specific span name.
        """
        mod = importlib.import_module(module)
        fn = getattr(mod, attr)
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            sid = self.open(nid if hook is None
                            else self.name_id(hook(args, kwargs) or name))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)

        self._undo.append((mod, attr, fn))
        setattr(mod, attr, traced)

    def uninstall(self) -> None:
        while self._undo:
            mod, attr, fn = self._undo.pop()
            setattr(mod, attr, fn)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "request": np.frombuffer(self.request, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        children = np.zeros_like(dur)
        nested = a["parent"] >= 0
        np.add.at(children, a["parent"][nested], dur[nested])
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        incl = np.bincount(a["name"], weights=dur, minlength=k)
        own = np.bincount(a["name"], weights=dur - children, minlength=k)
        return {n: (int(calls[i]), float(incl[i]), float(own[i]))
                for i, n in enumerate(self.names)}


def install(rec: SpanRecorder) -> None:
    """Wrap the functions each qassert module calls into the next layer."""
    from qassert.sim import Measurement

    def sample_hook(args, kwargs):
        circuit, upto, shots = args[0], args[1], args[2]
        rec.counts["sampling.shots"] += shots
        items = circuit.items if upto is None else circuit.items[:upto]
        if any(isinstance(item, Measurement) for item in items):
            rec.counts["sampling.trajectory_shots"] += shots

    def mc_hook(args, kwargs):
        rec.counts["stats.mc.resamples"] += args[1] if len(args) > 1 else kwargs["resamples"]

    def gate_hook(args, kwargs):
        state, gate = args
        rec.counts["sim.gate_bytes"] += 2 * state.amplitudes.nbytes
        rec.gates_seen.add((rec.invocation, id(gate)))

    def checkpoint_hook(args, kwargs):
        circuit, index = args[0], args[1]
        return f"assertions.evaluate_checkpoint.{circuit.items[index].kind.value}"

    wraps = [
        ("qassert.cli", "main", "cli.main", None),
        ("qassert.cli", "build_example", "examples.build_example", None),
        ("qassert.cli", "parse_circuit", "parser.parse_circuit", None),
        ("qassert.cli", "run_program", "runner.run_program", None),
        ("qassert.cli", "render_report", "runner.render_report", None),
        ("qassert.runner", "evaluate_checkpoint", "assertions.evaluate_checkpoint",
         checkpoint_hook),
        ("qassert.assertions", "sample", "sampling.sample", sample_hook),
        ("qassert.assertions", "marginalize", "sampling.marginalize", None),
        ("qassert.assertions", "build_contingency_table",
         "assertions.build_contingency_table", None),
        ("qassert.assertions", "derive_seed", "rng.derive_seed", None),
        ("qassert.assertions", "monte_carlo_independence",
         "stats.monte_carlo_independence", mc_hook),
        ("qassert.sampling", "substream", "rng.substream.shots", None),
        ("qassert.sampling", "run_trajectory", "sim.run_trajectory", None),
        ("qassert.sim", "new_state", "sim.new_state", None),
        ("qassert.sim", "apply_gate", "sim.apply_gate", gate_hook),
        ("qassert.sim", "measure_qubit", "sim.measure_qubit", None),
        ("qassert.stats", "substream", "rng.substream.resamples", None),
    ]
    for fn in ("fisher_exact_2x2", "legacy_chisq_add1", "chi_square_gof_pvalue",
               "chi_square_statistic", "upper_regularized_gamma"):
        wraps.append(("qassert.assertions", fn, f"stats.{fn}", None))
    for fn in ("chi_square_statistic", "upper_regularized_gamma"):
        wraps.append(("qassert.stats", fn, f"stats.{fn}", None))
    for module, attr, name, hook in wraps:
        rec.wrap(module, attr, name, hook)


# (metric, span names, which total): per-invocation seconds or calls.
SPAN_METRICS = [
    ("cli.main_s", ("cli.main",), "incl"),
    ("parser.parse_circuit_s", ("parser.parse_circuit",), "incl"),
    ("examples.build_example_s", ("examples.build_example",), "incl"),
    ("runner.run_program_s", ("runner.run_program",), "incl"),
    ("runner.render_report_s", ("runner.render_report",), "incl"),
    ("assertions.evaluate_checkpoint.CLASSICAL_s",
     ("assertions.evaluate_checkpoint.CLASSICAL",), "incl"),
    ("assertions.evaluate_checkpoint.UNIFORM_s",
     ("assertions.evaluate_checkpoint.UNIFORM",), "incl"),
    ("assertions.evaluate_checkpoint.PRODUCT_s",
     ("assertions.evaluate_checkpoint.PRODUCT",), "incl"),
    ("assertions.build_contingency_table_s",
     ("assertions.build_contingency_table",), "incl"),
    ("sampling.sample_s", ("sampling.sample",), "incl"),
    ("sampling.sample.self_s", ("sampling.sample",), "self"),
    ("sampling.marginalize_s", ("sampling.marginalize",), "incl"),
    ("rng.substream_s", ("rng.substream.shots", "rng.substream.resamples"), "incl"),
    ("rng.substream.calls.shots", ("rng.substream.shots",), "calls"),
    ("rng.substream.calls.resamples", ("rng.substream.resamples",), "calls"),
    ("sim.run_trajectory_s", ("sim.run_trajectory",), "incl"),
    ("sim.run_trajectory.calls", ("sim.run_trajectory",), "calls"),
    ("sim.measure_qubit_s", ("sim.measure_qubit",), "incl"),
    ("sim.apply_gate_s", ("sim.apply_gate",), "incl"),
    ("sim.gate_applications", ("sim.apply_gate",), "calls"),
    ("stats.monte_carlo_independence_s", ("stats.monte_carlo_independence",), "incl"),
    ("stats.fisher_exact_2x2_s", ("stats.fisher_exact_2x2",), "incl"),
    ("stats.chi_square_gof_pvalue_s", ("stats.chi_square_gof_pvalue",), "incl"),
    ("stats.upper_regularized_gamma_s", ("stats.upper_regularized_gamma",), "incl"),
    ("stats.legacy_chisq_add1_s", ("stats.legacy_chisq_add1",), "incl"),
]
COUNT_METRICS = ("sampling.shots", "sampling.trajectory_shots", "stats.mc.resamples",
                 "sim.gate_bytes")


def layer_metrics(rec: SpanRecorder, invocations: int) -> dict[str, float]:
    """Per-invocation layer times and counts, plus module self times."""
    totals = rec.totals()
    column = {"calls": 0, "incl": 1, "self": 2}
    out = {}
    for metric, names, which in SPAN_METRICS:
        total = sum(totals[n][column[which]] for n in names if n in totals)
        out[metric] = total / invocations
    for layer in LAYERS:
        own = sum(t[2] for n, t in totals.items() if n.split(".")[0] == layer)
        out[f"{layer}.self_s"] = own / invocations
    for name in COUNT_METRICS:
        out[name] = rec.counts[name] / invocations
    applications = totals.get("sim.apply_gate", (0, 0.0, 0.0))[0]
    out["sim.distinct_gate_frac"] = len(rec.gates_seen) / applications if applications else 0.0
    mc_s = totals.get("stats.monte_carlo_independence", (0, 0.0, 0.0))[1]
    out["stats.mc.resamples_per_s"] = rec.counts["stats.mc.resamples"] / mc_s if mc_s else 0.0
    return out
