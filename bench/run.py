"""qassert benchmark: the public CLI driven in-process, in a closed loop.

One client calls `qassert.cli.main([...])` and starts the next invocation
when the previous one returns, with no think time. A workload is a fixed
rotation of invocations (see workloads.py); a run repeats whole rotations
until `--seconds` have passed, so every run sees the same mix.

    python3 bench/run.py --workload trail-mc --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

`--trace 0` reports the end-to-end metrics. `--trace 1` alternates untraced
rotations with rotations whose spans are recorded around every layer
(spans.py), then runs the layer probes (probes.py), and reports the
per-layer metrics. The last
line of standard output is one JSON object; the lines before it are for
people, and the full result with its provenance is also written to
`.bench_out/`. The package is imported from `src/` of the checkout this
file sits in; the benchmark exits 2 without a result when it is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One process, no threads beyond the interpreter's own: keep BLAS serial.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 1
DEFAULT_SECONDS = 20
SETUP_REPEATS = 7
EXAMPLES = ("bell", "xgate", "teleport", "bv", "qft")

UNITS = {"run_s.p50": "s", "run_s.tail": "s", "checkpoints_per_s": "1/s",
         "setup_s": "s", "peak_rss_mb": "MB"}


def cli_seed(seed: int, workload: str, position: int) -> int:
    """The `--seed` passed to one rotation position; the same in every rotation."""
    return random.Random(f"{seed}/{workload}/{position}").randrange(2**31)


def invoke(argv: list[str]) -> tuple[int, str, str, float]:
    """One `cli.main` call with stdout and stderr captured: status, out, err, seconds."""
    from qassert import cli

    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a raising invocation is a failure, not a crash
        status = -1
        err.write(f"raised {type(exc).__name__}: {exc}")
    return status, out.getvalue(), err.getvalue(), perf_counter() - t0


class Phase:
    """Whole rotations of one workload, timed invocation by invocation."""

    def __init__(self, workload, seed: int, gate, recorder=None):
        self.workload = workload
        self.seed = seed
        self.gate = gate
        self.recorder = recorder
        self.samples: list[float] = []
        self.checkpoints = 0
        self.failed = 0
        self.problems: list[str] = []
        self.accepted = None
        self.wall = 0.0

    def run(self, seconds: float) -> "Phase":
        t0 = perf_counter()
        while perf_counter() - t0 < seconds:
            self.rotation()
        return self

    def rotation(self) -> None:
        t0 = perf_counter()
        for position, inv in enumerate(self.workload.rotation):
            self._one(inv, cli_seed(self.seed, self.workload.name, position))
        self.wall += perf_counter() - t0

    def _one(self, inv, seed: int) -> None:
        argv = [*inv.argv, "--seed", str(seed), "--format", "json"]
        if self.recorder is not None:
            self.recorder.invocation = len(self.samples)
        status, out, err, elapsed = invoke(argv)
        self.samples.append(elapsed)
        problems = ([f"status {status}: {err.strip()}"] if status not in (0, 1)
                    else self.gate.check(inv, seed, status, out))
        if problems:
            self.failed += 1
            self.problems.extend(f"{inv.label}: {p}" for p in problems)
            return
        self.checkpoints += len(json.loads(out)["checkpoints"])
        if self.accepted is None:
            self.accepted = (inv, seed, status, out)


def measure_setup() -> tuple[float, list[str]]:
    """Median wall time of a fresh `python -m qassert list-examples` process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-m", "qassert", "list-examples"]
    times, problems = [], []
    for attempt in range(SETUP_REPEATS + 1):
        t0 = perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=60)
        elapsed = perf_counter() - t0
        listed = {line.split()[0] for line in done.stdout.splitlines() if line.strip()}
        if done.returncode != 0 or listed != set(EXAMPLES):
            problems.append(f"list-examples exited {done.returncode}: {done.stderr.strip()}")
        if attempt:  # the first start fills the bytecode cache
            times.append(elapsed)
    return statistics.median(times), problems


def git_commit() -> str | None:
    """The commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(args, workload) -> dict:
    import numpy as np

    return {
        "workload": workload.name, "seed": args.seed, "run_seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "machine": platform.machine(), "git_commit": git_commit(),
        "loop": "closed, 1 client, no think time",
        "rotation": [inv.label for inv in workload.rotation],
        "cli_seeds": [cli_seed(args.seed, workload.name, k)
                      for k in range(len(workload.rotation))],
    }


def end_to_end(args, workload, gate) -> tuple[dict, dict, list[Phase]]:
    import numpy as np

    invoke(["list-examples"])  # imports and lazy set-up, paid once per process
    setup_s, setup_problems = measure_setup()
    phase = Phase(workload, args.seed, gate).run(args.seconds)
    tail = (max(phase.samples) if workload.tail_pct >= 100
            else float(np.percentile(phase.samples, workload.tail_pct)))
    metrics = {
        "run_s.p50": statistics.median(phase.samples),
        "run_s.tail": tail,
        "checkpoints_per_s": phase.checkpoints / phase.wall,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    phase.problems.extend(setup_problems)
    extra = {
        "samples": len(phase.samples), "tail_percentile": workload.tail_pct,
        "samples_beyond_tail": sum(1 for s in phase.samples if s > tail),
        "timed_wall_s": phase.wall, "null_rejections": gate.null_rejections,
        "run_s": phase.samples,
    }
    return {k: (v, UNITS[k]) for k, v in metrics.items()}, extra, [phase]


def per_layer(args, workload, gate) -> tuple[dict, dict, list[Phase]]:
    import probes
    import spans

    invoke(["list-examples"])
    rec = spans.SpanRecorder()
    plain = Phase(workload, args.seed, gate)
    traced = Phase(workload, args.seed, gate, rec)
    t0 = perf_counter()
    while perf_counter() - t0 < args.seconds:  # alternate, so drift hits both
        plain.rotation()
        spans.install(rec)
        try:
            traced.rotation()
        finally:
            rec.uninstall()
    OUT.mkdir(exist_ok=True)
    rec.save(OUT / f"spans-{workload.name}.npz")

    n = len(traced.samples)
    values = spans.layer_metrics(rec, n)
    values["assertions.checkpoints"] = traced.checkpoints / n
    values["assertions.null_rejections"] = float(gate.null_rejections)
    untraced_p50 = statistics.median(plain.samples)
    traced_p50 = statistics.median(traced.samples)
    values["bench.untraced_run_s.p50"] = untraced_p50
    values["bench.traced_run_s.p50"] = traced_p50
    values["bench.trace_overhead_s"] = traced_p50 - untraced_p50
    values.update(probes.run_probes(args.seed))

    metrics = {k: (v, layer_unit(k)) for k, v in values.items()}
    extra = {"spans": len(rec.start), "traced_invocations": n,
             "untraced_invocations": len(plain.samples)}
    return metrics, extra, [plain, traced]


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith("_s.p50"):
        return "s"
    if name == "sim.gate_bytes":
        return "B"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def run_one(args) -> int:
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    gate = workloads.Gate()
    measure = per_layer if args.trace else end_to_end
    metrics, extra, phases = measure(args, workload, gate)

    attempted = sum(len(p.samples) for p in phases)
    failed = sum(p.failed for p in phases)
    problems = [msg for p in phases for msg in p.problems]
    accepted = next((p.accepted for p in phases if p.accepted), None)
    if accepted is None:
        problems.append("no invocation passed the gate")
    else:
        problems.extend(f"gate missed a tampered report: {what}"
                        for what in workloads.tamper_check(*accepted))

    prov = provenance(args, workload)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    record = dict(result, provenance=prov, detail=extra, problems=problems)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print(f"{workload.name}: seed {args.seed}, {attempted} invocations, "
          f"{failed} failed (failed_frac {failed / attempted:.4g})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:.6g} {unit}")
    for msg in problems[:20]:
        print(f"  problem: {msg}")
    print(json.dumps({"provenance": prov, "detail": {k: v for k, v in extra.items()
                                                     if k != "run_s"}}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own child process, one table at the end."""
    import workloads

    rows, ok = [], True
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exited {done.returncode}\n{done.stderr}", file=sys.stderr)
            ok = False
            continue
        rows.append((name, json.loads(lines[-1])))
    for name, result in rows:
        ok = ok and result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              f"failed_frac={result['failed'] / result['attempted']:.4g} count")
        for metric, m in result["metrics"].items():
            print(f"  {metric:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": ok, "workloads": dict(rows)}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="trail-mc, trail-shots, midcircuit, wide, or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help=f"timed run length (default {DEFAULT_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "qassert" / "__init__.py").is_file():
        print(f"error: no qassert package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qassert
    import workloads

    if Path(qassert.__file__).resolve().parent != SRC / "qassert":
        print(f"error: imported qassert from {qassert.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
