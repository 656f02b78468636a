"""Layer probes: single calls into one layer, timed outside the CLI.

Each probe reports the median of several timed calls on inputs made from
the run's seed. They complement the traced CLI loop with fixed-size
points: the gate kernel by qubit count, shot sampling with and without a
mid-circuit measurement, and each statistical test on a fixed table.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from qassert import assertions, examples, sampling, sim, stats


def _median_time(call, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        call()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _table(rng: np.random.Generator, rows: int, cols: int, total: int = 10000):
    """A table of `total` counts with independent, nearly uniform margins."""
    p_rows = rng.dirichlet(np.full(rows, 50.0))
    p_cols = rng.dirichlet(np.full(cols, 50.0))
    cells = rng.multinomial(total, np.outer(p_rows, p_cols).ravel())
    return stats.ContingencyTable(cells.reshape(rows, cols))


def run_probes(seed: int) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    out = {}
    for n in (5, 10, 16, 20):
        state = sim.new_state(n)
        reps = 5 if n == 20 else 50
        for kind, gate in (("h", sim.GateOp("h", (0,))),
                           ("cx", sim.GateOp("cx", (n - 1,), (0,)))):
            out[f"sim.apply_gate.probe.{kind}.n{n}_s"] = _median_time(
                lambda: sim.apply_gate(state, gate), reps)

    teleport = examples.build_teleport()
    checkpoint = next(i for i, item in enumerate(teleport.items)
                      if isinstance(item, assertions.AssertionDirective))
    shot_seed = int(rng.integers(2**31))
    out["sampling.sample.probe.10k_nomeas_s"] = _median_time(
        lambda: sampling.sample(teleport, checkpoint, 10000, shot_seed), 3)
    out["sampling.sample.probe.10k_meas_s"] = _median_time(
        lambda: sampling.sample(teleport, None, 10000, shot_seed), 1)

    for rows, cols in ((2, 2), (2, 4), (32, 2)):
        table = _table(rng, rows, cols)
        out[f"stats.monte_carlo_independence.probe.{rows}x{cols}_s"] = _median_time(
            lambda: stats.monte_carlo_independence(table, 9999, seed=shot_seed), 1)

    table = _table(rng, 2, 2)
    out["stats.fisher_exact_2x2.probe_s"] = _median_time(
        lambda: stats.fisher_exact_2x2(table), 200)
    bv = examples.build_bv()
    dist = sampling.sample(bv, 8, 10000, shot_seed)
    out["assertions.build_contingency_table.probe_s"] = _median_time(
        lambda: assertions.build_contingency_table(dist, range(5), (5,)), 20)
    a, x = 15.5, float(rng.uniform(10.0, 40.0))
    out["stats.upper_regularized_gamma.probe_s"] = _median_time(
        lambda: stats.upper_regularized_gamma(a, x), 1000)
    return out
