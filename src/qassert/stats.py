"""Independence and goodness-of-fit tests over measurement counts.

Three families: chi-square goodness of fit (p-values via the upper
regularized incomplete gamma function), Fisher's exact test for 2x2
contingency tables, and a Monte Carlo test for larger tables.
A legacy add-1 chi-square mode is kept purely as a comparison baseline; it
is known to report spurious dependence on sparse tables.

All factorial arithmetic runs in log space so table probabilities stay
finite for totals far beyond what direct factorials can represent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._rng import LANE_RESAMPLES, substream
from .errors import CapacityError, ConvergenceError, InvalidExpectedError
from .ir import check_run_parameters

DEFAULT_RESAMPLES = 9999
MAX_RESAMPLES = 10**6  # about 10 s per 32x2 checkpoint, not hours
MAX_TABLE_CELLS = 4096  # 64x64 takes 12 s at 9999 resamples; 1024x1024 needs 8 GiB
_MC_BLOCK = 1024  # resampled tables per batch, bounding the batch's memory

# Relative tolerance for "as extreme as observed" probability comparisons,
# keeping float ties from flipping which tables count as extreme.
TIE_RELATIVE_TOL = 1e-7
_LOG_TIE_TOL = math.log1p(TIE_RELATIVE_TOL)
_MC_TIE_TOL = 1e-9


class TestMethod(str, Enum):
    __test__ = False  # not a pytest class, despite the name

    CHI_SQUARE = "CHI_SQUARE"
    FISHER_EXACT = "FISHER_EXACT"
    MONTE_CARLO = "MONTE_CARLO"
    LEGACY_CHI_SQUARE_ADD1 = "LEGACY_CHI_SQUARE_ADD1"


@dataclass
class PValue:
    value: float
    method: TestMethod
    resamples: int | None = None
    degrees_of_freedom: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"p-value {self.value} outside [0, 1]")


@dataclass(eq=False)
class ContingencyTable:
    """r x c table of nonnegative integer counts with derived margins."""

    cells: np.ndarray

    def __post_init__(self):
        cells = np.asarray(self.cells)
        if cells.ndim != 2 or cells.size == 0:
            raise ValueError("contingency table must be a non-empty 2-D array")
        if not np.issubdtype(cells.dtype, np.integer):
            if not np.all(cells == np.floor(cells)):
                raise ValueError("contingency table cells must be integers")
        cells = cells.astype(np.int64)
        if np.any(cells < 0):
            raise ValueError("contingency table cells must be nonnegative")
        self.cells = cells

    @property
    def n_rows(self) -> int:
        return self.cells.shape[0]

    @property
    def n_cols(self) -> int:
        return self.cells.shape[1]

    @property
    def row_sums(self) -> np.ndarray:
        return self.cells.sum(axis=1)

    @property
    def col_sums(self) -> np.ndarray:
        return self.cells.sum(axis=0)

    @property
    def total(self) -> int:
        return int(self.cells.sum())

    def __eq__(self, other):
        if not isinstance(other, ContingencyTable):
            return NotImplemented
        return self.cells.shape == other.cells.shape and bool(
            np.array_equal(self.cells, other.cells))

    def __repr__(self):
        return f"ContingencyTable({self.cells.tolist()})"


_log_fact_cache = np.zeros(1)


def _log_factorials(n: int) -> np.ndarray:
    """Array t with t[k] = log(k!) for k in 0..n, cached and grown on demand."""
    global _log_fact_cache
    if _log_fact_cache.size <= n:
        size = max(n + 1, 2 * _log_fact_cache.size)
        table = np.empty(size)
        table[:_log_fact_cache.size] = _log_fact_cache
        for k in range(_log_fact_cache.size, size):
            table[k] = math.lgamma(k + 1)
        _log_fact_cache = table
    return _log_fact_cache


def chi_square_statistic(observed, expected) -> float:
    """Pearson statistic: sum of (O - E)^2 / E over matching cells."""
    obs = np.asarray(observed, dtype=float)
    exp = np.asarray(expected, dtype=float)
    if obs.shape != exp.shape:
        raise ValueError(f"length mismatch: {obs.shape} observed vs {exp.shape} expected")
    if np.any(exp <= 0):
        bad = int(np.argmax(exp <= 0))
        raise InvalidExpectedError(
            f"chi-square statistic is undefined: expected count {exp.flat[bad]} at "
            f"index {bad} is <= 0, so the (O-E)^2/E term divides by zero")
    return float(np.sum((obs - exp) ** 2 / exp))


def upper_regularized_gamma(a: float, x: float) -> float:
    """Q(a, x), the upper regularized incomplete gamma function.

    Series expansion of the lower function for x < a + 1, Lentz continued
    fraction otherwise; either way the result is accurate to well below
    1e-10 absolute. Raises ConvergenceError after 500 iterations.
    """
    if a <= 0:
        raise ValueError(f"a must be positive, got {a}")
    if x < 0:
        raise ValueError(f"x must be nonnegative, got {x}")
    if x == 0.0:
        return 1.0
    log_prefactor = -x + a * math.log(x) - math.lgamma(a)
    if x < a + 1.0:
        ap = a
        term = 1.0 / a
        total = term
        for _ in range(500):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * 1e-16:
                lower = total * math.exp(log_prefactor)
                return min(1.0, max(0.0, 1.0 - lower))
        raise ConvergenceError(f"gamma series did not converge for a={a}, x={x}")
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 501):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return min(1.0, max(0.0, math.exp(log_prefactor) * h))
    raise ConvergenceError(f"gamma continued fraction did not converge for a={a}, x={x}")


def chi_square_gof_pvalue(observed, expected_probs, total: int) -> PValue:
    """Goodness-of-fit p-value for observed counts against cell probabilities."""
    obs = np.asarray(observed, dtype=float)
    probs = np.asarray(expected_probs, dtype=float)
    if obs.shape != probs.shape:
        raise ValueError("observed and expected_probs must have equal length")
    if obs.size < 2:
        raise ValueError("need at least 2 categories")
    if total < 1:
        raise ValueError(f"total must be positive, got {total}")
    if abs(float(probs.sum()) - 1.0) > 1e-9:
        raise ValueError(f"expected_probs sum to {probs.sum()}, not 1")
    statistic = chi_square_statistic(obs, total * probs)
    df = obs.size - 1
    p = upper_regularized_gamma(df / 2.0, statistic / 2.0)
    return PValue(p, TestMethod.CHI_SQUARE, degrees_of_freedom=df)


def fisher_exact_2x2(table: ContingencyTable) -> PValue:
    """Two-sided Fisher exact test for a 2x2 table.

    Enumerates every table with the observed margins and sums the
    hypergeometric probability of those no more probable than the observed
    one (within TIE_RELATIVE_TOL). A zero margin collapses the enumeration
    to the single consistent table, giving p = 1.
    """
    if table.cells.shape != (2, 2):
        raise ValueError(f"fisher_exact_2x2 needs a 2x2 table, got {table.cells.shape}")
    r0, r1 = (int(v) for v in table.row_sums)
    c0, _ = (int(v) for v in table.col_sums)
    n = table.total
    lo = max(0, c0 - r1)
    hi = min(r0, c0)
    if lo == hi:
        return PValue(1.0, TestMethod.FISHER_EXACT)
    lf = _log_factorials(n)
    a = np.arange(lo, hi + 1)
    log_margins = float(lf[r0] + lf[r1] + lf[c0] + lf[n - c0] - lf[n])
    log_probs = log_margins - (lf[a] + lf[r0 - a] + lf[c0 - a] + lf[r1 - c0 + a])
    observed_logp = float(log_probs[int(table.cells[0, 0]) - lo])
    mass = float(np.exp(log_probs[log_probs <= observed_logp + _LOG_TIE_TOL]).sum())
    return PValue(min(1.0, mass), TestMethod.FISHER_EXACT)


def _draw_tables(rows: np.ndarray, cols: np.ndarray, count: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Draw `count` tables, shape (count, r, c), from the fixed-margins null.

    Patefield's exact sampler (Appl. Stat. 30:91, AS 159): each cell is
    hypergeometric given the margins that the cells drawn before it leave.
    """
    tables = np.zeros((count, rows.size, cols.size), dtype=np.int64)
    tables[:, -1] = cols  # the last row holds what the columns have left
    for i, need in enumerate(rows[:-1]):
        for j in range(cols.size - 1):
            rest = tables[:, -1, j + 1:].sum(1)
            tables[:, i, j] = rng.hypergeometric(tables[:, -1, j], rest, need)
            need -= tables[:, i, j]
        tables[:, i, -1] = need
        tables[:, -1] -= tables[:, i]
    return tables


def monte_carlo_independence(table: ContingencyTable,
                             resamples: int = DEFAULT_RESAMPLES,
                             seed: int = 0) -> PValue:
    """Monte Carlo p-value for independence in an r x c table.

    The extremeness statistic is the table's log-probability under fixed
    margins; p = (1 + #{resampled tables at least as extreme}) / (1 + R),
    which can never reach 0. All R tables come from substream (seed, 0).
    Margins with at most one nonzero row or column admit only the observed
    table, so every resample ties it and p = 1 without drawing.
    """
    check_run_parameters(resamples=resamples)
    if resamples > MAX_RESAMPLES:
        raise CapacityError(f"resamples must be <= {MAX_RESAMPLES}, got {resamples}")
    if table.cells.size > MAX_TABLE_CELLS:
        raise CapacityError(f"{table.n_rows}x{table.n_cols} table exceeds the Monte Carlo "
                            f"cap of {MAX_TABLE_CELLS} cells")
    if table.total < 1:
        raise ValueError("table must contain at least one observation")
    rows, cols = table.row_sums, table.col_sums
    if min(np.count_nonzero(rows), np.count_nonzero(cols)) == 1:
        return PValue(1.0, TestMethod.MONTE_CARLO, resamples=resamples)
    lf = _log_factorials(table.total)
    # Margins are fixed, so only the cell term varies, reduced alike for the
    # observed table: logP' <= logP_obs + tol <=> cell term' >= obs term - tol
    threshold = lf[table.cells[None]].sum(axis=(1, 2))[0] - _MC_TIE_TOL
    rng = substream(seed, 0, LANE_RESAMPLES)
    at_least_as_extreme = 0
    for start in range(0, resamples, _MC_BLOCK):
        tables = _draw_tables(rows, cols, min(_MC_BLOCK, resamples - start), rng)
        at_least_as_extreme += int((lf[tables].sum(axis=(1, 2)) >= threshold).sum())
    p = (1 + at_least_as_extreme) / (1 + resamples)
    return PValue(p, TestMethod.MONTE_CARLO, resamples=resamples)


def legacy_chisq_add1(table: ContingencyTable) -> PValue:
    """Add-1 smoothed chi-square independence test (comparison baseline only).

    Adds 1 to every observed cell, builds the expected table E_ij = R_i C_j / N
    from the smoothed margins, and evaluates the chi-square statistic with
    (r-1)(c-1) degrees of freedom. The smoothing avoids division by zero but
    distorts sparse tables badly; see legacy tests for the canonical failure.
    """
    cells = table.cells + 1
    rows = cells.sum(axis=1)
    cols = cells.sum(axis=0)
    total = float(cells.sum())
    expected = np.outer(rows, cols) / total
    statistic = chi_square_statistic(cells, expected)
    df = (table.n_rows - 1) * (table.n_cols - 1)
    if df == 0:
        return PValue(1.0, TestMethod.LEGACY_CHI_SQUARE_ADD1, degrees_of_freedom=0)
    p = upper_regularized_gamma(df / 2.0, statistic / 2.0)
    return PValue(p, TestMethod.LEGACY_CHI_SQUARE_ADD1, degrees_of_freedom=df)
