"""Independent reference implementations the tests check against.

Everything here is deliberately naive: exact rational hypergeometric
enumeration of 2x2 and r x c tables, direct factorials, Simpson
quadrature of the chi-square density, full 2^n x 2^n gate unitaries
built from Kronecker products, and marginals and contingency tables built
by joining the characters of bitstring-keyed counts. None of it shares
code with the package numerics it validates.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

TIE = Fraction(1, 10**7)


def fisher_two_sided_enum(cells) -> float:
    """Two-sided Fisher p-value by exact hypergeometric enumeration.

    Iterates the free cell over its feasible range with fraction arithmetic,
    summing probabilities no larger than the observed one (with the same
    1e-7 relative tie tolerance the implementation uses).
    """
    (a, b), (c, d) = [list(map(int, row)) for row in cells]
    r0, r1 = a + b, c + d
    c0 = a + c
    n = r0 + r1
    if n == 0:
        return 1.0
    denom = math.comb(n, c0)
    p_obs = Fraction(math.comb(r0, a) * math.comb(r1, c0 - a), denom)
    threshold = p_obs * (1 + TIE)
    total = Fraction(0)
    for x in range(max(0, c0 - r1), min(r0, c0) + 1):
        p = Fraction(math.comb(r0, x) * math.comb(r1, c0 - x), denom)
        if p <= threshold:
            total += p
    return float(total)


def _tables_with_margins(row_sums, col_rem):
    """Every table with these row sums whose columns sum to col_rem."""
    if not row_sums:
        yield ()
        return
    for row in itertools.product(*(range(c + 1) for c in col_rem)):
        if sum(row) == row_sums[0]:
            left = tuple(c - x for c, x in zip(col_rem, row))
            for rest in _tables_with_margins(row_sums[1:], left):
                yield (row,) + rest


def rxc_tables_enum(row_sums, col_sums) -> dict[tuple, Fraction]:
    """Exact probability of every r x c table with the given margins.

    Under the fixed-margins independence null a table's probability is the
    product over rows of the multivariate hypergeometric mass of drawing
    that row's cells from the columns' remaining counts.
    """
    row_sums = tuple(int(r) for r in row_sums)
    col_sums = tuple(int(c) for c in col_sums)
    tables = {}
    for rows in _tables_with_margins(row_sums, col_sums):
        prob = Fraction(1)
        col_rem = col_sums
        for row in rows:
            ways = math.prod(math.comb(c, x) for c, x in zip(col_rem, row))
            prob *= Fraction(ways, math.comb(sum(col_rem), sum(row)))
            col_rem = tuple(c - x for c, x in zip(col_rem, row))
        tables[rows] = prob
    return tables


def rxc_exact_pvalue_enum(cells) -> float:
    """Exact independence p-value for an r x c table by full enumeration.

    Sums the probability of every table with the observed margins that is
    no more probable than the observed one (1e-7 relative tie tolerance).
    """
    cells = np.asarray(cells, dtype=np.int64)
    tables = rxc_tables_enum(cells.sum(axis=1), cells.sum(axis=0))
    threshold = tables[tuple(map(tuple, cells.tolist()))] * (1 + TIE)
    return float(sum(p for p in tables.values() if p <= threshold))


def random_rxc_tables(shapes, n_each: int, max_total: int, seed: int) -> list[np.ndarray]:
    """Seeded battery of random tables of each shape, totals up to max_total."""
    rng = np.random.default_rng(seed)
    tables = []
    for rows, cols in shapes:
        for _ in range(n_each):
            total = int(rng.integers(4, max_total + 1))
            probs = rng.dirichlet(np.ones(rows * cols))
            tables.append(rng.multinomial(total, probs).reshape(rows, cols))
    return tables


def table_log_probability_factorials(cells) -> float:
    """Fixed-margins table log-probability via direct factorials (small N)."""
    cells = np.asarray(cells, dtype=np.int64)
    numerator = 1
    for r in cells.sum(axis=1):
        numerator *= math.factorial(int(r))
    for c in cells.sum(axis=0):
        numerator *= math.factorial(int(c))
    denominator = math.factorial(int(cells.sum()))
    for o in cells.flat:
        denominator *= math.factorial(int(o))
    return math.log(Fraction(numerator, denominator))


def chi_square_sf_quadrature(x: float, df: int) -> float:
    """Upper tail of the chi-square distribution by Simpson quadrature.

    Integrates the density from x to x + 400 (the remaining tail mass is
    below e^-200) on a fine grid; accurate to well under 1e-9 for x > 0.
    """
    if x <= 0:
        return 1.0
    n_points = 400001
    hi = x + 400.0
    t = np.linspace(x, hi, n_points)
    half_df = df / 2.0
    log_pdf = ((half_df - 1.0) * np.log(t) - t / 2.0
               - half_df * math.log(2.0) - math.lgamma(half_df))
    pdf = np.exp(log_pdf)
    h = (hi - x) / (n_points - 1)
    weights = np.ones(n_points)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(min(1.0, (h / 3.0) * np.sum(weights * pdf)))


def binomial_two_sided_pvalue(k: int, n: int, p: Fraction) -> float:
    """Exact two-sided binomial test: the total probability of every count
    no more likely than k, in exact rational arithmetic."""
    probs = [math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(n + 1)]
    return float(sum(q for q in probs if q <= probs[k] * (1 + TIE)))


def tv_distance(counts: dict[str, int], shots: int, exact: dict[str, float]) -> float:
    """Total variation distance between an empirical and an exact distribution."""
    keys = set(counts) | set(exact)
    return 0.5 * sum(abs(counts.get(k, 0) / shots - exact.get(k, 0.0)) for k in keys)


def bitstring_counts(vector, floor=0) -> dict:
    """The cells of a count or probability vector above `floor`, keyed by
    bitstring with qubit 0 leftmost (cell i is `format(i, "0{n}b")`)."""
    values = np.asarray(vector).tolist()
    n = len(values).bit_length() - 1
    return {format(i, f"0{n}b"): v for i, v in enumerate(values) if v > floor}


def count_vector(counts: dict[str, int]) -> np.ndarray:
    """The int64 count vector of bitstring-keyed counts (keys of one length)."""
    n = len(next(iter(counts)))
    vector = np.zeros(1 << n, dtype=np.int64)
    for key, count in counts.items():
        vector[int(key, 2)] += count
    return vector


def marginal_counts_ref(counts: dict[str, int], qubits) -> dict[str, int]:
    """Bitstring-keyed counts restricted to `qubits`, in the listed order,
    by joining the listed characters of every key."""
    out: dict[str, int] = {}
    for key, count in counts.items():
        sub = "".join(key[q] for q in qubits)
        out[sub] = out.get(sub, 0) + count
    return out


def contingency_ref(counts: dict[str, int], group0, group1) -> np.ndarray:
    """The 2^|g0| x 2^|g1| table of bitstring-keyed counts: cell (i, j)
    counts keys whose group0 characters read i in binary and whose group1
    characters read j."""
    cells = np.zeros((1 << len(group0), 1 << len(group1)), dtype=np.int64)
    for key, count in counts.items():
        i = int("".join(key[q] for q in group0), 2)
        j = int("".join(key[q] for q in group1), 2)
        cells[i, j] += count
    return cells


def random_2x2_tables(n_tables: int, max_total: int, seed: int) -> list[np.ndarray]:
    """Seeded battery of random 2x2 tables with totals up to max_total."""
    rng = np.random.default_rng(seed)
    tables = []
    while len(tables) < n_tables:
        total = int(rng.integers(4, max_total + 1))
        probs = rng.dirichlet(np.ones(4))
        cells = rng.multinomial(total, probs).reshape(2, 2)
        tables.append(cells)
    return tables


def _oracle_gate_matrix(kind: str, angle: float | None) -> np.ndarray:
    """The 2x2 matrix of a one-qubit gate kind (or a controlled kind's base)."""
    base = {"cx": "x", "cz": "z", "cr1": "r1"}.get(kind, kind)
    r = math.sqrt(0.5)
    fixed = {
        "h": [[r, r], [r, -r]],
        "x": [[0, 1], [1, 0]],
        "y": [[0, -1j], [1j, 0]],
        "z": [[1, 0], [0, -1]],
        "s": [[1, 0], [0, 1j]],
        "t": [[1, 0], [0, complex(r, r)]],
    }
    if base in fixed:
        return np.array(fixed[base], dtype=complex)
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    rotations = {
        "rx": [[c, -1j * s], [-1j * s, c]],
        "ry": [[c, -s], [s, c]],
        "rz": [[complex(c, -s), 0], [0, complex(c, s)]],
        "r1": [[1, 0], [0, complex(math.cos(angle), math.sin(angle))]],
    }
    return np.array(rotations[base], dtype=complex)


def _kron_on(n: int, factors: dict[int, np.ndarray]) -> np.ndarray:
    """Kronecker product over qubits 0..n-1 (qubit 0 most significant),
    with `factors[q]` on qubit q and the identity elsewhere."""
    out = np.eye(1)
    for q in range(n):
        out = np.kron(out, factors.get(q, np.eye(2)))
    return out


def gate_unitary(n: int, kind: str, targets, controls=(), angle=None) -> np.ndarray:
    """The full 2^n x 2^n unitary of one gate.

    A swap is the permutation exchanging the two qubits' bits. Any other
    gate is I - P + P (M on the target), where P projects every control
    onto |1> (P = I without controls) and M is the gate's 2x2 matrix.
    """
    dim = 1 << n
    if kind == "swap":
        a, b = (n - 1 - q for q in targets)
        unitary = np.zeros((dim, dim), dtype=complex)
        for col in range(dim):
            row = col
            if (col >> a) & 1 != (col >> b) & 1:
                row = col ^ (1 << a) ^ (1 << b)
            unitary[row, col] = 1
        return unitary
    one = np.diag([0.0, 1.0])
    projector = _kron_on(n, {c: one for c in controls})
    acted = _kron_on(n, {**{c: one for c in controls},
                         targets[0]: _oracle_gate_matrix(kind, angle)})
    return np.eye(dim) - projector + acted


def evolve_with_unitaries(n: int, amplitudes: np.ndarray, gates) -> np.ndarray:
    """Multiply `amplitudes` by each gate's full unitary in turn; `gates`
    holds (kind, targets, controls, angle) tuples."""
    psi = np.asarray(amplitudes, dtype=complex)
    for kind, targets, controls, angle in gates:
        psi = gate_unitary(n, kind, targets, controls, angle) @ psi
    return psi


def apply_gate_mix(amplitudes: np.ndarray, n: int, m: np.ndarray, targets,
                   controls=()) -> np.ndarray:
    """The full four-product 2x2 mix, `new0 = m00*v0 + m01*v1` and
    `new1 = m10*v0 + m11*v1`, as the bit-exact reference for the
    simulator's kernels by base kind; a swap is its index permutation.
    Returns a new vector.

    `m` is the simulator's own 2x2 matrix for the gate: the reference pins
    the arithmetic, not the matrix entries. The products are formed on the
    same strided views of the (2,)*n tensor, into fresh arrays, because
    numpy's complex multiply may fuse a multiply-add on some layouts and
    not on others, which moves the last bit.
    """
    out = np.array(amplitudes, dtype=np.complex128)
    if len(targets) == 2:
        a, b = (n - 1 - q for q in targets)
        index = np.arange(1 << n)
        differ = ((index >> a) ^ (index >> b)) & 1
        return out[index ^ (differ << a) ^ (differ << b)]
    tensor = out.reshape((2,) * n)
    view = [slice(None)] * n
    for c in controls:
        view[c] = 1
    view[targets[0]] = 0
    v0 = tensor[(*view, ...)]
    view[targets[0]] = 1
    v1 = tensor[(*view, ...)]
    new0 = m[0, 0] * v0 + m[0, 1] * v1
    v1[...] = m[1, 0] * v0 + m[1, 1] * v1
    v0[...] = new0
    return out
