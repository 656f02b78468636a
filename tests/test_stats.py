"""Statistical kernel tests: chi-square, incomplete gamma, Fisher, Monte Carlo."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    chi_square_sf_quadrature,
    fisher_two_sided_enum,
    random_2x2_tables,
    random_rxc_tables,
    rxc_exact_pvalue_enum,
    rxc_tables_enum,
    table_log_probability_factorials,
)
from qassert import stats
from qassert._rng import LANE_RESAMPLES, substream
from qassert.errors import CapacityError, InvalidExpectedError
from qassert.stats import (
    MAX_RESAMPLES,
    MAX_TABLE_CELLS,
    ContingencyTable,
    PValue,
    TestMethod,
    _draw_tables,
    chi_square_gof_pvalue,
    chi_square_statistic,
    fisher_exact_2x2,
    legacy_chisq_add1,
    monte_carlo_independence,
    upper_regularized_gamma,
)


def table(cells):
    return ContingencyTable(np.array(cells))


class TestChiSquareStatistic:
    def test_exact_match_is_zero(self):
        assert chi_square_statistic([5, 5], [5, 5]) == 0.0

    def test_all_mass_in_one_cell(self):
        assert chi_square_statistic([10, 0], [5, 5]) == pytest.approx(10.0)

    def test_four_equal_cells(self):
        assert chi_square_statistic([2500] * 4, [2500.0] * 4) == 0.0

    def test_zero_expected_is_named_undefined(self):
        with pytest.raises(InvalidExpectedError, match="undefined"):
            chi_square_statistic([1, 2], [3, 0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            chi_square_statistic([1, 2, 3], [1, 2])

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            expected = rng.uniform(0.5, 50, size=6)
            observed = rng.poisson(expected)
            statistic = chi_square_statistic(observed, expected)
            assert statistic >= 0.0
            if not np.allclose(observed, expected):
                assert statistic > 0.0


class TestUpperRegularizedGamma:
    def test_at_zero_is_one(self):
        assert upper_regularized_gamma(0.5, 0.0) == 1.0
        assert upper_regularized_gamma(3.0, 0.0) == 1.0

    def test_deep_tail(self):
        assert upper_regularized_gamma(0.5, 50.0) < 1e-10

    def test_closed_form_a_equal_one(self):
        # Q(1, x) = exp(-x)
        assert upper_regularized_gamma(1.0, 1.0) == pytest.approx(
            math.exp(-1.0), abs=1e-10)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            upper_regularized_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            upper_regularized_gamma(1.0, -0.5)

    def test_monotone_nonincreasing_in_x(self):
        for a in (0.5, 1.0, 2.5, 10.0):
            values = [upper_regularized_gamma(a, x)
                      for x in np.linspace(0.0, 40.0, 81)]
            assert all(v1 >= v2 - 1e-15 for v1, v2 in zip(values, values[1:]))

    @pytest.mark.parametrize("df,x", [(1, 3.841), (2, 5.991), (5, 11.07), (10, 3.5)])
    def test_against_quadrature(self, df, x):
        oracle = chi_square_sf_quadrature(x, df)
        assert upper_regularized_gamma(df / 2.0, x / 2.0) == pytest.approx(
            oracle, abs=1e-8)


class TestChiSquareGof:
    def test_perfect_uniform_fit(self):
        pv = chi_square_gof_pvalue([250] * 4, [0.25] * 4, 1000)
        assert pv.value == 1.0
        assert pv.method == TestMethod.CHI_SQUARE
        assert pv.degrees_of_freedom == 3

    def test_p_05_critical_point(self):
        # chi^2 = 3.841 at df = 1 sits at the 0.05 critical value: engineered
        # as observed [C, 1000 - C] so the statistic equals 3.841.
        # (O-500)^2 * (1/500 + 1/500) = 3.841 -> O = 500 + sqrt(3.841*250)
        offset = math.sqrt(3.841 * 250.0)
        observed = [500.0 + offset, 500.0 - offset]
        statistic = chi_square_statistic(observed, [500.0, 500.0])
        assert statistic == pytest.approx(3.841, abs=1e-12)
        p = upper_regularized_gamma(0.5, 3.841 / 2.0)
        # frozen quadrature oracle value for sf(3.841, df=1)
        assert p == pytest.approx(0.050013683763956734, abs=1e-9)
        assert p == pytest.approx(0.05, abs=1e-3)

    def test_extreme_deviation_underflows(self):
        pv = chi_square_gof_pvalue([1000, 0], [0.5, 0.5], 1000)
        assert pv.value < 1e-100

    def test_probability_sum_validated(self):
        with pytest.raises(ValueError):
            chi_square_gof_pvalue([1, 1], [0.5, 0.6], 2)

    def test_needs_two_categories(self):
        with pytest.raises(ValueError):
            chi_square_gof_pvalue([5], [1.0], 5)


class TestFisherExact:
    def test_single_nonzero_cell_is_independent(self):
        pv = fisher_exact_2x2(table([[0, 0], [0, 1000]]))
        assert pv.value == 1.0
        assert pv.method == TestMethod.FISHER_EXACT

    def test_diagonal_table_is_extreme(self):
        pv = fisher_exact_2x2(table([[500, 0], [0, 500]]))
        assert pv.value < 1e-100
        # frozen log-space enumeration oracle value
        assert pv.value == pytest.approx(7.399507995628054e-300, rel=1e-9)

    def test_mixed_table_against_enumeration(self):
        pv = fisher_exact_2x2(table([[1, 9], [11, 3]]))
        # frozen exact-fraction enumeration oracle value
        assert pv.value == pytest.approx(0.0027594561852200836, abs=1e-12)
        assert pv.value == pytest.approx(0.00276, abs=1e-5)

    def test_requires_2x2(self):
        with pytest.raises(ValueError):
            fisher_exact_2x2(table([[1, 2, 3], [4, 5, 6]]))

    def test_zero_margin_is_exactly_one(self):
        # a zero row or column margin leaves a single feasible table
        for n in range(1, 151):
            for a in range(n + 1):
                for cells in ([[a, n - a], [0, 0]], [[0, 0], [a, n - a]],
                              [[a, 0], [n - a, 0]], [[0, a], [0, n - a]]):
                    assert fisher_exact_2x2(table(cells)).value == 1.0, cells

    def test_transpose_and_row_swap_invariance(self):
        for cells in random_2x2_tables(25, 400, seed=99):
            p = fisher_exact_2x2(table(cells)).value
            assert fisher_exact_2x2(table(cells.T)).value == pytest.approx(
                p, abs=1e-12)
            assert fisher_exact_2x2(table(cells[::-1])).value == pytest.approx(
                p, abs=1e-12)
            assert fisher_exact_2x2(table(cells[:, ::-1])).value == pytest.approx(
                p, abs=1e-12)

    def test_exhaustive_small_tables_match_enumeration(self):
        # all 2x2 tables with N <= 12; the full N <= 30 sweep runs in the
        # acceptance suite
        for n in range(13):
            for a in range(n + 1):
                for b in range(n - a + 1):
                    for c in range(n - a - b + 1):
                        cells = [[a, b], [c, n - a - b - c]]
                        impl = fisher_exact_2x2(table(cells)).value
                        oracle = fisher_two_sided_enum(cells)
                        assert impl == pytest.approx(oracle, abs=1e-12), cells


def one_table(rows, cols, rng):
    """One draw of the Monte Carlo test's fixed-margins null sampler."""
    return ContingencyTable(_draw_tables(np.asarray(rows), np.asarray(cols), 1, rng)[0])


class TestFixedMarginsSampler:
    def test_forced_by_margins(self):
        tbl = one_table([2, 0], [1, 1], substream(0, 0))
        assert tbl.cells.tolist() == [[1, 1], [0, 0]]

    def test_unit_margins_equiprobable(self):
        diagonal = 0
        for i in range(10000):
            tbl = one_table([1, 1], [1, 1], substream(5, i))
            assert tbl.cells.tolist() in ([[1, 0], [0, 1]], [[0, 1], [1, 0]])
            diagonal += int(tbl.cells[0, 0])
        assert abs(diagonal / 10000 - 0.5) < 0.02

    def test_margins_always_exact(self):
        rng = np.random.default_rng(12)
        for trial in range(40):
            r = int(rng.integers(1, 6))
            c = int(rng.integers(1, 6))
            cells = rng.integers(0, 10, size=(r, c))
            if cells.sum() == 0:
                cells[0, 0] = 1
            rows = cells.sum(axis=1)
            cols = cells.sum(axis=0)
            tbl = one_table(rows, cols, substream(trial, 0))
            assert tbl.row_sums.tolist() == rows.tolist()
            assert tbl.col_sums.tolist() == cols.tolist()

    def test_frequencies_fit_exact_table_probabilities(self):
        rows, cols, draws = [3, 4], [2, 3, 2], 20000
        exact = rxc_tables_enum(rows, cols)
        tables = _draw_tables(np.array(rows), np.array(cols), draws, substream(3, 0))
        observed = Counter(tuple(map(tuple, t)) for t in tables.tolist())
        assert set(observed) <= set(exact)
        statistic = sum((observed[t] - draws * float(p)) ** 2 / (draws * float(p))
                        for t, p in exact.items())
        assert chi_square_sf_quadrature(statistic, len(exact) - 1) > 1e-3


@pytest.fixture
def substream_calls(monkeypatch):
    """The arguments of every `substream` call that `stats` makes."""
    calls = []

    def counting(*args):
        calls.append(args)
        return substream(*args)

    monkeypatch.setattr(stats, "substream", counting)
    return calls


class TestMonteCarlo:
    def test_unique_table_ties_everywhere(self):
        pv = monte_carlo_independence(table([[3, 4], [0, 0]]), resamples=999, seed=1)
        assert pv.value == 1.0
        assert pv.method == TestMethod.MONTE_CARLO
        assert pv.resamples == 999

    # Such margins admit only the observed table, so there is nothing to draw.
    @pytest.mark.parametrize("cells", [
        [[3, 4], [0, 0], [0, 0]],
        [[0, 0, 0, 0], [2, 9, 1, 0]],
        [[3, 0, 0], [4, 0, 0]],
        [[0, 0], [0, 5], [0, 1], [0, 0]],
        [[7]],
    ], ids=["row-first", "row-second", "column-first", "column-second", "one-cell"])
    def test_one_nonzero_row_or_column_gives_one_without_drawing(self, cells,
                                                                  substream_calls):
        pv = monte_carlo_independence(table(cells), resamples=4321, seed=3)
        assert pv.value == 1.0
        assert pv.method == TestMethod.MONTE_CARLO
        assert pv.resamples == 4321
        assert substream_calls == []

    def test_two_nonzero_rows_and_columns_draw(self, substream_calls):
        monte_carlo_independence(table([[3, 0, 1], [0, 0, 0], [2, 0, 4]]),
                                 resamples=99, seed=3)
        assert len(substream_calls) == 1

    def test_unentangled_wide_table_accepts_independence(self):
        # 32x2 table sampled from the Bernstein-Vazirani state after the
        # oracle: data register and auxiliary qubit are unentangled.
        from qassert.assertions import AssertionDirective, build_contingency_table
        from qassert.examples import build_bv
        from qassert.sampling import sample

        circuit = build_bv("01011")
        checkpoints = [i for i, item in enumerate(circuit.items)
                       if isinstance(item, AssertionDirective)]
        dist = sample(circuit, upto=checkpoints[3], shots=10000, seed=0)
        tbl = build_contingency_table(dist, tuple(range(5)), (5,))
        assert tbl.cells.shape == (32, 2)
        pv = monte_carlo_independence(tbl, resamples=9999, seed=0)
        assert pv.value > 0.05

    def test_agrees_with_fisher_on_diagonal_table(self):
        tbl = table([[30, 0], [0, 30]])
        p_mc = monte_carlo_independence(tbl, resamples=9999, seed=0).value
        p_fisher = fisher_exact_2x2(tbl).value
        assert abs(p_mc - p_fisher) <= 0.03

    def test_agreement_battery_small(self):
        # reduced version of the acceptance battery: 12 random tables
        close = 0
        tables = random_2x2_tables(12, 1000, seed=2024)
        for i, cells in enumerate(tables):
            tbl = table(cells)
            p_mc = monte_carlo_independence(tbl, resamples=9999, seed=i).value
            p_fisher = fisher_exact_2x2(tbl).value
            close += abs(p_mc - p_fisher) <= 0.03
        assert close >= 11

    def test_rxc_tables_match_exact_enumeration(self):
        resamples = 9999
        tables = random_rxc_tables([(2, 3), (3, 3), (2, 4)], 8, 15, seed=1981)
        for i, cells in enumerate(tables):
            exact = rxc_exact_pvalue_enum(cells)
            p_mc = monte_carlo_independence(table(cells), resamples, seed=i).value
            bound = 4 * math.sqrt(exact * (1 - exact) / resamples) + 1 / (resamples + 1)
            assert abs(p_mc - exact) <= bound, (cells.tolist(), p_mc, exact)

    # The p-value, pinned exactly: the same tables from the same stream,
    # counted by exact factorials where the test sums log-gammas.
    def test_pvalue_counts_tables_no_more_probable_than_observed(self):
        tables = random_rxc_tables([(2, 3), (3, 3), (2, 4)], 3, 14, seed=77)
        for i, cells in enumerate(tables):
            resamples = (1, 999, 1024)[i % 3]
            rows, cols = cells.sum(axis=1), cells.sum(axis=0)
            drawn = _draw_tables(rows, cols, resamples, substream(i, 0, LANE_RESAMPLES))
            observed = table_log_probability_factorials(cells)
            extreme = sum(table_log_probability_factorials(t) <= observed + 1e-9
                          for t in drawn)
            p = monte_carlo_independence(table(cells), resamples, seed=i).value
            assert p == (1 + extreme) / (1 + resamples), cells.tolist()

    # Each check also holds for a table whose margins admit only itself.
    # Unchecked, resamples=True ran 1 resample and resamples=2.5 raised a bare TypeError.
    def test_zero_resamples_rejected(self):
        for cells in ([[1, 0], [0, 1]], [[3, 4], [0, 0]]):
            for resamples, message in [(0, "resamples must be >= 1, got 0"),
                                       (True, "resamples must be an integer, got True"),
                                       (2.5, "resamples must be an integer, got 2.5")]:
                with pytest.raises(ValueError, match=message):
                    monte_carlo_independence(table(cells), resamples=resamples)

    def test_resamples_above_cap_rejected(self):
        for cells in ([[1, 2, 3], [4, 5, 6]], [[3, 4], [0, 0]]):
            with pytest.raises(CapacityError):
                monte_carlo_independence(table(cells), resamples=MAX_RESAMPLES + 1)

    def test_table_above_cell_cap_rejected(self):
        one_cell = np.zeros((2, MAX_TABLE_CELLS // 2 + 1), dtype=np.int64)
        one_cell[0, 0] = 5
        for cells in (np.ones_like(one_cell), one_cell):
            with pytest.raises(CapacityError):
                monte_carlo_independence(ContingencyTable(cells), resamples=99)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            monte_carlo_independence(table([[0, 0], [0, 0]]))

    def test_deterministic_given_seed(self):
        tbl = table([[12, 7], [3, 20]])
        a = monte_carlo_independence(tbl, resamples=999, seed=7).value
        b = monte_carlo_independence(tbl, resamples=999, seed=7).value
        assert a == b


@st.composite
def margin_pairs(draw):
    """Row and column margins of r, c <= 6 with one total <= 200, zeros allowed."""
    total = draw(st.integers(1, 200))

    def split(parts):
        cuts = draw(st.lists(st.integers(0, total), min_size=parts - 1,
                             max_size=parts - 1))
        return np.diff([0, *sorted(cuts), total])

    return split(draw(st.integers(1, 6))), split(draw(st.integers(1, 6)))


class TestSamplerProperties:
    @settings(deadline=None)
    @given(margins=margin_pairs(), seed=st.integers(0, 2**63),
           resamples=st.integers(1, 2100))
    def test_margins_exact_and_pvalue_reproducible(self, margins, seed, resamples):
        rows, cols = margins
        tables = _draw_tables(rows, cols, 64, substream(seed, 0))
        assert np.all(tables >= 0)
        assert np.all(tables.sum(axis=2) == rows)
        assert np.all(tables.sum(axis=1) == cols)
        observed = ContingencyTable(tables[0])
        p = monte_carlo_independence(observed, resamples, seed=seed).value
        assert 0.0 <= p <= 1.0
        assert monte_carlo_independence(observed, resamples, seed=seed).value == p

    @settings(deadline=None)
    @given(margins=margin_pairs(), seed=st.integers(0, 2**63),
           resamples=st.integers(1, 1100), data=st.data())
    def test_empty_rows_leave_the_pvalue_unchanged(self, margins, seed, resamples, data):
        rows, cols = margins
        cells = _draw_tables(rows, cols, 1, substream(seed, 1))[0]
        positions = data.draw(st.lists(st.integers(0, rows.size), min_size=1, max_size=3))
        padded = np.insert(cells, positions, 0, axis=0)
        p = monte_carlo_independence(ContingencyTable(cells), resamples, seed=seed).value
        assert monte_carlo_independence(ContingencyTable(padded), resamples,
                                        seed=seed).value == p


class TestLegacyChisqAdd1:
    def test_sparse_classical_table_fails(self):
        pv = legacy_chisq_add1(table([[0, 0], [0, 1000]]))
        assert pv.method == TestMethod.LEGACY_CHI_SQUARE_ADD1
        assert pv.value < 0.05
        # frozen direct evaluation: chi^2 ~ 249.999 at df=1
        assert pv.value == pytest.approx(2.598105721750069e-56, rel=1e-6)

    def test_balanced_table_passes(self):
        pv = legacy_chisq_add1(table([[250, 250], [250, 250]]))
        assert pv.value == pytest.approx(1.0, abs=0.01)

    def test_all_zero_table_smooths_to_uniform(self):
        pv = legacy_chisq_add1(table([[1, 1], [1, 1]]))
        assert pv.value == pytest.approx(1.0, abs=1e-9)

    def test_never_divides_by_zero(self):
        pv = legacy_chisq_add1(table([[0, 0, 0], [0, 5, 0]]))
        assert 0.0 <= pv.value <= 1.0


class TestPValue:
    def test_range_validated(self):
        with pytest.raises(ValueError):
            PValue(1.5, TestMethod.CHI_SQUARE)
        with pytest.raises(ValueError):
            PValue(-0.1, TestMethod.FISHER_EXACT)

    def test_fields(self):
        pv = PValue(0.3, TestMethod.MONTE_CARLO, resamples=9999)
        assert pv.resamples == 9999
        assert pv.degrees_of_freedom is None


class TestContingencyTable:
    def test_margins(self):
        tbl = table([[1, 2], [3, 4]])
        assert tbl.row_sums.tolist() == [3, 7]
        assert tbl.col_sums.tolist() == [4, 6]
        assert tbl.total == 10

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            table([[1, -2], [3, 4]])

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            ContingencyTable(np.array([[1.5, 2.0], [3.0, 4.0]]))

    def test_equality(self):
        assert table([[1, 2], [3, 4]]) == table([[1, 2], [3, 4]])
        assert table([[1, 2], [3, 4]]) != table([[1, 2], [3, 5]])
