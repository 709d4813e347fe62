import math
import tracemalloc
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from acgraphs.elements import Permutation, parse_cycles
from acgraphs.errors import PreconditionError, ResourceCapError
from acgraphs.subgroups import BLOCK_CELLS
from acgraphs.stats import (
    STIRLING_CAP,
    _stirling_row,
    census,
    chi2_cdf,
    chi2_critical,
    chi_squared_test,
    cycle_counts,
    cycle_distribution,
    point_action_uniformity,
    stirling_first,
    tv_distance,
)

from helpers import brute_cycle_count, brute_tv_distance, cycle_count

# critical values frozen from an independent implementation (scipy.stats.chi2.ppf)
CHI2_95 = {
    1: 3.8414588207,
    2: 5.9914645471,
    3: 7.8147279033,
    4: 9.4877290368,
    5: 11.0704976935,
    7: 14.0671404493,
    9: 16.9189776046,
    10: 18.3070380533,
    11: 19.6751375727,
    20: 31.4104328442,
}


def test_stirling_examples():
    assert stirling_first(4, 2) == 11
    assert all(stirling_first(n, n) == 1 for n in range(9))
    assert stirling_first(5, 0) == 0
    assert stirling_first(3, 9) == 0  # out of range -> 0 by convention


def test_stirling_row_sums_are_factorials():
    for n in range(1, 9):
        assert sum(stirling_first(n, c) for c in range(n + 1)) == math.factorial(n)


def test_stirling_rows_up_to_the_cap_hold_one_row():
    # one row past the default recursion limit, and the cap's own row
    for n in (500, STIRLING_CAP):
        row = _stirling_row(n)
        assert sum(row) == math.factorial(n)
        assert row[1] == math.factorial(n - 1) and row[n] == 1
        assert row[n - 1] == n * (n - 1) // 2
        assert _stirling_row.cache_info().currsize == 1
    assert cycle_distribution(500, "even").probabilities()[500] == Fraction(2, math.factorial(500))
    for call in (lambda: stirling_first(STIRLING_CAP + 1, 1),
                 lambda: cycle_distribution(STIRLING_CAP + 1)):
        with pytest.raises(ResourceCapError, match="stirling_row"):
            call()


def test_stirling_against_permutation_census():
    for n in range(1, 9):
        census = {}
        for images in permutations(range(n)):
            c = brute_cycle_count(images)
            census[c] = census.get(c, 0) + 1
        for c in range(1, n + 1):
            assert stirling_first(n, c) == census.get(c, 0)


def test_cycle_distribution_examples():
    d1 = cycle_distribution(1)
    assert d1.probabilities() == {1: Fraction(1)}
    d4 = cycle_distribution(4)
    assert d4.probabilities() == {
        1: Fraction(6, 24),
        2: Fraction(11, 24),
        3: Fraction(6, 24),
        4: Fraction(1, 24),
    }
    e4 = cycle_distribution(4, "even")
    assert e4.probabilities() == {2: Fraction(11, 12), 4: Fraction(1, 12)}
    assert sum(p for _, p in e4.support) == 1


def test_cycle_distribution_even_supports_correct_parity():
    for n in (5, 6, 7):
        for c, _ in cycle_distribution(n, "even").support:
            assert (n - c) % 2 == 0


def test_chi2_critical_matches_frozen_oracle():
    for dof, expected in CHI2_95.items():
        assert chi2_critical(dof) == pytest.approx(expected, abs=1e-6)


def test_chi2_cdf_endpoints():
    assert chi2_cdf(0.0, 3) == 0.0
    assert chi2_cdf(1e9, 3) == pytest.approx(1.0)


def test_chi2_trivial_pass():
    obs = {1: 60, 2: 110, 3: 60, 4: 10}
    exp = cycle_distribution(4)
    report = chi_squared_test(obs, exp)
    assert report.statistic == pytest.approx(0.0)
    assert report.passed


def test_chi2_point_mass_fails():
    report = chi_squared_test(
        {"a": 100, "b": 0}, {"a": Fraction(1, 2), "b": Fraction(1, 2)}
    )
    assert report.statistic == pytest.approx(100.0)
    assert report.dof == 1
    assert not report.passed


def test_chi2_pools_small_bins():
    # expected counts: 90, 7, 3 -> the 3 pools into the 7
    obs = {1: 90, 2: 7, 3: 3}
    exp = {1: Fraction(90, 100), 2: Fraction(7, 100), 3: Fraction(3, 100)}
    report = chi_squared_test(obs, exp)
    assert report.pooled_bins == 2
    assert report.statistic == pytest.approx(0.0)


def test_chi2_errors():
    with pytest.raises(PreconditionError):
        chi_squared_test({}, {1: Fraction(1)})
    with pytest.raises(PreconditionError):
        chi_squared_test({9: 3}, {1: Fraction(1)})  # outside support


def test_point_action_examples():
    rotations = np.array([[(i + s) % 5 for i in range(5)] for s in range(5)] * 20)
    report = point_action_uniformity(rotations, 5)
    assert report.statistic == pytest.approx(0.0)
    assert report.passed

    fixers = np.array([parse_cycles("(1 2)", 5).images] * 100)  # all fix point 0
    assert not point_action_uniformity(fixers, 5).passed

    with pytest.raises(PreconditionError):
        point_action_uniformity(np.array([parse_cycles("(0 1)", 4).images]), 5)


def test_census_is_the_exact_law_of_the_values():
    assert census(np.array([2, 4, 2, 2])) == {2: Fraction(3, 4), 4: Fraction(1, 4)}
    assert list(census(np.array([5, 0, 5]))) == [0, 5]


def test_cycle_counts_match_permutation_cycle_count():
    rng = np.random.default_rng(12)
    for n in range(1, 13):
        rows = np.argsort(rng.random((200, n)), axis=1)
        expected = [cycle_count(Permutation(row)) for row in rows.tolist()]
        assert cycle_counts(rows).tolist() == expected
    assert cycle_counts(np.array([[0, 1, 2, 3, 4, 5, 6]])).tolist() == [7]
    assert cycle_counts(np.array([[1, 2, 3, 4, 5, 6, 0]])).tolist() == [1]


@pytest.mark.parametrize("cells", [56, BLOCK_CELLS])
def test_cycle_counts_run_in_row_blocks(monkeypatch, cells):
    # 56 cells hold two rows of 7 per block; the default budget splits 20,000
    # rows of 12 into eight blocks.  Each result equals the unblocked formula.
    monkeypatch.setattr("acgraphs.stats.BLOCK_CELLS", cells)
    rng = np.random.default_rng(5)
    m, n = (9, 7) if cells == 56 else (20_000, 12)
    for dtype in (np.int8, np.int64):
        rows = np.argsort(rng.random((m, n)), axis=1).astype(dtype)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            got = cycle_counts(rows)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        power, least = rows, np.minimum(rows, np.arange(n, dtype=dtype))
        for _ in range(n - 2):
            power = np.take_along_axis(rows, power, axis=1)
            np.minimum(least, power, out=least)
        assert np.array_equal(got, np.count_nonzero(least == np.arange(n), axis=1))
        # one budget of int64 cells with its row offsets, and the counts;
        # unblocked, 20,000 rows of int64 held three arrays of 1.9 MB
        assert cells < BLOCK_CELLS or peak <= 9 * BLOCK_CELLS + 8 * m, (dtype, peak)


def test_tv_examples():
    assert tv_distance({i: 5 for i in range(10)}, 10) == 0
    assert tv_distance({0: 77}, 10) == Fraction(9, 10)  # point mass: 1 - 1/m
    assert tv_distance({"a": 3, "b": 1}, 2) == Fraction(1, 4)
    with pytest.raises(PreconditionError):
        tv_distance({}, 3)
    with pytest.raises(PreconditionError):
        tv_distance({1: 1, 2: 1}, 1)


def test_tv_equals_the_per_key_sum_on_random_histograms():
    rng = np.random.default_rng(19)
    for _ in range(300):
        m = int(rng.integers(1, 60))
        keys = rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False)
        hist = {int(key): int(rng.integers(1, 10**int(rng.integers(1, 12)))) for key in keys}
        assert tv_distance(hist, m) == brute_tv_distance(hist, m), (hist, m)


def test_tv_bounds_random():
    rng = np.random.default_rng(2)
    for _ in range(300):
        m = int(rng.integers(1, 40))
        hist = {
            i: int(c)
            for i, c in enumerate(rng.integers(0, 30, size=int(rng.integers(1, m + 1))))
            if c > 0
        }
        if not hist:
            continue
        tv = tv_distance(hist, m)
        assert 0 <= tv <= Fraction(m - 1, m)
