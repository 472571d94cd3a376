import math
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentsq import (BudgetExceededError, CountMethod, Curve,
                      asymptotic_report, count_solutions, diagonal_count,
                      permutation_count)
from momentsq import budget, kernel, vinogradov
from momentsq.budget import DEFAULT_COUNT_BUDGET


def oracle(curve, n, N):
    """Independent 2n-fold enumeration."""
    vecs = [tuple(sum(curve.evaluate(x)[k] for x in t) for k in range(n))
            for t in product(range(1, N + 1), repeat=n)]
    return sum(1 for a in vecs for b in vecs if a == b)


def test_examples_against_oracle():
    for n, N, expected in [(2, 3, 15), (2, 10, 190), (3, 2, 20)]:
        curve = Curve.moment(n)
        assert oracle(curve, n, N) == expected
        assert count_solutions(curve, n, N, CountMethod.BRUTE_FORCE).count == expected
        assert count_solutions(curve, n, N, CountMethod.HASH_JOIN).count == expected


def _hand_out(monkeypatch, *tails):
    """A stand-in for the join's one seam, `_sorted_folds`: it hands out the
    power sums of the given (n-1)-tuples in place of those of every sorted
    (n-1)-tuple over [1, N]; the join adds the head's 1 to each."""
    def folds_below(folds, n):
        return [np.array([sum(x ** k for x in s) for s in tails], dtype=np.int64)
                for k in range(1, len(folds) + 1)]
    monkeypatch.setattr(vinogradov, "_sorted_folds", folds_below)


def test_join_raises_on_a_shared_key(monkeypatch):
    # Girard-Newton keeps the moment curve's keys distinct, so hand out a repeat:
    # (2, 4) has the 4 heads (1, s), s = 1..4; a repeated row anywhere raises
    for tails in ([(1,), (2,), (4,), (2,)], [(3,), (1,), (2,), (3,)], [(1,), (1,), (2,), (4,)]):
        _hand_out(monkeypatch, *tails)
        with pytest.raises(RuntimeError, match="starting with 1 share their centred power sums"):
            count_solutions(Curve.moment(2), 2, 4, CountMethod.HASH_JOIN)
    # (1, 0) and (1, 2) are one translate apart: distinct rows, one centred sum
    _hand_out(monkeypatch, (0,), (2,), (3,), (4,))
    with pytest.raises(RuntimeError, match="Girard-Newton fails"):
        count_solutions(Curve.moment(2), 2, 4, CountMethod.HASH_JOIN)
    # distinct rows pass, and J is the permutation count; at n = 3 the heads
    # (1, 1, 3) and (1, 3, 3) share c_2 and differ in c_3
    _hand_out(monkeypatch, (4,), (2,), (3,), (1,))
    assert vinogradov._moment_join(2, 4, DEFAULT_COUNT_BUDGET) == permutation_count(2, 4) == 28
    _hand_out(monkeypatch, (1, 3), (3, 3))
    assert vinogradov._moment_join(3, 3, DEFAULT_COUNT_BUDGET) == permutation_count(3, 3)


INT64_MIN, INT64_MAX = -2 ** 63, 2 ** 63 - 1


def _int64(x):
    """x mod 2^64, read as a signed 64-bit integer."""
    return (x + 2 ** 63) % 2 ** 64 - 2 ** 63


def _fingerprint(col):
    h = 0
    for x in col:
        h = (h * int(kernel._FINGERPRINT) + x) % 2 ** 64
    return h


def test_repeated_column_compares_colliding_fingerprints_exactly():
    # (a, b) and (a + 1, b - M mod 2^64) fold to one fingerprint a M + b, yet
    # differ: only the exact compare of the candidates can tell
    M = int(kernel._FINGERPRINT)
    for a, b in [(5, 7), (-1, INT64_MIN), (INT64_MAX, INT64_MAX), (0, 0)]:
        pair = [(a, b), (_int64(a + 1), _int64(b - M))]
        assert _fingerprint(pair[0]) == _fingerprint(pair[1]) and pair[0] != pair[1]
        others = [(3, 4), (9, 9)]
        rows = np.array(pair + others, dtype=np.int64).T
        assert not kernel._repeated_column(rows)
        for dup in pair + others[:1]:
            rows = np.array(pair + others + [dup], dtype=np.int64).T
            assert kernel._repeated_column(rows), (a, b, dup)


_ENTRIES = st.one_of(st.integers(-2, 2), st.sampled_from([INT64_MIN, INT64_MAX]),
                     st.integers(INT64_MIN, INT64_MAX))


@given(st.integers(1, 4).flatmap(
    lambda k: st.lists(st.lists(_ENTRIES, min_size=k, max_size=k), min_size=1, max_size=12)))
@settings(max_examples=300, deadline=None)
def test_repeated_column_matches_a_set_of_columns(cols):
    # 1-row and 1-column matrices included; small entries make repeats common
    rows = np.array(cols, dtype=np.int64).T
    assert kernel._repeated_column(rows) == (len({tuple(c) for c in cols}) < len(cols))


def _admitted(n_values, N_values):
    """The (n, N) whose packed keys the join's overflow guard admits."""
    return [(n, N) for n in n_values for N in N_values
            if math.prod(n * N ** k + 1 for k in range(1, n + 1)) < 2 ** 62]


def test_level_below_sum_is_sum_orbit_squared():
    # sum orbit^2 over the level-n columns themselves is the closed form;
    # at (5, 10) and (6, 4) orbit squares pass 255 and 65535, so the sum
    # holds only while `_orbit_sizes` stays int64 (`_parseval_groups` narrows
    # its cached copy to uint8 and uint16 there)
    for n, N in _admitted(range(2, 7), range(1, 13)) + [(5, 10), (6, 4)]:
        (code,) = kernel._sorted_folds([(np.arange(N, dtype=np.int64), N)], n)
        orbit = kernel._orbit_sizes(np.unravel_index(code, (N,) * n, order="F"))
        assert int(orbit @ orbit) == permutation_count(n, N), (n, N)


def _centred(t):
    """c_k = sum_i (n t_i - p_1)^k, k = 2..n, of one tuple, in Python ints."""
    n, p1 = len(t), sum(t)
    return [sum((n * x - p1) ** k for x in t) for k in range(2, n + 1)]


def _power_sums(rows, n):
    return [np.array([sum(x ** k for x in t) for t in rows], dtype=np.int64)
            for k in range(1, n + 1)]


def test_centred_sums_keep_translates_and_part_heads():
    # every sorted tuple has its head's centred sums, no two heads share them,
    # and the join over the heads passes
    for n, N in _admitted(range(2, 6), range(1, 13)):
        rows = list(combinations_with_replacement(range(1, N + 1), n))
        got = [list(map(int, c)) for c in zip(*vinogradov._centred_sums(_power_sums(rows, n), n))]
        heads = [tuple(x - t[0] + 1 for x in t) for t in rows]
        assert got == [_centred(t) for t in rows] == [_centred(h) for h in heads], (n, N)
        assert len({tuple(c) for c in got}) == len(set(heads)) == math.comb(N + n - 2, n - 1)
        assert vinogradov._moment_join(n, N, DEFAULT_COUNT_BUDGET) == permutation_count(n, N)


def test_centred_sums_exact_at_the_overflow_guard():
    # at the largest N the overflow guard admits, the int64 centred sums of
    # head rows equal their Python-int values; the extreme rows bound |c_k|
    rng = np.random.default_rng(26)
    for n, N in [(2, 1048575), (3, 744), (4, 42), (5, 10), (6, 4)]:
        assert _admitted([n], [N, N + 1]) == [(n, N)]
        assert n * ((n - 1) * (N - 1)) ** n < 2 ** 63
        heads = [(1,) * n, (1,) + (N,) * (n - 1), (1,) * (n - 1) + (N,)]
        heads += [(1,) + tuple(sorted(rng.integers(1, N + 1, n - 1).tolist())) for _ in range(200)]
        got = vinogradov._centred_sums(_power_sums(heads, n), n)
        for i, h in enumerate(heads):
            assert [int(c[i]) for c in got] == _centred(h), (n, N, h)


def test_join_bytes_per_sorted_tuple():
    # the head-row join's traced peak stays at or below 2 bytes per sorted tuple
    for n, N in [(2, 5000), (3, 563)]:
        tracemalloc.start()
        try:
            count = vinogradov._moment_join(n, N, DEFAULT_COUNT_BUDGET)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == permutation_count(n, N)
        assert peak <= 2 * math.comb(N + n - 1, n), (n, N, peak)


def test_join_byte_charge_covers_its_peak(monkeypatch):
    # refused with the memory budget one byte under the traced peak, and
    # admitted at twice it where the rows are the bulk; below a few hundred
    # head rows a call's fixed small arrays and objects are (20 KB at (6, 4))
    large = [(2, 2000), (3, 300), (4, 42)]
    cases = _admitted(range(2, 9), range(1, 13)) + large
    assert (6, 4) in cases and (5, 10) in cases
    peaks = {}
    for n, N in cases:
        tracemalloc.start()
        try:
            vinogradov._moment_join(n, N, DEFAULT_COUNT_BUDGET)
            peaks[n, N] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    for (n, N), peak in peaks.items():
        monkeypatch.setattr(budget, "MEMORY_BUDGET", peak - 1)
        with pytest.raises(BudgetExceededError, match="bytes"):
            vinogradov._moment_join(n, N, DEFAULT_COUNT_BUDGET)
        if (n, N) in large:
            monkeypatch.setattr(budget, "MEMORY_BUDGET", 2 * peak)
            assert vinogradov._moment_join(n, N, DEFAULT_COUNT_BUDGET) == permutation_count(n, N)


def test_closed_forms_small_n():
    for N in (1, 2, 3, 7, 25, 100):
        assert permutation_count(2, N) == 2 * N * N - N
        assert permutation_count(3, N) == 6 * N ** 3 - 9 * N * N + 4 * N


def test_permutation_count_examples():
    assert permutation_count(2, 10) == 190
    assert permutation_count(3, 5) == 545
    assert permutation_count(2, 1) == 1


def test_permutation_count_two_values():
    # n-tuples over {1, 2}: i ones in C(n, i) orders, and sum_i C(n, i)^2 = C(2n, n)
    for n in range(101):
        assert permutation_count(n, 2) == math.comb(2 * n, n)
        assert permutation_count(n, 1) == 1


def test_diagonal_count():
    assert diagonal_count(2, 10) == 100
    assert diagonal_count(3, 5) == 125
    assert diagonal_count(2, 1) == 1


def test_counts_reject_negative_n():
    for count in (diagonal_count, permutation_count):
        with pytest.raises(ValueError, match="n >= 0"):
            count(-1, 5)
        assert count(0, 5) == 1  # the empty tuple


@given(st.integers(2, 3), st.integers(1, 8))
@settings(max_examples=30, deadline=None)
def test_methods_agree(n, N):
    curve = Curve.moment(n)
    brute = count_solutions(curve, n, N, CountMethod.BRUTE_FORCE).count
    hashed = count_solutions(curve, n, N, CountMethod.HASH_JOIN).count
    assert brute == hashed == permutation_count(n, N)


def test_formula_vs_hash_join_larger():
    # (5, 10) and (6, 4): the join at n = 5 and 6, whose keys pack the most
    # power sums, each below n * N^k + 1
    for n, N in [(2, 200), (3, 60), (4, 25), (5, 10), (6, 4)]:
        hashed = count_solutions(Curve.moment(n), n, N, CountMethod.HASH_JOIN).count
        assert hashed == permutation_count(n, N)


def test_count_bounds_and_monotone():
    prev = 0
    for N in range(1, 15):
        c = permutation_count(3, N)
        assert diagonal_count(3, N) <= c <= N ** 6
        assert c > prev
        prev = c
    assert permutation_count(2, 1) == diagonal_count(2, 1)


def test_non_moment_curve_brute_force_only():
    from momentsq import polys
    bent = Curve((polys.poly([0, 1]), polys.poly([0, 1, 1])))  # (t, t + t^2)
    res = count_solutions(bent, 2, 6)
    assert res.method is CountMethod.BRUTE_FORCE
    assert res.count == oracle(bent, 2, 6)
    for method in (CountMethod.PERMUTATION_FORMULA, CountMethod.HASH_JOIN):
        with pytest.raises(ValueError):
            count_solutions(bent, 2, 6, method)


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        count_solutions(Curve.moment(4), 4, 10 ** 5, CountMethod.HASH_JOIN)


def test_join_budget_counts_sorted_tuples():
    # (3, 40) enumerates C(40 + 2, 3) = 11480 sorted tuples, not 40^3 = 64000
    budget = math.comb(42, 3)
    res = count_solutions(Curve.moment(3), 3, 40, CountMethod.HASH_JOIN, budget=budget)
    assert res.count == permutation_count(3, 40)
    with pytest.raises(BudgetExceededError, match="11480 enumeration steps"):
        count_solutions(Curve.moment(3), 3, 40, CountMethod.HASH_JOIN, budget=budget - 1)
    (row,) = asymptotic_report(3, [40], budget=budget)
    assert row.method is CountMethod.HASH_JOIN


def test_join_refuses_overflowing_keys():
    # n = 4 packs keys below prod_k (4 * 43^k + 1), about 5.6e18 >= 2^62
    (row,) = asymptotic_report(4, [43])
    assert row.method is CountMethod.PERMUTATION_FORMULA
    assert row.count == 76476919
    assert asymptotic_report(4, [42])[0].method is CountMethod.HASH_JOIN


def test_join_guard_runs_before_enumerating(monkeypatch):
    def enumerate_nothing(folds, n):
        raise AssertionError("enumerated before the guard")
    monkeypatch.setattr(vinogradov, "_sorted_folds", enumerate_nothing)
    with pytest.raises(AssertionError, match="enumerated"):  # the seam the join enumerates by
        count_solutions(Curve.moment(4), 4, 42, CountMethod.HASH_JOIN)
    with pytest.raises(BudgetExceededError, match="enumeration steps"):
        count_solutions(Curve.moment(3), 3, 2000, CountMethod.HASH_JOIN)
    with pytest.raises(BudgetExceededError, match="overflow"):
        count_solutions(Curve.moment(4), 4, 43, CountMethod.HASH_JOIN)
    monkeypatch.setattr(budget, "MEMORY_BUDGET", 2 * 10 ** 6)  # (3, 300) charges about 2.9 MB
    with pytest.raises(BudgetExceededError, match="bytes, over the memory budget"):
        count_solutions(Curve.moment(3), 3, 300, CountMethod.HASH_JOIN)


def test_asymptotic_report():
    rows = asymptotic_report(2, [10, 100])
    assert [r.residual for r in rows] == [10, 100]
    assert all(r.residual_ratio == 1 for r in rows)
    rows = asymptotic_report(3, [10])
    assert rows[0].leading == 6000
    assert rows[0].residual == 860
    assert rows[0].residual_ratio == Fraction(860, 100)
    assert all(r.residual >= 0 for r in rows)


def test_asymptotic_report_falls_back_to_formula():
    rows = asymptotic_report(3, [2000], budget=10 ** 6)
    assert rows[0].method is CountMethod.PERMUTATION_FORMULA
    assert rows[0].count == permutation_count(3, 2000)


def test_asymptotic_report_joins_once(monkeypatch):
    entered = []

    def counted(folds, n):
        entered.append(n)
        return kernel._sorted_folds(folds, n)
    monkeypatch.setattr(vinogradov, "_sorted_folds", counted)
    rows = asymptotic_report(3, (10, 50, 30))
    assert len(entered) == 1
    assert [(r.N, r.count, r.method) for r in rows] == [
        (N, permutation_count(3, N), CountMethod.HASH_JOIN) for N in (10, 50, 30)]


def test_asymptotic_report_raises_on_a_shared_key_at_the_largest_N(monkeypatch):
    # (2, 4) is the largest N and hands out a repeat: no row is labelled hash_join
    _hand_out(monkeypatch, (1,), (3,), (2,), (3,))
    with pytest.raises(RuntimeError, match="Girard-Newton fails"):
        asymptotic_report(2, [3, 4, 2])


def test_asymptotic_report_matches_count_solutions_per_N():
    # unsorted, with a repeat and an N the budget refuses
    budget_ = 10 ** 6
    N_list = [300, 10, 2000, 10, 100]
    rows = asymptotic_report(3, N_list, budget=budget_)
    expected = []
    for N in N_list:
        try:
            res = count_solutions(Curve.moment(3), 3, N, CountMethod.HASH_JOIN, budget=budget_)
        except BudgetExceededError:
            res = count_solutions(Curve.moment(3), 3, N, CountMethod.PERMUTATION_FORMULA)
        expected.append((N, res.count, res.method))
    assert [(r.N, r.count, r.method) for r in rows] == expected
    assert [r.method for r in rows].count(CountMethod.HASH_JOIN) == 3


def test_asymptotic_report_edges():
    for N_list in ([10, 0], [-1], [5, 10, -3]):
        with pytest.raises(ValueError, match="N >= 1"):
            asymptotic_report(2, N_list)
    assert asymptotic_report(2, []) == []
