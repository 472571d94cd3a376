import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from momentsq import (REAL, BudgetExceededError, Curve, LocallyConstant, cell_tuple,
                      is_syzygy_nonarch, padic, padic_scale, permutation_orbit,
                      permutation_predicate, real_scale, scan_strong_diagonal,
                      syzygy_bound, syzygy_set_nonarch, syzygy_set_real)
from momentsq.bounds import bezout_syzygy_bound
from momentsq import budget, cli, polys, syzygy
from momentsq.kernel import _orbit_sizes, _sorted_folds, _sorted_unique
from momentsq.syzygy import SyzygyMethod, SyzygyReport


def q5_tuple(*idx, s=1):
    return cell_tuple(padic(5), padic_scale(5, s), idx)


def q3_tuple(*idx, s=1):
    return cell_tuple(padic(3), padic_scale(3, s), idx)


def test_membership_examples():
    assert is_syzygy_nonarch(q3_tuple(0, 1), q3_tuple(0, 1))      # I = J
    assert is_syzygy_nonarch(q3_tuple(0, 1), q3_tuple(1, 0))      # permutation
    assert not is_syzygy_nonarch(q3_tuple(0, 0), q3_tuple(0, 1))  # multiset mismatch


def test_cell_tuple_from_a_list_is_the_tuple_one():
    # the indices are stored as a tuple however they are given, so the record
    # hashes and is found among the report's index-tuple members
    field, scale = padic(5), padic_scale(5, 1)
    listed, built = syzygy.CellTuple(field, scale, [0, 1]), cell_tuple(field, scale, (0, 1))
    assert listed == built and hash(listed) == hash(built)
    assert syzygy_set_nonarch(listed).members == syzygy_set_nonarch(built).members


def test_set_examples():
    rep = syzygy_set_nonarch(q5_tuple(0, 1))
    assert rep.member_indices == [(0, 1), (1, 0)]
    assert rep.cardinality == 2
    assert rep.epsilon == Fraction(1, 25)
    assert rep.method is SyzygyMethod.CONGRUENCE_EXACT

    rep = syzygy_set_nonarch(q5_tuple(2, 2))
    assert rep.member_indices == [(2, 2)]

    rep = syzygy_set_nonarch(q3_tuple(0, 1, 2))
    assert rep.cardinality == 6 <= 27


def test_report_members_are_index_tuples():
    base = q5_tuple(4, 1)
    for rep in (syzygy_set_nonarch(base), syzygy.syzygy_set_oracle(base)):
        assert rep.members == ((1, 4), (4, 1))
        assert rep.member_indices == [(1, 4), (4, 1)]
    with pytest.raises(ValueError, match="reflexivity"):
        SyzygyReport(base, Fraction(1, 25), ((1, 4),), SyzygyMethod.CONGRUENCE_EXACT)


def test_reports_build_no_cell_tuples(monkeypatch):
    # `_orderings` expands multisets into index tuples; only `permutation_orbit`
    # builds cell tuples from them
    def no_cell_tuple(*args, **kwargs):
        raise AssertionError("a report built a cell tuple per member")
    real = cell_tuple(REAL, real_scale(4), (1, 2))
    monkeypatch.setattr(syzygy, "cell_tuple", no_cell_tuple)
    monkeypatch.setattr(syzygy, "CellTuple", no_cell_tuple)
    assert syzygy._orderings([[2, 0, 2], (1, 1, 1)]) == [
        (0, 2, 2), (1, 1, 1), (2, 0, 2), (2, 2, 0)]
    assert syzygy_set_nonarch(q3_tuple(2, 0, 2)).member_indices == [
        (0, 2, 2), (2, 0, 2), (2, 2, 0)]
    assert syzygy_set_real(Curve.moment(2), real).cardinality == 12
    with pytest.raises(AssertionError, match="cell tuple"):
        permutation_orbit(q5_tuple(0, 1))


def test_permutation_predicate():
    assert permutation_predicate(q5_tuple(0, 1), q5_tuple(1, 0))
    assert not permutation_predicate(q5_tuple(0, 0), q5_tuple(0, 1))
    assert permutation_predicate(q5_tuple(2, 2), q5_tuple(2, 2))
    with pytest.raises(ValueError):
        permutation_predicate(q5_tuple(0, 1), q3_tuple(0, 1))


def test_symmetry_and_reflexivity():
    pairs = list(itertools.product(range(5), repeat=2))
    for i in pairs[:12]:
        base = q5_tuple(*i)
        assert is_syzygy_nonarch(base, base)
        for j in pairs:
            other = q5_tuple(*j)
            assert is_syzygy_nonarch(base, other) == is_syzygy_nonarch(other, base)


def test_set_matches_pairwise_decision():
    # the pair relation and the per-pair meet-in-the-middle agree
    base = q5_tuple(1, 3)
    members = set(syzygy_set_nonarch(base).member_indices)
    for j in itertools.product(range(5), repeat=2):
        assert (j in members) == is_syzygy_nonarch(base, q5_tuple(*j))


def test_oracle_equivalence_small_configs():
    for p, n, s in [(5, 2, 1), (7, 2, 1), (5, 3, 1), (5, 2, 2)]:
        scan = scan_strong_diagonal(p, n, s)
        assert scan.all_match_permutations, scan.mismatches[:3]
        assert scan.within_bound
        assert scan.max_cardinality <= scan.bound


def test_scan_cardinalities_are_orbit_sizes():
    scan = scan_strong_diagonal(5, 2, 1)
    for code, card in enumerate(scan.cardinalities):
        idx = (code % 5, code // 5)
        assert card == len(set(itertools.permutations(idx)))


def test_small_prime_enumeration_runs_without_bound_claim():
    # p <= n: enumerate and report; no n^n assertion is made for these
    scan = scan_strong_diagonal(2, 3, 1)
    assert scan.bases == 8
    assert scan.max_cardinality >= 1


def test_sorted_unique_matches_np_unique():
    # the key index and np.searchsorted rely on sorted, distinct int64 keys
    rng = np.random.default_rng(7)
    cases = [rng.integers(-2 ** 62, 2 ** 62, size=1000, dtype=np.int64),
             rng.integers(0, 50, size=1000, dtype=np.int64),
             np.empty(0, dtype=np.int64),
             np.array([42], dtype=np.int64)]
    for a in cases:
        before = a.copy()
        got, want = _sorted_unique(a), np.unique(a)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)
        assert np.array_equal(a, before)  # the input is left as it was


@pytest.mark.parametrize("m,n", [(1, 1), (4, 1), (1, 3), (5, 2), (4, 3), (3, 5)])
def test_sorted_tuples_and_orbit_sizes(m, n):
    rows = list(itertools.combinations_with_replacement(range(m), n))
    cols = [np.array(c, dtype=np.int64) for c in zip(*rows)]
    assert _orbit_sizes(cols).tolist() == [len(set(itertools.permutations(r))) for r in rows]


@pytest.mark.parametrize("m,n", [(1, 1), (4, 1), (1, 3), (5, 2), (4, 3), (3, 5), (6, 4),
                                 (3, 6), (4, 7), (2, 9)])
def test_sorted_folds_match_combinations(m, n):
    rng = np.random.default_rng(10 * m + n)
    plain, digits = rng.integers(-50, 50, m), rng.integers(0, m, m).astype(np.int32)
    sums, codes, pos = _sorted_folds([(plain, 1), (digits, m), (np.arange(m), m)], n)
    rows = list(itertools.combinations_with_replacement(range(m), n))
    assert sums.dtype == np.int64 and codes.dtype == np.int32
    assert sums.tolist() == [sum(int(plain[t]) for t in r) for r in rows]
    assert codes.tolist() == [sum(int(digits[t]) * m ** i for i, t in enumerate(r)) for r in rows]
    assert [tuple(int(x) // m ** i % m for i in range(n)) for x in pos] == rows
    # the kernel hands out values only: each row's orbit size comes from its columns
    orbit = _orbit_sizes(np.unravel_index(pos, (m,) * n, order="F"))
    assert orbit.tolist() == [len(set(itertools.permutations(r))) for r in rows]


@pytest.mark.parametrize("p,n,s", [(2, 2, 1), (2, 3, 1), (3, 3, 1), (2, 4, 1),  # p <= n
                                   (5, 2, 1), (7, 2, 1), (5, 3, 1)])
def test_parseval_orbit_column_counts_orderings(p, n, s):
    # at e = ns each row is one sorted tuple, weighted by its orbit size, taken
    # over its columns, in the smallest unsigned dtype that holds j!, so the
    # cached column takes one byte a row
    syzygy.clear_index_cache()
    try:
        levels, _ = syzygy._parseval_groups(p, n, s, n * s)
    finally:
        syzygy.clear_index_cache()
    # p <= n: one level, every sorted n-tuple mod q, C(q+n-1, n) rows; p > n: a
    # level per j = 2..n over the q/p class-0 residues, C(q/p+j-1, j) rows each
    rows = {(2, 2, 1): [10], (2, 3, 1): [120], (3, 3, 1): [3654], (2, 4, 1): [3876],
            (5, 2, 1): [15], (7, 2, 1): [28], (5, 3, 1): [325, 2925]}[p, n, s]
    assert [level.weight.size for level in levels] == rows
    for level in levels:
        orbit = level.weight
        assert orbit.dtype == np.min_scalar_type(math.factorial(len(level.cols)))
        assert orbit.dtype.kind == "u"
        assert orbit.tolist() == [len(set(itertools.permutations(r)))
                                  for r in level.cols.T.tolist()]


@pytest.mark.parametrize("p,n,s", [(3, 2, 1), (5, 2, 1), (5, 2, 2), (7, 2, 1), (5, 3, 1)])
def test_key_groups_factor_over_residue_classes(p, n, s):
    # Hensel's coprime factorisation, checked on every sorted n-tuple: its key
    # fixes, and is fixed by, the class-count vector (j_r) and, for each class
    # r, the key group of its residues = r mod p moved to class 0, read off the
    # cached class-0 index (a single residue is its own group)
    q, m = p ** (n * s), p ** (n * s - 1)
    codes, tuples = syzygy._key_rows(p, n, s, n * s, n, 1)
    residues = np.array(np.unravel_index(tuples, (q,) * n, order="F"))
    syzygy.clear_index_cache()
    try:
        levels, _ = syzygy._parseval_groups(p, n, s, n * s)
    finally:
        syzygy.clear_index_cache()

    def packed(ys):  # sorted, padded to n entries with m
        ys = np.vstack([ys, np.full((n - len(ys), ys.shape[1]), m)])
        return np.ravel_multi_index(np.sort(ys, axis=0), (m + 1,) * n, order="F")

    index, group, groups = [], [], 1 + m  # group ids: 0 none, 1 + y one residue y
    for level in levels:
        index.append(packed(level.cols))
        group.append(groups + level.fine)
        groups += level.cell_orbit.size
    index, group = np.concatenate(index), np.concatenate(group)
    order = np.argsort(index)
    index, group = index[order], group[order]
    parts = []
    for r in range(p):
        ys = np.where(residues % p == r, residues // p, m)
        j = np.count_nonzero(ys < m, axis=0)
        part = np.where(j == 1, 1 + ys.min(axis=0), 0)
        many = packed(ys[:, j >= 2])
        at = np.searchsorted(index, many)
        assert np.array_equal(index[at], many)  # every class part is in the index
        part[j >= 2] = group[at]
        parts.append(part)
    _, vector = np.unique(np.transpose(parts), axis=0, return_inverse=True)
    keys, counts = np.unique(codes // q, return_counts=True)
    # one vector per key group and one key group per vector
    assert np.unique(codes // q * (vector.max() + 1) + vector.ravel()).size == keys.size
    assert vector.max() + 1 == keys.size
    assert np.any(counts > 1)  # the keys do collide


def test_parseval_byte_charge_covers_its_peak(monkeypatch):
    # refused with the memory budget one byte under the traced peak of the
    # build, admitted at twice it: p > n, where the fold of every row is the
    # peak, and p <= n, where grouping every row is; each at e = ns, where the
    # merge by residue multiset mod p^e keeps every row, and at e < ns
    configs = [(5, 2, 2, 4), (5, 2, 2, 2), (5, 3, 1, 3), (5, 3, 1, 1), (3, 2, 3, 6),
               (3, 2, 3, 4), (2, 2, 5, 10), (2, 2, 5, 7), (2, 3, 2, 6), (2, 3, 2, 3),
               (2, 5, 1, 5), (2, 5, 1, 2)]
    peaks = {}
    try:
        for p, n, s, e in configs:
            syzygy.clear_index_cache()
            tracemalloc.start()
            try:
                syzygy._parseval_groups(p, n, s, e)
                peaks[p, n, s, e] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        for config, peak in peaks.items():
            monkeypatch.setattr(budget, "MEMORY_BUDGET", peak - 1)
            with pytest.raises(BudgetExceededError, match="bytes"):
                syzygy._check_key_rows(*config)
            monkeypatch.setattr(budget, "MEMORY_BUDGET", 2 * peak)
            syzygy._check_key_rows(*config)
    finally:
        syzygy.clear_index_cache()


def _brute_parseval_sums(h, p, n, s):
    """The two Parseval sums over all q^n ordered tuples, grouped by key and
    by (key, cell multiset) with np.unique; orbit(C) counts the distinct
    ordered cell tuples that sort to C."""
    q, ncells = p ** (n * s), p ** s
    t = np.indices((q,) * n).reshape(n, -1)
    sums, power = [], np.ones_like(t)
    for _ in range(n):
        power = power * t % q
        sums.append(power.sum(axis=0) % q)
    key = np.ravel_multi_index(sums, (q,) * len(sums))
    cells = t % ncells
    multiset = np.ravel_multi_index(np.sort(cells, axis=0), (ncells,) * n)
    value = np.prod(h[t], axis=0)

    def grouped(codes):
        _, at = np.unique(codes, return_inverse=True)
        return np.bincount(at, value.real) + 1j * np.bincount(at, value.imag)
    b_key = grouped(key)
    pair = key * ncells ** n + multiset
    b_pair = grouped(pair)
    orderings = np.unique(multiset * ncells ** n + np.ravel_multi_index(cells, (ncells,) * n))
    orbit = np.bincount(orderings // ncells ** n, minlength=ncells ** n)
    pair_multiset = np.unique(pair) % ncells ** n
    return np.sum(np.abs(b_key) ** 2), np.sum(np.abs(b_pair) ** 2 / orbit[pair_multiset])


@pytest.mark.parametrize("p,n,s", [(3, 2, 1), (5, 2, 1), (7, 2, 1), (3, 2, 2), (5, 2, 2),
                                   (5, 3, 1), (3, 2, 3),  # p > n: factored over the classes
                                   (3, 1, 1), (5, 1, 2),  # n = 1: no level, U alone
                                   (5, 2, 0), (5, 1, 0),  # s = 0: q = 1 < p
                                   (2, 2, 1), (2, 3, 1), (3, 3, 1), (2, 2, 2), (2, 4, 1)])
def test_parseval_sums_match_brute_force(p, n, s):
    h = _folded_values(p, n, s)
    syzygy.clear_index_cache()
    try:
        got = syzygy._parseval_sums(h, p, n, s)
    finally:
        syzygy.clear_index_cache()
    assert got == pytest.approx(_brute_parseval_sums(h, p, n, s), rel=1e-12, abs=0)


PERIODIC_CONFIGS = [(3, 2, 1, 1), (5, 2, 1, 1), (3, 2, 2, 2), (3, 2, 2, 3), (5, 2, 2, 3),
                    (5, 3, 1, 2),  # p > n: factored over the classes
                    (2, 2, 2, 2), (2, 2, 2, 3), (2, 3, 1, 1), (2, 3, 1, 2), (3, 3, 1, 2),
                    (2, 4, 1, 2)]  # p <= n: one class


@pytest.mark.parametrize("p,n,s,e", PERIODIC_CONFIGS)
def test_parseval_sums_of_a_periodic_h_match_brute_force(p, n, s, e):
    # h of period p^e, s <= e < ns, handed over as its p^e values: the sums
    # over the (key, residue multiset mod p^e) rows equal brute force over
    # all q^n ordered tuples of h tiled to q = p^{ns} (at (5,3,1), 2M of
    # them, the grouping of every sorted tuple instead)
    rng = np.random.default_rng(1000 * p + 100 * n + 10 * s + e)
    h = rng.normal(size=p ** e) + 1j * rng.normal(size=p ** e)
    syzygy.clear_index_cache()
    try:
        got = syzygy._parseval_sums(h, p, n, s)
        rows = [level.weight.size for level in syzygy._parseval_groups(p, n, s, e)[0]]
        full = [level.weight.size for level in syzygy._parseval_groups(p, n, s, n * s)[0]]
    finally:
        syzygy.clear_index_cache()
    oracle = _brute_parseval_sums if p ** (n * s * n) <= 10 ** 5 else _all_rows_parseval_sums
    want = oracle(np.tile(h, p ** (n * s - e)), p, n, s)
    assert got == pytest.approx(want, rel=1e-12, abs=0)
    assert all(a < b for a, b in zip(rows, full))  # rows of one multiset mod p^e merge


def test_parseval_sums_refuse_a_length_that_is_no_period():
    h = np.ones(5 ** 4, complex)
    syzygy._parseval_sums(h[:25], 5, 2, 2)  # e = s
    for size in (5, 24, 5 ** 5):  # e < s, no power of 5, e > ns
        with pytest.raises(ValueError, match="p\\^e values"):
            syzygy._parseval_sums(np.ones(size, complex), 5, 2, 2)


def _weaken_power_tables(monkeypatch):
    """Key by every power sum but the last: then keys hold several cell
    multisets, for p <= n and p > n alike."""
    full = syzygy._power_tables

    def weakened(p, n, s):
        q, tables = full(p, n, s)
        return q, tables[:-1]
    monkeypatch.setattr(syzygy, "_power_tables", weakened)


@pytest.mark.parametrize("p,n,s", [(2, 2, 1), (5, 2, 2)])  # one class, and p classes
def test_parseval_groups_refuse_a_key_of_two_multisets(monkeypatch, p, n, s):
    # every key holds one cell multiset (for p > n a lemma, docs/quadrature.md);
    # the build checks it, so a weakened key is refused before any sum is taken
    _weaken_power_tables(monkeypatch)
    h = _folded_values(p, n, s)
    syzygy.clear_index_cache()
    try:
        with pytest.raises(RuntimeError, match="holds two cell multisets"):
            syzygy._parseval_groups(p, n, s, n * s)
        with pytest.raises(RuntimeError, match="holds two cell multisets"):
            syzygy._parseval_sums(h, p, n, s)
    finally:
        syzygy.clear_index_cache()


def test_parseval_key_guard_exits_3(monkeypatch, capsys):
    _weaken_power_tables(monkeypatch)
    syzygy.clear_index_cache()
    try:
        assert cli.main(["verify", "--suite", "theorem1", "--trials", "1"]) == 3
    finally:
        syzygy.clear_index_cache()
    out, err = capsys.readouterr()
    assert not out
    assert err.startswith("invariant failure: ") and "holds two cell multisets" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("p,n,s", [(3, 2, 2), (5, 2, 2), (3, 2, 3)])
def test_level_sums_of_several_classes_are_each_class_alone(p, n, s):
    # the class-0 residues span several cells (s >= 2), so each class has
    # several sums; a call over p classes must give each class the sums of a
    # call over it alone
    rng = np.random.default_rng(p + n + s)
    values = rng.normal(size=(p, p ** (n * s - 1))) + 1j * rng.normal(size=(p, p ** (n * s - 1)))
    syzygy.clear_index_cache()
    try:
        levels, _ = syzygy._parseval_groups(p, n, s, n * s)
    finally:
        syzygy.clear_index_cache()
    (level,) = levels
    alone = level._replace(at=level.at[:1])  # one class, at offset 0
    each = [syzygy._level_sums(values[r:r + 1], alone) for r in range(p)]
    got = syzygy._level_sums(values, level)
    for i in (0, 1):  # the key sums, then the cell sums
        assert got[i] == pytest.approx([sums[i][0] for sums in each], rel=1e-14, abs=0)


def _folded_values(p, n, s):
    """h of a seeded random f at a nonzero centre, folded mod q = p^{ns}."""
    from momentsq.extension import _modulated_values
    from momentsq import random_locally_constant
    f = random_locally_constant(padic(p), max(n * s, 1), seed=10 * p + n)
    center = tuple(Fraction((-1) ** k * k, p ** k) for k in range(1, n + 1))
    _, g = _modulated_values(f, center, n * s)
    return g.reshape(-1, p ** (n * s)).sum(axis=0)


def _all_rows_parseval_sums(h, p, n, s):
    """The two Parseval sums over every sorted n-tuple of residues mod q,
    weighted by its orbit size and grouped by (key, cell multiset) with
    np.unique: the grouping of all C(q+n-1, n) rows that the class
    factorisation replaces (n >= 2).  Tuples with different p_1 never share
    a key, so it runs one p_1 = r at a time: those tuples are each sorted
    (n-1)-tuple t with a = r - p_1(t) mod q put first when a <= t_1."""
    q, ncells = p ** (n * s), p ** s
    t = np.array(list(itertools.combinations_with_replacement(range(q), n - 1))).T
    powers, power = [], np.ones_like(t)
    for _ in range(n):
        power = power * t % q
        powers.append(power.sum(axis=0) % q)
    value_t = np.prod(h[t], axis=0)
    key_sum = cell_sum = 0.0
    for r in range(q):
        a = (r - powers[0]) % q
        keep = np.flatnonzero(a <= t[0])
        a, rows = a[keep], np.vstack([a[keep], t[:, keep]])  # each column sorted
        sums, power = [], a
        for k in range(1, n):  # p_1 = r is fixed: the key is (p_2, ..., p_n)
            power = power * a % q
            sums.append((powers[k][keep] + power) % q)
        multiset = np.ravel_multi_index(np.sort(rows % ncells, axis=0), (ncells,) * n)
        codes = np.ravel_multi_index((*sums, multiset), (q,) * (n - 1) + (ncells ** n,))
        value = _orbit_sizes(rows) * h[a] * value_t[keep]
        pairs, at = np.unique(codes, return_inverse=True)
        b_pair = np.bincount(at, value.real) + 1j * np.bincount(at, value.imag)
        _, at = np.unique(pairs // ncells ** n, return_inverse=True)
        b_key = np.bincount(at, b_pair.real) + 1j * np.bincount(at, b_pair.imag)
        cell_orbit = _orbit_sizes(np.unravel_index(pairs % ncells ** n, (ncells,) * n))
        key_sum += np.sum(np.abs(b_key) ** 2)
        cell_sum += np.sum(np.abs(b_pair) ** 2 / cell_orbit)
    return key_sum, cell_sum


@pytest.mark.parametrize("p,n,s", [(5, 2, 2), (7, 3, 1)])
def test_parseval_sums_match_all_rows_grouping(p, n, s):
    # (7,3,1): 6,784,540 sorted rows, 22,050 in the class-0 index; the
    # grouping takes one p_1 at a time, about 20,000 rows (tracemalloc peak
    # 7.6 MB), where brute force over 343^3 ordered tuples would hold
    # about 40M rows
    h = _folded_values(p, n, s)
    syzygy.clear_index_cache()
    try:
        got = syzygy._parseval_sums(h, p, n, s)
    finally:
        syzygy.clear_index_cache()
    assert got == pytest.approx(_all_rows_parseval_sums(h, p, n, s), rel=1e-12, abs=0)


BRUTE_CONFIGS = [(p, n, s) for p in (2, 3, 5) for n in (2, 3) for s in (1, 2)
                 if p ** (n * s * n) <= 2 * 10 ** 5]


@pytest.mark.parametrize("p,n,s", BRUTE_CONFIGS)
def test_scan_and_sets_match_brute_force(p, n, s):
    # group every ordered residue tuple mod q by its power sums mod q
    q, ncells = p ** (n * s), p ** s
    groups: dict[tuple, set] = {}
    for a in itertools.product(range(q), repeat=n):
        key = tuple(sum(x ** k for x in a) % q for k in range(1, n + 1))
        groups.setdefault(key, set()).add(tuple(x % ncells for x in a))
    scan = scan_strong_diagonal(p, n, s)
    mismatches = []
    for code, card in enumerate(scan.cardinalities):
        idx = tuple(code // ncells ** k % ncells for k in range(n))
        members = set().union(*(g for g in groups.values() if idx in g))
        assert card == len(members)
        if members != set(itertools.permutations(idx)):
            mismatches.append(idx)
        base = cell_tuple(padic(p), padic_scale(p, s), idx)
        assert syzygy_set_nonarch(base).member_indices == sorted(members)
    assert list(scan.mismatches) == mismatches
    assert scan.all_match_permutations == (not mismatches)


def test_key_shared_by_two_multisets(monkeypatch):
    # Every real configuration tried is strongly diagonal, so the relation is
    # grouped from synthetic codes: Q_3 with n = 2, s = 1 (3 cells, q = 9),
    # codes key * 9 + multiset, where a multiset (c0 <= c1) is c0 + 3 * c1.
    # These groups are not closed under cell shifts, so the shift step is left
    # out; test_pair_relation_matches_full_walk covers it.
    ms = {(0, 0): 0, (0, 1): 3, (1, 1): 4, (0, 2): 6, (1, 2): 7, (2, 2): 8}
    groups = [[(0, 1), (2, 2)], [(0, 0), (0, 2)], [(0, 2)], [(1, 1)], [(1, 2)],
              [(0, 1), (1, 2)], [(2, 2), (0, 1)], [(1, 2), (1, 2)]]  # repeats
    codes = np.array([key * 9 + ms[m] for key, g in enumerate(groups) for m in g][::-1])
    monkeypatch.setattr(syzygy, "_translate_codes", lambda *a: codes)
    monkeypatch.setattr(syzygy, "_shift_pairs", lambda pairs, ncells, n: pairs)
    syzygy.clear_index_cache()
    try:
        scan = scan_strong_diagonal(3, 2, 1)
        # base code c is the tuple (c % 3, c // 3)
        assert list(scan.cardinalities) == [3, 5, 3, 5, 1, 4, 3, 4, 3]
        assert scan.mismatches == ((0, 0), (1, 0), (2, 0), (0, 1), (2, 1), (0, 2),
                                   (1, 2), (2, 2))
        assert syzygy_set_nonarch(q3_tuple(1, 0)).member_indices == [
            (0, 1), (1, 0), (1, 2), (2, 1), (2, 2)]
        assert syzygy_set_nonarch(q3_tuple(1, 1)).member_indices == [(1, 1)]
    finally:
        syzygy.clear_index_cache()


def _full_walk_relation(p, n, s):
    """The pair relation read off every row of `_key_rows`, grouped in a dict."""
    q = p ** (n * s)
    codes = _sorted_unique(syzygy._key_rows(p, n, s, n * s, n, 1)[0])
    key = codes // q
    codes = codes[np.isin(key, key[1:][key[1:] == key[:-1]])]  # keys with two codes
    groups: dict[int, set] = {}
    for key, multiset in zip((codes // q).tolist(), (codes % q).tolist()):
        groups.setdefault(key, set()).add(multiset)
    pairs = sorted({(a, b) for g in set(map(frozenset, groups.values()))
                    for a in g for b in g if a != b})
    return [np.array([pair[i] for pair in pairs], dtype=np.int64) for i in (0, 1)]


@pytest.mark.parametrize("p,n,s,size", [
    (5, 2, 1, 30), (3, 2, 2, 180), (7, 2, 1, 84), (5, 3, 1, 20), (7, 2, 2, 29400),
    (2, 2, 2, 16), (3, 3, 1, 6),  # gcd(n, q) = 2 and 3: p_1 takes g residues
])
def test_pair_relation_matches_full_walk(monkeypatch, p, n, s, size):
    # The real relation is empty at every config tried; without p_n many
    # multisets share a key, and the translate reduction must still find each.
    full = syzygy._power_tables

    def weakened(p, n, s):
        q, tables = full(p, n, s)
        return q, tables[:-1]
    syzygy.clear_index_cache()
    try:
        for tables in (full, weakened):
            monkeypatch.setattr(syzygy, "_power_tables", tables)
            syzygy.clear_index_cache()
            got, want = syzygy._pair_relation(p, n, s), _full_walk_relation(p, n, s)
            assert [a.dtype for a in got] == [np.int64, np.int64]
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert got[0].size == size
    finally:
        syzygy.clear_index_cache()


def test_relation_needs_no_full_key_rows(monkeypatch):
    # the relation keys one translate per class; `_key_rows` serves the norms
    def no_key_rows(*args):
        raise AssertionError("the relation walked every sorted n-tuple")
    monkeypatch.setattr(syzygy, "_key_rows", no_key_rows)
    syzygy.clear_index_cache()
    try:
        assert scan_strong_diagonal(5, 3, 1).all_match_permutations
        assert syzygy_set_nonarch(q5_tuple(4, 1)).member_indices == [(1, 4), (4, 1)]
    finally:
        syzygy.clear_index_cache()


@pytest.mark.parametrize("p,n,s", [(2, 2, 1), (3, 2, 1)])
def test_key_rows_positions_are_sorted_tuples(p, n, s):
    # rows are the sorted position tuples; position x holds residue
    # x // span + p^s * (x % span), span = q / p^s: cell by cell
    q, ncells = p ** (n * s), p ** s
    tuples = syzygy._key_rows(p, n, s, n * s, n, 1)[1]
    assert tuples.dtype == np.int64
    decoded = [tuple(int(x) // q ** i % q for i in range(n)) for x in tuples]
    residue = [x // (q // ncells) + ncells * (x % (q // ncells)) for x in range(q)]
    assert decoded == [tuple(residue[x] for x in t)
                       for t in itertools.combinations_with_replacement(range(q), n)]


def test_set_query_needs_no_tuple_keys(monkeypatch):
    # the set query reads the pair relation; `_tuple_keys` serves the oracle only
    def no_tuple_keys(*args, **kwargs):
        raise AssertionError("the set query enumerated the base's point tuples")
    monkeypatch.setattr(syzygy, "_tuple_keys", no_tuple_keys)
    assert syzygy_set_nonarch(q3_tuple(2, 0, 2)).member_indices == [
        (0, 2, 2), (2, 0, 2), (2, 2, 0)]
    assert syzygy_set_nonarch(q5_tuple(4, 1)).member_indices == [(1, 4), (4, 1)]


def test_scan_budget_counts_sorted_tuples(monkeypatch):
    # (5,2,1) folds C(25 + 0, 1) = 25 sorted 1-tuples, one translate per key
    # class, not the C(25 + 1, 2) = 325 sorted pairs or 25^2 = 625 ordered ones
    with monkeypatch.context() as m:
        m.setattr(budget, "ENUMERATION_BUDGET", 25)
        assert scan_strong_diagonal(5, 2, 1).bases == 25
        m.setattr(budget, "ENUMERATION_BUDGET", 24)
        with pytest.raises(BudgetExceededError, match="25 enumeration steps"):
            scan_strong_diagonal(5, 2, 1)  # checked on a cached table too

    def enumerate_nothing(folds, n):
        raise AssertionError("enumerated before the budget check")
    monkeypatch.setattr(syzygy, "_sorted_folds", enumerate_nothing)  # the one enumerator
    syzygy.clear_index_cache()
    with pytest.raises(BudgetExceededError, match="enumeration steps"):
        scan_strong_diagonal(7, 3, 2)  # C(7^6 + 1, 2), about 6.9e9 rows
    with pytest.raises(BudgetExceededError, match="enumeration steps"):
        syzygy_set_nonarch(q5_tuple(0, 1, s=9))  # 5^18 rows
    monkeypatch.setattr(budget, "ENUMERATION_BUDGET", 10 ** 30)
    with pytest.raises(BudgetExceededError, match="overflow"):
        scan_strong_diagonal(2, 2, 16)  # codes up to gcd(2, q) * q^2 = 2^65


def test_pair_guard_admits_the_reach(monkeypatch):
    # (17,3,1) folds C(4914, 2) = 12,071,241 rows, (11,2,3) 11^6 = 1,771,561
    # and (5,4,1) C(627, 3) = 40,885,625, charged about 1.96e9 bytes
    syzygy._check_pair_rows(17, 3, 1)
    syzygy._check_pair_rows(11, 2, 3)
    syzygy._check_pair_rows(5, 4, 1)
    monkeypatch.setattr(budget, "ENUMERATION_BUDGET", 12071240)
    with pytest.raises(BudgetExceededError, match="12071241 enumeration steps"):
        syzygy._check_pair_rows(17, 3, 1)


def test_pair_byte_charge_covers_its_peak(monkeypatch):
    # refused with the memory budget one byte under the traced peak of the
    # scan, admitted at twice it: n = 2, where the q-sized tables dominate,
    # and n = 3, 4 with gcd(n, q) = 1, and (3,3,2), where gcd(n, q) = n
    # translates each keep about a third of the rows
    peaks = {}
    for p, n, s in [(7, 2, 2), (7, 3, 1), (3, 3, 2), (3, 4, 1)]:
        syzygy.clear_index_cache()
        tracemalloc.start()
        try:
            scan_strong_diagonal(p, n, s)
            peaks[p, n, s] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    try:
        for (p, n, s), peak in peaks.items():
            syzygy.clear_index_cache()
            monkeypatch.setattr(budget, "MEMORY_BUDGET", peak - 1)
            with pytest.raises(BudgetExceededError, match="bytes"):
                scan_strong_diagonal(p, n, s)
            monkeypatch.setattr(budget, "MEMORY_BUDGET", 2 * peak)
            assert scan_strong_diagonal(p, n, s).all_match_permutations
    finally:
        syzygy.clear_index_cache()


def test_raised_step_limit_leaves_the_byte_guard(monkeypatch):
    # (7,3,2) folds C(7^6 + 1, 2) = 6,920,702,425 rows: over the step limit,
    # and once that is raised, over the memory budget, before anything is built
    with pytest.raises(BudgetExceededError, match="6920702425 enumeration steps"):
        syzygy._check_pair_rows(7, 3, 2)
    monkeypatch.setattr(budget, "ENUMERATION_BUDGET", 10 ** 10)

    def enumerate_nothing(folds, n):
        raise AssertionError("enumerated before the byte guard")
    monkeypatch.setattr(syzygy, "_sorted_folds", enumerate_nothing)
    syzygy.clear_index_cache()
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="bytes, over the memory budget"):
            syzygy._check_pair_rows(7, 3, 2)
        with pytest.raises(BudgetExceededError, match="bytes, over the memory budget"):
            scan_strong_diagonal(7, 3, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_pair_byte_guard_refuses_before_enumerating(monkeypatch):
    # (23,3,1) folds C(12168, 2) = 74,018,028 rows, within the step budget,
    # but would hold about 2.8 GB
    def enumerate_nothing(folds, n):
        raise AssertionError("enumerated before the byte guard")
    monkeypatch.setattr(syzygy, "_sorted_folds", enumerate_nothing)
    syzygy.clear_index_cache()
    with pytest.raises(BudgetExceededError, match="bytes, over the memory budget"):
        scan_strong_diagonal(23, 3, 1)
    with pytest.raises(BudgetExceededError, match="bytes, over the memory budget"):
        syzygy_set_nonarch(cell_tuple(padic(23), padic_scale(23, 1), (0, 1, 2)))


def test_clear_index_cache_empties_both_tables():
    from momentsq.extension import weighted_norms
    f = LocallyConstant(padic(2), 2, (1, 2, 3, 4))
    weighted_norms(f, padic_scale(2, 1), n=2)
    scan_strong_diagonal(2, 2, 1)
    tables = [syzygy._pair_relation, syzygy._parseval_groups]
    assert all(t.cache_info().currsize for t in tables)
    syzygy.clear_index_cache()
    assert [t.cache_info().currsize for t in tables] == [0, 0]


def test_scan_rejects_negative_s():
    with pytest.raises(ValueError, match="nonnegative"):
        scan_strong_diagonal(5, 2, -1)  # q = 5^-2 is no modulus


@pytest.mark.parametrize("n", [1, 0, -1])
def test_scan_rejects_n_below_2_before_enumerating(monkeypatch, n):
    def enumerate_nothing(folds, n):
        raise AssertionError("enumerated before the n check")
    monkeypatch.setattr(syzygy, "_sorted_folds", enumerate_nothing)
    syzygy.clear_index_cache()
    with pytest.raises(ValueError, match="n >= 2"):
        scan_strong_diagonal(5, n, 1)


def test_scan_checks_the_prime_before_enumerating(monkeypatch):
    def enumerate_nothing(folds, n):
        raise AssertionError("enumerated before the prime check")
    monkeypatch.setattr(syzygy, "_sorted_folds", enumerate_nothing)
    syzygy.clear_index_cache()
    for p, n, s in ((0, 2, 2), (4, 3, 2)):
        with pytest.raises(ValueError, match="prime must be a prime"):
            scan_strong_diagonal(p, n, s)


def _oracle_pair(p, n, s):
    field, scale = padic(p), padic_scale(p, s)
    idx = tuple(i % p ** s for i in range(n))
    return cell_tuple(field, scale, idx), cell_tuple(field, scale, idx[::-1])


def test_oracle_byte_charge_covers_its_peak(monkeypatch):
    # refused with the memory budget one byte under the traced peak of the
    # membership test, admitted at twice it: n = 2 over 3^10 representative
    # tuples and n = 3 over 2^18
    peaks = {}
    for p, n, s in [(3, 2, 5), (2, 3, 3)]:
        pair = _oracle_pair(p, n, s)
        tracemalloc.start()
        try:
            assert is_syzygy_nonarch(*pair)
            peaks[pair] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    for (base, other), peak in peaks.items():
        monkeypatch.setattr(budget, "MEMORY_BUDGET", peak - 1)
        with pytest.raises(BudgetExceededError, match="bytes"):
            is_syzygy_nonarch(base, other)
        monkeypatch.setattr(budget, "MEMORY_BUDGET", 2 * peak)
        assert is_syzygy_nonarch(base, other)


def test_oracle_byte_guard_refuses_before_allocating():
    # (2,2,13): 2^26 representative tuples, within the step budget, charged
    # 48 bytes each, over the 2 GiB memory budget
    base, other = _oracle_pair(2, 2, 13)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="bytes, over the memory budget"):
            is_syzygy_nonarch(base, other)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        syzygy_set_nonarch(q5_tuple(0, 1, s=9))
    with pytest.raises(BudgetExceededError):
        is_syzygy_nonarch(q5_tuple(0, 1, s=9), q5_tuple(1, 0, s=9))


def test_nonarch_engine_rejects_a_real_base():
    with pytest.raises(ValueError, match="runs over Q_p"):
        syzygy_set_nonarch(cell_tuple(REAL, real_scale(4), (0, 1)))


def test_bound_values():
    assert syzygy_bound(padic(7), 3) == 27
    assert syzygy_bound(REAL, 3) == 343 * 27
    assert syzygy_bound(REAL, 7) == 5 ** 7 * 7 ** 7


def test_real_sampler_permutations_and_soundness():
    curve = Curve.moment(2)
    base = cell_tuple(REAL, real_scale(8), (2, 5))
    rep = syzygy_set_real(curve, base)
    members = set(rep.member_indices)
    assert {(2, 5), (5, 2)} <= members
    assert rep.cardinality <= bezout_syzygy_bound(curve, REAL) == 50
    assert rep.method is SyzygyMethod.REAL_SAMPLED


def test_real_sampler_vacuous_epsilon():
    # eps at least n * sup |gamma| makes the constraint vacuous
    curve = Curve.moment(2)
    base = cell_tuple(REAL, real_scale(4), (1, 2))
    rep = syzygy_set_real(curve, base, epsilon=Fraction(3))
    assert rep.cardinality == 16


def test_real_sampler_grid_validation():
    curve = Curve.moment(2)
    base = cell_tuple(REAL, real_scale(8), (0, 1))
    with pytest.raises(ValueError):
        syzygy_set_real(curve, base, grid_step=Fraction(1, 16))  # > delta/8


def test_real_sampler_rejects_bad_values(monkeypatch):
    def enumerate_nothing(folds, n):
        raise AssertionError("enumerated before the values were checked")
    monkeypatch.setattr(syzygy, "_sorted_folds", enumerate_nothing)
    curve = Curve.moment(2)
    base = cell_tuple(REAL, real_scale(8), (2, 5))
    for step in (Fraction(0), Fraction(-1, 64)):
        with pytest.raises(ValueError, match="positive"):
            syzygy_set_real(curve, base, grid_step=step)
    with pytest.raises(ValueError, match="nonnegative"):
        syzygy_set_real(curve, base, epsilon=Fraction(-1, 100))


def test_real_sampler_refuses_values_past_64_bits(monkeypatch):
    # (t, t^13) at grid 1/32: the rescaled t^13 values reach 2 * 32^13 = 2^66
    def enumerate_nothing(folds, n):
        raise AssertionError("enumerated before the overflow check")
    monkeypatch.setattr(syzygy, "_sorted_folds", enumerate_nothing)
    curve = Curve((polys.monomial(1), polys.monomial(13)))
    with pytest.raises(BudgetExceededError, match="overflow 64-bit"):
        syzygy_set_real(curve, cell_tuple(REAL, real_scale(4), (1, 2)))


def _real_members_by_pairs(curve, base, grid):
    """The ordered cell tuples J with grid points t in J and s in the base
    cells satisfying |sum_i gamma(t_i) - gamma(s_i)| <= delta^n in every
    coordinate, checked pair by pair in Fractions."""
    n, delta = base.n, base.scale.delta
    per_cell = int(delta / grid)
    gamma = [curve.evaluate(a * grid) for a in range(int(1 / grid))]

    def sums(points):
        return [sum(gamma[a][k] for a in points) for k in range(n)]
    s_sums = [sums(s) for s in itertools.product(
        *[range(i * per_cell, (i + 1) * per_cell) for i in base.indices])]
    members = set()
    for t in itertools.product(range(len(gamma)), repeat=n):
        cells = tuple(a // per_cell for a in t)
        t_sums = sums(t)
        if cells not in members and any(
                all(abs(x - y) <= delta ** n for x, y in zip(t_sums, s)) for s in s_sums):
            members.add(cells)
    return sorted(members)


@pytest.mark.parametrize("coords,idx,size", [
    (None, (1, 2), 12),
    (None, (3, 3), 5),
    ((polys.poly([0, 2]), polys.poly([Fraction(1, 3), 0, 1])), (0, 2), 9),  # (2T, T^2 + 1/3)
])
def test_real_sampler_matches_pairwise_oracle(coords, idx, size):
    curve = Curve.moment(2) if coords is None else Curve(coords)
    base = cell_tuple(REAL, real_scale(4), idx)
    expected = _real_members_by_pairs(curve, base, Fraction(1, 32))
    assert len(expected) == size
    assert syzygy_set_real(curve, base).member_indices == expected


def test_real_sampler_budget_counts_hit_matrix(monkeypatch):
    # delta = 1/4 at grid 1/32: C(32 + 1, 2) = 528 sorted grid pairs against
    # the 8^2 point pairs of the base cells, not 32^2 ordered pairs
    curve = Curve.moment(2)
    base = cell_tuple(REAL, real_scale(4), (1, 2))
    monkeypatch.setattr(budget, "ENUMERATION_BUDGET", 33792)
    assert syzygy_set_real(curve, base).cardinality == 12
    monkeypatch.setattr(budget, "ENUMERATION_BUDGET", 33791)
    with pytest.raises(BudgetExceededError, match="33792 enumeration steps"):
        syzygy_set_real(curve, base)

    def enumerate_nothing(folds, n):
        raise AssertionError("enumerated before the budget check")
    monkeypatch.setattr(syzygy, "_sorted_folds", enumerate_nothing)
    with pytest.raises(BudgetExceededError, match="enumeration steps"):
        syzygy_set_real(curve, base)


def _skewed_evaluate(monkeypatch):
    """Make `Curve.evaluate` disagree with the curve's coefficients, from which
    the sampler builds its integer grid: every value is scaled by 4096.  Each
    hit multiset other than the base's own differs from the base cells in some
    power sum by at least 1/64^2 at delta = 1/8 (grid 1/64), which the scale
    lifts past eps = 1/64."""
    true = Curve.evaluate
    monkeypatch.setattr(Curve, "evaluate",
                        lambda self, t: tuple(4096 * v for v in true(self, t)))


def test_real_sampler_exact_recheck_raises(monkeypatch):
    curve = Curve.moment(2)
    base = cell_tuple(REAL, real_scale(8), (2, 5))
    assert syzygy_set_real(curve, base).cardinality > 2  # multisets beyond the base's
    _skewed_evaluate(monkeypatch)
    with pytest.raises(RuntimeError, match="failed the exact re-check"):
        syzygy_set_real(curve, base)


def test_real_sampler_recheck_failure_exits_3(monkeypatch, capsys):
    _skewed_evaluate(monkeypatch)
    assert cli.main(["syzygy", "--field", "real", "--n", "2", "--delta-inv", "8",
                     "--tuple", "2,5"]) == 3
    out, err = capsys.readouterr()
    assert not out
    assert err.startswith("invariant failure: ") and "failed the exact re-check" in err
    assert err.count("\n") == 1


def test_permutation_orbit():
    orbit = permutation_orbit(q5_tuple(0, 1, s=1))
    assert [t.indices for t in orbit] == [(0, 1), (1, 0)]


def test_oracle_report_matches_exact_enumeration():
    from momentsq import syzygy_set_oracle
    for idx in [(0, 1), (2, 2), (4, 1)]:
        base = q5_tuple(*idx)
        oracle = syzygy_set_oracle(base)
        exact = syzygy_set_nonarch(base)
        assert oracle.method is SyzygyMethod.PERMUTATION_ORACLE
        assert oracle.member_indices == exact.member_indices
        assert oracle.epsilon == exact.epsilon
