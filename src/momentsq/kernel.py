"""The sorted-tuple kernel shared by the Q_p engine (`syzygy`) and the
Vinogradov join (`vinogradov`).

`_sorted_folds` enumerates the nondecreasing n-tuples over range(m) and
folds values over them by suffix copies: in lexicographic order the sorted
(j-1)-tuples whose first entry is at least a form a suffix, so the
j-tuples starting with a are a's value added to that suffix, one
contiguous add per a.  Tuples are one more fold, packed base m; every
packed code is written and read by numpy's codec, np.ravel_multi_index
and np.unravel_index, lowest digit first (order="F").  The kernel folds
values only: a row's orbit size is a function of its columns, and
`_orbit_sizes` is the one orbit rule.  `_sorted_unique`, `_run_starts`
and `_ranges` group the sorted codes, and `_repeated_column` decides
whether any two columns of an int64 matrix are equal.
"""
from __future__ import annotations

import math

import numpy as np


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a 1-d array; the same array np.unique gives.

    np.unique is not used here on purpose: from numpy 2.3 on, plain 1-d
    input (no return_index/inverse/counts) takes a hash-table path,
    `_unique_hash`, and sorts its output afterwards.  On 26M random int64
    keys that path is about 100x slower than sorting and masking the run
    starts (47 s against 0.48 s on 2 cores with numpy 2.4.6).
    """
    a = np.sort(a, axis=None)
    return a[_run_starts(a)]


def _run_starts(a: np.ndarray) -> np.ndarray:
    """A bool mask over a sorted 1-d array, True where a run of equal values starts."""
    start = np.empty(a.shape, dtype=bool)
    start[:1] = True
    np.not_equal(a[1:], a[:-1], out=start[1:])
    return start


# the fingerprint multiplier, floor(2^64 / golden ratio): odd, so each
# multiply-add is a bijection of uint64 in the running value
_FINGERPRINT = np.uint64(0x9E3779B97F4A7C15)


def _repeated_column(rows: np.ndarray) -> bool:
    """Whether two columns of a 2-d int64 array with at least one row are equal.

    Each column folds into one uint64 fingerprint, h = h * M + row mod 2^64
    row by row, in array ops (they wrap; numpy scalar ops would warn).
    Equal columns have equal fingerprints, so if no two of the sorted
    fingerprints are equal no column repeats: one plain sort decides it.
    Otherwise the columns whose fingerprints repeat are gathered (one
    argsort) and lexsorted, and the answer is their exact compare.
    """
    h = rows[0].view(np.uint64).copy()
    for row in rows[1:]:
        np.multiply(h, _FINGERPRINT, out=h)
        np.add(h, row.view(np.uint64), out=h)
    same = np.sort(h)
    same = same[1:] == same[:-1]  # adjacent sorted fingerprints that agree
    if not same.any():
        return False
    shared = np.zeros(h.size, dtype=bool)  # in a run of equal fingerprints
    shared[1:] = same
    shared[:-1] |= same
    candidates = rows[:, np.argsort(h)[shared]]
    candidates = candidates[:, np.lexsort(candidates)]
    return bool((candidates[:, 1:] == candidates[:, :-1]).all(axis=0).any())


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenation of arange(start, start + length) over the pairs."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1]) + np.repeat(starts - ends + lengths, lengths)


def _sorted_folds(folds, n: int):
    """Values over every nondecreasing n-tuple t over range(m), in
    lexicographic order (that of itertools.combinations_with_replacement):
    C(m+n-1, n) rows, one per orbit of ordered tuples under permutation.
    For (v, radix) pairs with len(v) = m, the list holds, per pair,
    sum_i v[t_i] * radix^i in v's dtype.  The fold (arange(m), m) packs
    the tuples: np.unravel_index(fold, (m,) * n, order="F") are their
    columns, and `_orbit_sizes` of those gives each row's orbit size.

    In lexicographic order the sorted (j-1)-tuples whose first entry is at
    least a form a suffix, so the j-tuples that start with a fold as
    v[a] + radix * fold(suffix): each level is one loop over a of
    contiguous adds into preallocated rows, with no index columns and no
    gathers.
    """
    m = len(folds[0][0])
    values = [np.array(v) for v, _ in folds]
    for j in range(2, n + 1):
        suffix = [f * radix if radix != 1 else f for f, (_, radix) in zip(values, folds)]
        values = [np.empty(math.comb(m + j - 1, j), f.dtype) for f in suffix]
        end, dst = suffix[0].size, 0
        for a in range(m):
            lo = end - math.comb(m - a + j - 2, j - 1)  # the suffix starting at a or later
            stop = dst + end - lo
            for out, f, (v, _) in zip(values, suffix, folds):
                np.add(f[lo:], v[a], out=out[dst:stop])
            dst = stop
    return values


def _orbit_sizes(cols) -> np.ndarray:
    """n!/prod(mult!), the number of distinct orderings, for each row of n
    columns whose equal entries are adjacent: the one orbit rule."""
    run = np.ones(cols[0].shape, dtype=np.int64)  # equal values ending here
    denom = run.copy()
    for a, b in zip(cols, cols[1:]):
        run += 1
        run[a != b] = 1
        denom *= run
    return np.floor_divide(math.factorial(len(cols)), denom, out=denom)
