"""Exact counting of integer solutions of the translation-dilation system.

J(N) counts the tuples (s_1, t_1, ..., s_n, t_n) in (Z intersect [1, N])^2n
with sum_i gamma(t_i) = sum_i gamma(s_i).  For the moment curve this is
sum_v m(v)^2 over the level sets m(v) = #{t : sum_i gamma(t_i) = v}.  The
power-sum vector is symmetric, so the join enumerates only the C(N+n-1, n)
nondecreasing tuples, each standing for its orbit of n!/prod(mult!)
orderings.  If no two sorted tuples share a key v, m(v) is its tuple's
orbit size, and J(N) is the sum of orbit^2 over the sorted tuples, which
counts the pairs of reorderings: `permutation_count`.  The first n power
sums fix a multiset (Girard-Newton), so no two do; the join only checks
that, and by translation the check needs only the tuples with t_1 = 1 (see
`_moment_join`).  The keys come from `syzygy._sorted_fold_blocks`, which
builds each level of sorted tuples from suffix copies of the level below
(the tuples starting with a read v(a) + key(suffix)) and streams the last
level in blocks, so the join holds the level below the last, the sorted
keys of the tuples starting with 1, a bitmap of their low bits and one
block: at n = 2, N = 5000 that is 0.15 traced bytes per sorted tuple, and
0.70 at n = 3, N = 563.  A report over many N joins once, at the largest
N the guards admit: vectors distinct over [1, N] stay distinct over any
smaller range.  The budget counts the sorted tuples, the bytes are
checked against `budget.MEMORY_BUDGET`, and keys past 64 bits are
refused.  The brute-force path compares all pairs of tuples and is the
oracle the fast paths are checked against.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import product

import numpy as np

from .budget import (DEFAULT_COUNT_BUDGET, BudgetExceededError, check_budget, check_bytes,
                     check_sorted_tuples)
from .curves import Curve
from .syzygy import _run_starts, _sorted_fold_blocks, _sorted_folds


class CountMethod(Enum):
    HASH_JOIN = "hash_join"
    BRUTE_FORCE = "brute_force"
    PERMUTATION_FORMULA = "permutation_formula"


@dataclass(frozen=True)
class CountResult:
    n: int
    N: int
    count: int
    method: CountMethod
    elapsed: float

    def __post_init__(self):
        if not self.N ** self.n <= self.count <= self.N ** (2 * self.n):
            raise ValueError("count outside [N^n, N^2n]")


def diagonal_count(n: int, N: int) -> int:
    """The diagonal contribution N^n (t a reordering of itself, s = t)."""
    if n < 0 or N < 1:
        raise ValueError("n >= 0 and N >= 1")
    return N ** n


def permutation_count(n: int, N: int) -> int:
    """sum over ordered s in [1,N]^n of the number of distinct reorderings
    of s, in O(n^2) integer steps.

    The count T_n is n!^2 [x^n] A(x)^N with A(x) = sum_k x^k / k!^2, and
    J.C.P. Miller's recurrence for a power of a power series, scaled by
    k!^2, reads T_k = (1/k) sum_{j=1..k} ((N+1)j - k) C(k, j)^2 T_{k-j},
    with T_0 = 1.
    """
    if n < 0 or N < 1:
        raise ValueError("n >= 0 and N >= 1")
    t = [1]
    for k in range(1, n + 1):
        t.append(sum(((N + 1) * j - k) * math.comb(k, j) ** 2 * t[k - j]
                      for j in range(1, k + 1)) // k)
    return t[n]


_JOIN_BLOCK = 2 ** 16  # rows of sorted tuples per block of the join
_JOIN_MARKS = 64  # bitmap entries per head key: 1-2% of later keys are marked
_JOIN_ROW_BYTES = 32  # per head row and per point of [1, N]; 18-25 traced at large N
_JOIN_BLOCK_BYTES = 24  # per block row; 18.3 traced


def _moment_join(n: int, N: int, budget: int) -> int:
    """J(N) for the moment curve: `permutation_count`, once the sorted
    n-tuples over [1, N] are checked to have distinct keys.

    Packing: the k-th component sum is below R_k = n*N^k + 1, so the digits
    sum without carrying, and a tuple's key, below prefix[n] = R_1 ... R_n,
    sums phi(t) = sum_k t^k * prefix[k-1] over its points: one radix-1
    fold of `_sorted_fold_blocks`.

    If no two sorted tuples share a key, J(N) = sum orbit^2, which is
    `permutation_count` (Girard-Newton).  The join checks that, without
    assuming it, by translation: p_k(t - c) = sum_j C(k, j) (-c)^(k-j)
    p_j(t), so shifting two sorted tuples with one key down by
    c = min(t_1, t'_1) - 1 gives two sorted tuples over [1, N], with one
    key and the same packing, one of which starts with 1.  So the keys are
    distinct iff the head keys (the C(N+n-2, n-1) rows (1, s), phi(1) plus
    the keys of the sorted (n-1)-tuples s) are, and no later key is a head
    key.  The head is built from the level below, sorted and checked by
    runs; the head rows also lead the level-n stream, so they are skipped
    there by position, and each later block looks its keys' low bits up in
    a bitmap of the head's and confirms the few marked ones by
    `searchsorted` into the head.  Only the head, the rows of level n-1,
    the bitmap and one block are held.
    """
    prefix = [math.prod(n * N ** j + 1 for j in range(1, k + 1)) for k in range(n + 1)]
    check_sorted_tuples(N, n, prefix[n], budget, f"[1,{N}]")
    rows = math.comb(N + n - 2, n - 1)
    mask = (1 << (_JOIN_MARKS * rows - 1).bit_length()) - 1
    check_bytes(_JOIN_ROW_BYTES * (rows + N) + mask + 1 + _JOIN_BLOCK_BYTES * _JOIN_BLOCK,
                f"the moment-curve join over [1,{N}]")
    phi = sum(prefix[k - 1] * np.arange(1, N + 1, dtype=np.int64) ** k for k in range(1, n + 1))
    (head,) = _sorted_folds([(phi, 1)], n - 1)  # a fresh array, owned here
    head += phi[0]
    head.sort()
    if not _run_starts(head).all():
        raise RuntimeError("two sorted tuples starting with 1 share a power-sum key: "
                           "Girard-Newton fails")
    mark = np.zeros(mask + 1, bool)
    mark[head & mask] = True
    skip = rows  # the stream hands out the head rows first
    for (keys,) in _sorted_fold_blocks([(phi, 1)], n, _JOIN_BLOCK):
        keys, skip = keys[skip:], max(skip - keys.size, 0)
        marked = keys[mark[keys & mask]]
        at = np.minimum(np.searchsorted(head, marked), rows - 1)
        if (head[at] == marked).any():
            raise RuntimeError("a sorted tuple shares a power-sum key with one starting with 1: "
                               "Girard-Newton fails")
    return permutation_count(n, N)


def _brute_force_count(curve: Curve, n: int, N: int, budget: int) -> int:
    check_budget(N ** (2 * n), budget, f"brute force over [1,{N}]^{2 * n}")
    vectors = [tuple(sum(curve.evaluate(x)[k] for x in t) for k in range(n))
               for t in product(range(1, N + 1), repeat=n)]
    return sum(1 for a in vectors for b in vectors if a == b)


def count_solutions(curve: Curve, n: int, N: int,
                    method: CountMethod | None = None,
                    budget: int = DEFAULT_COUNT_BUDGET) -> CountResult:
    """Count J(N) exactly.  Non-moment curves go through BRUTE_FORCE only."""
    if N < 1:
        raise ValueError("N >= 1")
    if curve.n != n:
        raise ValueError("curve dimension does not match n")
    if method is None:
        method = CountMethod.HASH_JOIN if curve.is_moment else CountMethod.BRUTE_FORCE
    if method is not CountMethod.BRUTE_FORCE and not curve.is_moment:
        raise ValueError(f"{method.value} counts the moment curve only")
    start = time.perf_counter()
    if method is CountMethod.HASH_JOIN:
        count = _moment_join(n, N, budget)
    elif method is CountMethod.BRUTE_FORCE:
        count = _brute_force_count(curve, n, N, budget)
    else:
        count = permutation_count(n, N)
    return CountResult(n=n, N=N, count=count, method=method,
                       elapsed=time.perf_counter() - start)


@dataclass(frozen=True)
class AsymptoticRow:
    N: int
    count: int
    leading: int          # n! * N^n
    residual: int         # n! * N^n - J(N), nonnegative for the moment curve
    residual_ratio: Fraction  # residual / N^(n-1)
    method: CountMethod


def asymptotic_report(n: int, N_list, budget: int = DEFAULT_COUNT_BUDGET) -> list[AsymptoticRow]:
    """Tabulate J(N) against its leading term n! N^n over a list of N.

    Every J(N) is `permutation_count`; the join runs once, at the largest N
    it admits, to check that.  The power-sum vectors over [1, N] are among
    those over any larger range, and every N packs them without carries,
    so keys checked distinct there are distinct at every smaller N: those
    rows are labelled `HASH_JOIN`.  The join's guards grow with N, so the
    N they refuse are those above it, labelled `PERMUTATION_FORMULA`.
    """
    N_list = list(N_list)
    if any(N < 1 for N in N_list):
        raise ValueError("N >= 1")
    curve = Curve.moment(n)
    joined = 0  # the largest N the join admits
    for N in sorted(set(N_list), reverse=True):
        try:
            count_solutions(curve, n, N, CountMethod.HASH_JOIN, budget=budget)
        except BudgetExceededError:
            continue
        joined = N
        break
    rows = []
    for N in N_list:
        count = permutation_count(n, N)
        leading = math.factorial(n) * N ** n
        residual = leading - count
        rows.append(AsymptoticRow(
            N=N, count=count, leading=leading, residual=residual,
            residual_ratio=Fraction(residual, N ** (n - 1)),
            method=CountMethod.HASH_JOIN if N <= joined else CountMethod.PERMUTATION_FORMULA,
        ))
    return rows
