"""Exact counting of integer solutions of the translation-dilation system.

J(N) counts the tuples (s_1, t_1, ..., s_n, t_n) in (Z intersect [1, N])^2n
with sum_i gamma(t_i) = sum_i gamma(s_i).  For the moment curve this is
sum_v m(v)^2 over the level sets m(v) = #{t : sum_i gamma(t_i) = v}.  The
power-sum vector is symmetric, so if no two of the C(N+n-1, n)
nondecreasing tuples share a key v, m(v) is a tuple's orbit size
n!/prod(mult!), and J(N) = sum orbit^2 counts the pairs of reorderings:
`permutation_count`.  The first n power sums fix a multiset
(Girard-Newton), so no two do; the join only checks that, on the tuples
with t_1 = 1 alone (`_moment_join`, docs/quadrature.md).  A report over
many N joins once, at the largest N the guards admit: vectors distinct
over [1, N] stay distinct over any smaller range.  `budget.COUNT_BUDGET`
counts the sorted tuples, `budget.MEMORY_BUDGET` the bytes, and keys past
64 bits are refused; both limits are read when the guard runs.  The
brute-force path compares all pairs of tuples and is the oracle the fast
paths are checked against.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import product

import numpy as np

from .budget import BudgetExceededError, check_budget, check_bytes, check_sorted_tuples
from .curves import Curve
from .kernel import _repeated_column, _sorted_folds


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


_JOIN_ROW_BYTES = 16  # per head row and tuple entry: 2n + 1 int64 arrays of head rows
# are live at the peak, 48-91 traced bytes a row at n = 2..5
_JOIN_CALL_BYTES = 2 ** 15  # a call's small arrays and objects: at most 22 KB traced
# above the row charge over the admitted (n, N), at (8, 2)


def _centred_sums(sums, n: int) -> np.ndarray:
    """Rows c_k = sum_i (n t_i - p_1)^k, k = 2..n, from the power sums
    sums = [p_1, ..., p_n] of n-tuples t: by the binomial theorem, with
    p_0 = n, c_k = sum_j C(k, j) n^j p_j (-p_1)^(k-j), taken by Horner's
    rule in -p_1.  int64 arithmetic wraps mod 2^64, so each c_k is exact
    wherever its value, at most n ((n-1)(N-1))^k in size over [1, N], fits."""
    lead = -sums[0]
    centred = np.empty((n - 1, lead.size), np.int64)
    for k, c in enumerate(centred, 2):
        c[:] = n
        for j in range(1, k + 1):
            c *= lead
            c += math.comb(k, j) * n ** j * sums[j - 1]
    return centred


def _moment_join(n: int, N: int) -> int:
    """J(N) for the moment curve: `permutation_count`, once no two sorted
    n-tuples over [1, N] share a key (Girard-Newton, checked, not assumed).

    By translation (docs/quadrature.md) a sorted tuple t and its head
    t - (t_1 - 1), which starts with 1, have the same centred sums
    c_k = sum_i (n t_i - p_1)^k, k = 2..n, and two tuples with one key
    have distinct heads.  So the keys are distinct if the c of the
    C(N+n-2, n-1) heads (1, s) are: they come from the power sums of the
    sorted (n-1)-tuples s plus the head's 1, and `_repeated_column` looks
    for a repeated c with one sort of 64-bit fingerprints, exact on any
    fingerprint that repeats.  The guard refuses the (n, N) whose keys,
    packed with digits R_k = n N^k + 1, reach 2^62, which keeps every c_k
    exact.
    """
    check_sorted_tuples(N, n, math.prod(n * N ** k + 1 for k in range(1, n + 1)), f"[1,{N}]",
                        count=True)
    check_bytes(_JOIN_ROW_BYTES * (n + 1) * math.comb(N + n - 2, n - 1) + 8 * N
                + _JOIN_CALL_BYTES,
                f"the moment-curve join over [1,{N}]")
    t = np.arange(1, N + 1, dtype=np.int64)
    sums = _sorted_folds([(t ** k, 1) for k in range(1, n + 1)], n - 1)
    for p in sums:  # the head's 1, added to the fold's fresh arrays
        p += 1
    centred = _centred_sums(sums, n)
    del sums  # the check holds the centred sums and two fingerprint arrays
    if _repeated_column(centred):
        raise RuntimeError("two sorted tuples starting with 1 share their centred power sums: "
                           "Girard-Newton fails")
    return permutation_count(n, N)


def _brute_force_count(curve: Curve, n: int, N: int) -> int:
    check_budget(N ** (2 * n), f"brute force over [1,{N}]^{2 * n}", count=True)
    vectors = [tuple(sum(curve.evaluate(x)[k] for x in t) for k in range(n))
               for t in product(range(1, N + 1), repeat=n)]
    return sum(1 for a in vectors for b in vectors if a == b)


def count_solutions(curve: Curve, n: int, N: int,
                    method: CountMethod | None = None) -> CountResult:
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
        count = _moment_join(n, N)
    elif method is CountMethod.BRUTE_FORCE:
        count = _brute_force_count(curve, n, N)
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


def asymptotic_report(n: int, N_list) -> list[AsymptoticRow]:
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
            count_solutions(curve, n, N, CountMethod.HASH_JOIN)
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
