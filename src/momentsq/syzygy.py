"""Exact enumeration of the near-coincidence sets S(delta, I; eps).

For a base tuple I of partition cells, S(delta, I; eps) collects the cell
tuples J admitting points s in I, t in J with

    | sum_i ( gamma(t_i) - gamma(s_i) ) | <= eps,

for the moment curve gamma.  Over Q_p with eps = delta^n this condition is
a congruence: |x|_p <= p^{-ns} iff x = 0 mod p^{ns}, and t^k mod p^{ns}
depends only on t mod p^{ns}, so representatives at precision m = n*s
decide membership exactly.  Over R the decision is sampled on a rational
grid, which gives a sound lower approximation (every reported member has
an exact rational witness).

Power sums and cell multisets are symmetric, so the p-adic engine keys
nondecreasing residue n-tuples mod q = p^{ns}, once per (p, n, s), and
keeps the pairs of distinct cell multisets that share a power-sum key
(`_pair_relation`).  A shift by c keeps keys equal or unequal and moves
p_1 by n * c, so only the tuples with p_1 = r mod q, r < gcd(n, q), are
keyed, about q^(n-1)/n! of them, built from the sorted (n-1)-tuples; each
pair found is then shifted by every cell.  S(I) is every ordering of the
multiset of I and of its partners, so |S(I)| is a sum of orbit sizes.

Sorted tuples come from the kernel in `momentsq.kernel`, which folds
values over them (`_sorted_folds`) and gives each row's orbit size from
its columns (`_orbit_sizes`, the one orbit rule).  The sorted tuples and
their power sums (`_key_rows`), grouped by (key, residue multiset mod p^e)
in one sort for an integrand of period p^e (`_parseval_groups`; each key
holds one cell multiset), carry the Parseval sums of the Q_p norms
(`_parseval_sums`), which are not translation-invariant.  For p > n they
factor over the residue classes mod p: by Hensel's lemma a key group is
the product of its parts in each class, and class r's parts are those of
class 0 moved by r, so one cached index of the sorted j-tuples of the
class-0 residues, j = 2..n, serves every class, and a polynomial product
over the classes gives the sums.  For p <= n every sorted n-tuple is
grouped, as one class.  A report holds its members as index tuples, and
`_orderings` is the one place it expands the orderings of multisets.
The real sampler runs its sorted grid n-tuples against every point tuple
of the base cells, re-checks one witness per cell multiset hit exactly,
and reports each ordering of those multisets.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .budget import BudgetExceededError, check_budget, check_bytes, check_key_bound
from .curves import Curve
from .kernel import _orbit_sizes, _ranges, _run_starts, _sorted_folds, _sorted_unique
from .local_field import CellTuple, FieldKind, FieldSpec, cell_tuple
from . import bounds


class SyzygyMethod(Enum):
    CONGRUENCE_EXACT = "congruence_exact"
    PERMUTATION_ORACLE = "permutation_oracle"
    REAL_SAMPLED = "real_sampled"


@dataclass(frozen=True)
class SyzygyReport:
    """S(delta, I; epsilon): members are the sorted index tuples of the J."""

    base: CellTuple
    epsilon: Fraction
    members: tuple[tuple, ...]
    method: SyzygyMethod

    def __post_init__(self):
        if self.base.indices not in self.members:
            raise ValueError("the base tuple must be a member (reflexivity)")

    @property
    def cardinality(self) -> int:
        return len(self.members)

    @property
    def member_indices(self) -> list[tuple]:
        return list(self.members)


def syzygy_bound(field: FieldSpec, n: int) -> int:
    """The proven cardinality bound C_{K,n} * n^n."""
    if n < 2:
        raise ValueError("n >= 2")
    return bounds.field_constant(field, n) * n ** n


def permutation_predicate(base: CellTuple, other: CellTuple) -> bool:
    """True iff the two tuples agree as multisets of cells."""
    if base.field != other.field or base.scale != other.scale or base.n != other.n:
        raise ValueError("tuples must share field, scale and length")
    return sorted(base.indices) == sorted(other.indices)


def _orderings(multisets) -> list[tuple]:
    """Every distinct ordering of each cell multiset, as index tuples, sorted."""
    return sorted({perm for m in multisets for perm in itertools.permutations(m)})


def permutation_orbit(base: CellTuple) -> list[CellTuple]:
    """All distinct reorderings of a tuple, sorted by index vector."""
    return [cell_tuple(base.field, base.scale, idx) for idx in _orderings([base.indices])]


def syzygy_set_oracle(base: CellTuple) -> SyzygyReport:
    """The permutation-oracle prediction for S(delta, I; delta^n): the
    distinct reorderings of the base tuple."""
    return SyzygyReport(
        base=base,
        epsilon=base.scale.delta ** base.n,
        members=tuple(_orderings([base.indices])),
        method=SyzygyMethod.PERMUTATION_ORACLE,
    )


# ---------------------------------------------------------------------------
# non-Archimedean engine
# ---------------------------------------------------------------------------

def _require_padic(base: CellTuple):
    if base.field.kind is not FieldKind.PADIC:
        raise ValueError("exact enumeration runs over Q_p")


def _power_tables(p: int, n: int, s: int):
    q = p ** (n * s)
    r = np.arange(q, dtype=np.int64)
    tables = []
    acc = np.ones(q, dtype=np.int64)
    for _ in range(n):
        acc = (acc * r) % q
        tables.append(acc.copy())
    return q, tables


def _residue_folds(p: int, n: int, s: int, e: int, stride: int = 1):
    """(q, tables, residue, folds) for the residues mod q = p^{ns} that are
    multiples of stride (1 or p), numbered cell by cell, in a cell by the
    residue mod p^e (s <= e <= ns) and then upward: position x holds
    residue[x], so the cells of a sorted position tuple are nondecreasing
    and its residues mod p^e come in one fixed order, with no sort.  At
    e = ns the residues of a cell are in increasing order.  folds are the
    `_sorted_folds` pairs, by position, of each power table."""
    q, tables = _power_tables(p, n, s)
    ncells, span = p ** s // stride, p ** e // stride
    # residue stride * (hi * span + mid * ncells + cell) sits at (cell, mid, hi)
    residue = np.arange(0, q, stride).reshape(-1, span // ncells, ncells).transpose(2, 1, 0).ravel()
    narrow = np.int32 if n * q < 2 ** 31 else np.int64  # power sums stay below n * q
    return q, tables, residue, [(t[residue].astype(narrow), 1) for t in tables]


def _key_rows(p: int, n: int, s: int, e: int, j: int, stride: int):
    """(sums, tuples) over the sorted position j-tuples of the residues
    mod q = p^{ns} that are multiples of stride, numbered for precision
    p^e (see `_residue_folds`), all folded by one `_sorted_folds` call:
    sums[k - 1] holds each row's p_k mod q divided by stride^k, k = 1..j
    (exact: p_k of multiples of stride is a multiple of stride^k; for j < p
    they fix the rest, by Girard-Newton), and tuples its residues / stride
    packed base q / stride, lowest position first.
    """
    q, _, residue, folds = _residue_folds(p, n, s, e, stride)
    *sums, tuples = _sorted_folds(folds[:j] + [(residue // stride, residue.size)], j)
    for k, a in enumerate(sums, 1):
        np.remainder(a, q, out=a)
        a //= stride ** k
    return sums, tuples


def _translate_codes(p: int, n: int, s: int) -> np.ndarray:
    """Codes key * q + multiset over the sorted residue n-tuples mod q =
    p^{ns} whose p_1 is r mod q for some r < g = gcd(n, q): one translate of
    every key class (see `_pair_relation`).  key packs (r, p_2, ..., p_n),
    so codes stay below g * q^n, and multiset the cells in nondecreasing
    order (digit i the i-th smallest, base p^s).

    The sorted (n-1)-tuples are folded by `_sorted_folds` (power sums, cells
    and the first position); the new entry is (r - p_1) mod q, and a row is
    kept iff that entry's position is at most the first, so each n-tuple
    comes once and its cell opens the multiset, with no sort.
    """
    q, tables, residue, folds = _residue_folds(p, n, s, n * s)
    ncells, g = p ** s, math.gcd(n, q)
    cell = np.repeat(np.arange(ncells, dtype=folds[0][0].dtype), q // ncells)  # by position
    position = np.argsort(residue)  # where each residue sits
    *sums, multiset, first = _sorted_folds(  # first: the first entry's position
        folds + [(cell, ncells), (np.arange(q, dtype=cell.dtype), 0)], n - 1)
    codes = []
    for r in range(g):
        last = np.remainder(r - sums[0], q)  # the new entry's residue
        at = position[last]
        keep = np.flatnonzero(at <= first)
        last, at = last[keep], at[keep]
        digits = [(k[keep] + t[last]) % q for k, t in zip(sums[1:], tables[1:])]
        codes.append(np.ravel_multi_index((cell[at], multiset[keep], r, *digits),
                                          (ncells, ncells ** (n - 1), g) + (q,) * len(digits),
                                          order="F"))
    return np.concatenate(codes)


def _shared_pairs(codes: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Sorted distinct a * q + b over the ordered pairs of distinct multisets
    a, b that share a key, for codes raveled from (key, multiset) over
    shape = (keys, q)."""
    q = shape[1]
    key, multiset = np.unravel_index(_sorted_unique(codes), shape)  # distinct pairs
    start = _run_starts(key)
    if start.all():  # every key holds one multiset
        return codes[:0]
    start = np.flatnonzero(start)
    size = np.diff(np.append(start, key.size))
    start, size = start[size > 1], size[size > 1]
    # every ordered pair (a, b) of multisets in one shared group
    lengths = np.repeat(size, size)
    a = np.repeat(multiset[_ranges(start, size)], lengths)
    b = multiset[_ranges(np.repeat(start, size), lengths)]
    return _sorted_unique(np.ravel_multi_index((a, b), (q, q))[a != b])


def _shift_pairs(pairs: np.ndarray, ncells: int, n: int) -> np.ndarray:
    """Sorted distinct a * q + b (q = ncells^n) over every pair of multisets
    in `pairs` with all its cells shifted by the same c mod ncells."""
    q, cells = ncells ** n, (ncells,) * n
    digits = [np.array(np.unravel_index(m, cells, order="F"))  # (n, pairs) each
              for m in np.unravel_index(pairs, (q, q))]
    out = []
    for c in range(ncells):
        a, b = (np.ravel_multi_index(np.sort((d + c) % ncells, axis=0), cells, order="F")
                for d in digits)
        out.append(np.ravel_multi_index((a, b), (q, q)))
    return _sorted_unique(np.concatenate(out))


@functools.lru_cache(maxsize=4)
def _pair_relation(p: int, n: int, s: int) -> np.ndarray:
    """(a, b), sorted: the ordered pairs of distinct cell multisets (coded as
    in `_translate_codes`) whose point tuples share a power-sum key mod q = p^{ns}.
    Empty at every p: power sums mod p^{ns} fix the cell multiset (the
    theorem in docs/quadrature.md), so the scan finds none to report.

    Built from one translate per class.  p_k(t + c) = sum_j C(k, j)
    c^(k-j) p_j(t) with p_0 = n, so a shift by c keeps two keys equal or
    unequal, moves p_1 by n * c and every cell by c mod p^s.  So each pair
    that shares a key has a translate with p_1 = r mod q, r < gcd(n, q):
    the pairs among `_translate_codes`, shifted by every c, are all of them.
    """
    ncells, q = p ** s, p ** (n * s)
    pairs = _shared_pairs(_translate_codes(p, n, s), (math.gcd(n, q) * q ** (n - 1), q))
    if pairs.size:
        pairs = _shift_pairs(pairs, ncells, n)
    out = np.array(np.unravel_index(pairs, (q, q)))  # rows a and b, each contiguous
    out.setflags(write=False)  # shared by every caller through the cache
    return out


def _levels(p: int, n: int, s: int):
    """(classes, sizes): the residue classes mod p the Parseval sums factor
    over and the tuple sizes j of the cached levels.  p classes and
    j = 2..n for p > n, where 1, ..., n are units mod p, and s >= 1, where
    q >= p and a cell fixes its class (see `_parseval_sums`); else one
    class, every residue mod q, and j = n."""
    if p > n and s >= 1:
        return p, range(2, n + 1)
    return 1, (n,)


class _Level(NamedTuple):
    """One cached level of `_parseval_groups(p, n, s, e)`: for h of period
    p^e, one row per distinct (key, residue multiset mod p^e) among the
    sorted tuples of `_key_rows(p, n, s, e, j, classes)`, by key, in a key
    by multiset, each adding weight * prod h(cols) to its key's sum B(k).  weight counts the
    ordered tuples mod p^{ns} of that key that reduce to the row's multiset
    (at e = ns a row is one sorted tuple and weight its orbit size).  A key
    holds one cell multiset C, so B(k) = B(k, C) (checked at build,
    docs/quadrature.md).  A call keeps these sums of every class in one flat
    array, class r's after class r - 1's."""
    weight: np.ndarray      # a row's count of ordered tuples mod p^{ns}
    fine: np.ndarray        # a row's sum
    cols: np.ndarray        # (j, rows): a row's y mod p^e / classes; class r reads h(classes * y + r)
    cell_orbit: np.ndarray  # a sum's cell-multiset orbit size, float
    at: np.ndarray          # (classes, 1): where class r's sums start


def _digits(codes: np.ndarray, base: int, j: int) -> np.ndarray:
    """(j, rows): codes' j lowest digits base `base`, each row contiguous
    (gathers through np.unravel_index's strided views fault about 2,400
    times per warm call); codes keeps what is above them."""
    cols = np.empty((j, codes.size), np.int64)
    for c in cols:
        np.remainder(codes, base, out=c)
        codes //= base
    return cols


def _parseval_level(p: int, n: int, s: int, e: int, j: int, classes: int) -> _Level:
    sums, tuples = _key_rows(p, n, s, e, j, classes)
    q, ncells, span = p ** (n * s), p ** s // classes, p ** e // classes
    cols = _digits(tuples, q // classes, j)  # a row's residues / classes
    del tuples
    # a row's equal residues sit at equal, so adjacent, positions
    orbit = _orbit_sizes(cols).astype(np.min_scalar_type(math.factorial(j)))
    # h reads residues mod p^e, in one order along the positions: one code a row
    # packs (multiset mod p^e, p_1/c, ..., p_j/c^j) below `_key_row_charges`' bound,
    # so its runs merge, each key's in multiset order whatever the sort does with ties
    np.remainder(cols, span, out=cols)
    codes = np.ravel_multi_index((*cols, *sums), (span,) * j + tuple(
        q // classes ** k for k in range(1, len(sums) + 1)), order="F")
    del cols, sums
    order = np.argsort(codes)
    codes, orbit = codes[order], orbit[order]
    del order
    start = np.flatnonzero(_run_starts(codes))
    weight = np.add.reduceat(orbit, start, dtype=np.int64)  # a merged row's orbit sizes
    weight = weight.astype(np.min_scalar_type(weight.max()))
    codes = codes[start]
    del orbit, start
    cols = _digits(codes, span, j)  # codes become the keys
    new = _run_starts(codes)  # a row that opens a key
    del codes
    for c in cols:  # never, at any p: the theorem in docs/quadrature.md
        if (_run_starts(c % ncells) > new).any():
            raise RuntimeError(f"a power-sum key mod {q} holds two cell multisets of {j}-tuples")
    # a key's cells, nondecreasing; float: dividing by it then casts nothing
    cell_orbit = _orbit_sizes(cols[:, new] % ncells).astype(float)
    level = _Level(weight, np.cumsum(new) - 1, cols, cell_orbit,
                   np.arange(0, classes * cell_orbit.size, cell_orbit.size)[:, None])
    for a in level:
        a.setflags(write=False)  # shared by every caller through the cache
    return level


@functools.lru_cache(maxsize=4)
def _parseval_groups(p: int, n: int, s: int, e: int):
    """(levels, steps) the Q_p norms sum over for h of period p^e, s <= e
    <= ns.  levels are `_Level`s: with p classes (`_levels`), one per j =
    2..n over the sorted j-tuples of the class-0 residues p * y, which class
    r reuses moved by r; with one, the sorted n-tuples of every residue mod
    q = p^{ns}.  steps (k, j, C(k, j)^2 t, C(k, j) t) multiply in one
    class's series (see `_parseval_sums`), highest power first; t is 1, and
    p^{ns-e} for j = 1, the residues mod q each residue mod p^e of U_r
    stands for."""
    classes, sizes = _levels(p, n, s)
    powers = {1, *sizes} if classes > 1 else set(sizes)  # the x^j a class's series has
    steps = []
    for k in range(n, 0, -1):
        for j in range(1, k + 1):
            if j in powers:
                t = p ** (n * s - e) if j == 1 else 1
                steps.append((k, j, math.comb(k, j) ** 2 * t, math.comb(k, j) * t))
    return tuple(_parseval_level(p, n, s, e, j, classes) for j in sizes), tuple(steps)


# peak bytes of `_parseval_groups`, traced by tracemalloc: a level of j-tuples holds up to
# 12j + 17 bytes a row as it takes the orbit sizes, at every e (41.0 at (7,2,2), (3,2,3) and
# (2,2,5), 53.1 at (2,3,2), 65.0 at (3,4,1), 77.0 at (2,5,1)), the power tables n + 3 int64 a
# residue mod q.  Charged 16j + _GROUP_BYTES a row and (n + 3) _RESIDUE_BYTES a residue.
_GROUP_BYTES, _RESIDUE_BYTES = 24, 8


@functools.lru_cache(maxsize=16)
def _key_row_charges(p: int, n: int, s: int, e: int):
    """What `_check_key_rows` compares with the limits, each with its label:
    the sorted n-tuples the build folds, over the class-0 residues where the
    sums factor; the bound of the code `_parseval_level` packs, (p^e / c)^n
    prod_{k=1..n} q / c^k with c = classes; the values a call sums, classes
    times the rows every level folds, which bound its merged rows (equal at
    e = ns); and the bytes the build holds."""
    q = p ** (n * s)
    classes, sizes = _levels(p, n, s)
    m = q // classes
    ring = f"Z/{q}" if classes == 1 else f"the multiples of {p} in Z/{q}"
    rows = {j: math.comb(m + j - 1, j) for j in sizes}
    tuples = math.comb(m + n - 1, n)
    return ((tuples, f"enumeration of the sorted {n}-tuples over {ring}"),
            (p ** e // classes) ** n * math.prod(q // classes ** k for k in range(1, n + 1)),
            (classes * sum(rows.values()), f"the Parseval sums over Z/{q}"),
            (sum(r * (16 * j + _GROUP_BYTES) for j, r in rows.items()) + q * (n + 3) * _RESIDUE_BYTES,
             f"grouping the sorted {n}-tuples over Z/{q}"))


def _check_key_rows(p: int, n: int, s: int, e: int):
    """The guards of `_parseval_groups` and `_parseval_sums`: the totals of
    `_key_row_charges`, cached, against the limits as they are now."""
    folded, key_bound, summed, nbytes = _key_row_charges(p, n, s, e)
    check_budget(*folded)
    check_key_bound(key_bound)
    check_budget(*summed)
    check_bytes(*nbytes)


_PARSEVAL_BLOCK = 4096  # values a block of `_parseval_sums`: its temporaries stay small


# peak bytes of `_pair_relation`: per folded row n + 2 int32 columns and 20 more,
# per code (about gcd(n, q)/n of the rows) 16, per residue 64.  Traced per row:
# 38.7 at (13,3,1), 49.6 at (3,3,2), 53.2 at (2,4,2), 46.0 at (2,5,1); 87-97 at n = 2
_PAIR_ROW_BYTES, _PAIR_CODE_BYTES, _PAIR_TABLE_BYTES = 20, 16, 64


def _check_pair_rows(p: int, n: int, s: int):
    """The guards of `_pair_relation`: C(q+n-2, n-1) folded rows, codes
    below gcd(n, q) * q^n, and the bytes it holds while it builds."""
    q = p ** (n * s)
    rows = math.comb(q + n - 2, n - 1)
    check_budget(rows, f"enumeration of the sorted {n - 1}-tuples over Z/{q}")
    check_key_bound(math.gcd(n, q) * q ** n)
    check_bytes(rows * (4 * (n + 2) + _PAIR_ROW_BYTES) + q * _PAIR_TABLE_BYTES
                + rows * math.gcd(n, q) // n * _PAIR_CODE_BYTES, f"the pair relation over Z/{q}")


def _level_sums(values: np.ndarray, level: _Level):
    """(Z, Y), one entry per row r of values: the key sum and the cell sum of
    one `_Level` with h(y) = values[r, y].  Its rows go in blocks of at most
    _PARSEVAL_BLOCK values, so every temporary stays small, and np.add.at
    adds them in row order."""
    classes = values.shape[0]
    b_fine = np.zeros((classes, level.cell_orbit.size), complex)
    block = max(1, _PARSEVAL_BLOCK // classes)
    for lo in range(0, level.weight.size, block):
        hi = lo + block
        w = values.take(level.cols[0, lo:hi], axis=1)
        w *= level.weight[lo:hi]
        for c in level.cols[1:]:
            w *= values.take(c[lo:hi], axis=1)
        # np.add.at adds in row order; reduceat over the run starts is slower and
        # moves the last bits (docs/quadrature.md)
        np.add.at(b_fine.reshape(-1), (level.fine[lo:hi] + level.at).reshape(-1), w.reshape(-1))
    # |B|^2, then |B|^2 / orbit(C), each reduced along its contiguous rows by
    # one np.add.reduce: np.sum's arithmetic without its dispatch, which small calls feel
    square = np.empty((2, *b_fine.shape))
    np.abs(b_fine, out=square[0])
    square[0] *= square[0]
    np.divide(square[0], level.cell_orbit, out=square[1])
    return np.add.reduce(square, axis=2).tolist()


def _precision(size: int, p: int, n: int, s: int) -> int:
    """e with p^e = size, s <= e <= ns: the period of the h a call sums."""
    e = s
    while p ** e < size:
        e += 1
    if p ** e != size or e > n * s:
        raise ValueError(f"h needs p^e values, {s} <= e <= {n * s}, not {size}")
    return e


def _parseval_sums(h: np.ndarray, p: int, n: int, s: int):
    """(sum_k |B(k)|^2, sum_{(k,C)} |B(k,C)|^2 / orbit(C)), where B(k, C) sums
    orbit(M) prod_i h(M_i mod p^e) over the sorted n-tuples M of residues
    mod p^{ns} with power-sum key k and cell multiset C, and B(k) sums
    B(k, C) over C: one C, as `_parseval_groups` checks.  h holds the p^e
    values of one period, s <= e <= ns, so B(k) is a sum over the rows of
    the level of (p, n, s, e), one per residue multiset mod p^e.

    With p classes (`_levels`), a key group is the product of its
    parts in each residue class mod p, and each part is a class-0 group
    moved by r (Girard-Newton and Hensel's lemma, docs/quadrature.md).
    With Z_r(j), Y_r(j) the two sums over the class-r j-tuples and
    Z_r(1) = Y_r(1) = U_r = p^{ns-e} sum_{a = r mod p} |h(a)|^2 (a mod p^e;
    the steps carry p^{ns-e}), the key sum is (n!)^2 [x^n] prod_r (1 +
    sum_j Z_r(j) x^j / (j!)^2) and the cell sum n! [x^n] prod_r (1 + sum_j
    Y_r(j) x^j / j!).  Else there is one class, whose one level, j = n,
    gives both sums.
    """
    e = _precision(h.size, p, n, s)
    _check_key_rows(p, n, s, e)
    classes = _levels(p, n, s)[0]
    levels, steps = _parseval_groups(p, n, s, e)
    values = np.ascontiguousarray(h.reshape(-1, classes).T)  # values[r, y] = h(classes * y + r)
    terms = {level.cols.shape[0]: _level_sums(values, level) for level in levels}
    if classes > 1:
        terms[1] = (np.add.reduce(np.abs(values) ** 2, axis=1).tolist(),) * 2
    # key[k], cell[k]: the coefficients of x^k over the classes so far, times
    # (k!)^2 and k!; every term is positive, so nothing cancels
    steps = [(k, j, *terms[j], cc, c) for k, j, cc, c in steps]
    key, cell = [1.0] + [0.0] * n, [1.0] + [0.0] * n
    for r in range(classes):
        for k, j, z, y, cc, c in steps:
            key[k] += key[k - j] * z[r] * cc
            cell[k] += cell[k - j] * y[r] * c
    return key[n], cell[n]


def clear_index_cache():
    _pair_relation.cache_clear()
    _parseval_groups.cache_clear()
    _key_row_charges.cache_clear()


def _tuple_keys(indices, p: int, n: int, s: int) -> np.ndarray:
    """Sorted distinct packed power-sum vectors of all point tuples in a cell
    tuple, at precision n*s, from their own powers mod q, not `_power_tables`."""
    q = p ** (n * s)
    per_cell = p ** ((n - 1) * s)
    check_budget(per_cell ** n, "per-tuple representative enumeration")
    # traced peak bytes a tuple of `is_syzygy_nonarch`, both sides: 42.0 at (3,2,6), (5,2,4) and
    # (3,2,5), where the second side's sort and the intersection hold the most; 34.0 at (2,3,3),
    # 34.7 at (3,3,2), 40.4 at (3,4,1) and 48.0 at (2,5,1), where packing the n sums does
    check_bytes(per_cell ** n * (8 * n + 32), "the oracle's representative tuples")
    comps = None
    for idx in indices:
        cell_comps = [np.arange(idx, q, p ** s, dtype=np.int64)]
        for _ in range(n - 1):
            cell_comps.append(cell_comps[-1] * cell_comps[0] % q)
        if comps is None:
            comps = cell_comps
        else:
            comps = [np.add.outer(a, b).ravel() for a, b in zip(cell_comps, comps)]
    for c in comps:
        np.remainder(c, q, out=c)
    codes = np.ravel_multi_index(comps, (q,) * n, order="F")
    del comps  # the sums go before the sort copies the codes
    return _sorted_unique(codes)


def is_syzygy_nonarch(base: CellTuple, other: CellTuple) -> bool:
    """Exact membership test: do some s in I, t in J satisfy the congruence
    sum_i t_i^k = sum_i s_i^k mod p^{ns} for k = 1..n?

    Decided by meeting the two representative enumerations in the middle:
    the sorted distinct power-sum vectors of the two sides are intersected.
    It shares no enumeration with `syzygy_set_nonarch`, which tests check against it.
    """
    _require_padic(base)
    if base.field != other.field or base.scale != other.scale or base.n != other.n:
        raise ValueError("tuples must share field, scale and length")
    p, n, s = base.field.prime, base.n, base.scale.exponent
    kt = _tuple_keys(other.indices, p, n, s)
    ks = _tuple_keys(base.indices, p, n, s)
    return bool(np.intersect1d(kt, ks, assume_unique=True).size)


def syzygy_set_nonarch(base: CellTuple) -> SyzygyReport:
    """Enumerate S(delta, I; delta^n) exactly over Q_p.

    Members are every ordering of the cell multiset of I and of each
    multiset that shares a power-sum key mod p^{ns} with it, read off the
    cached pair relation; sorted by index vector.
    """
    _require_padic(base)
    p, n, s = base.field.prime, base.n, base.scale.exponent
    _check_pair_rows(p, n, s)
    a, b = _pair_relation(p, n, s)
    dims = (p ** s,) * n
    cells = sorted(base.indices)
    code = np.ravel_multi_index(cells, dims, order="F")
    lo, hi = np.searchsorted(a, [code, code + 1])
    multisets = [cells, *np.transpose(np.unravel_index(b[lo:hi], dims, order="F")).tolist()]
    return SyzygyReport(
        base=base,
        epsilon=base.scale.delta ** n,
        members=tuple(_orderings(multisets)),
        method=SyzygyMethod.CONGRUENCE_EXACT,
    )


@dataclass(frozen=True)
class StrongDiagonalScan:
    """Result of comparing S(delta, I; delta^n) with the permutation orbit
    for every base tuple I at one (p, n, s)."""

    p: int
    n: int
    s: int
    bases: int
    all_match_permutations: bool
    mismatches: tuple[tuple, ...]
    max_cardinality: int
    cardinalities: tuple[int, ...]  # indexed by encoded base tuple
    bound: int

    @property
    def within_bound(self) -> bool:
        return self.max_cardinality <= self.bound


def scan_strong_diagonal(p: int, n: int, s: int) -> StrongDiagonalScan:
    """Enumerate S(delta, I; delta^n) for every I in P_delta^n and compare
    with the permutation oracle: |S(I)| is the orbit size of I plus those
    of its partners in the cached pair relation."""
    field = FieldSpec(FieldKind.PADIC, p)  # checks p before anything is enumerated
    if s < 0:
        raise ValueError("s must be nonnegative")
    if n < 2:
        raise ValueError("n >= 2")
    _check_pair_rows(p, n, s)
    a, b = _pair_relation(p, n, s)
    dims = (p ** s,) * n
    q = math.prod(dims)
    cells = np.sort(np.unravel_index(np.arange(q), dims, order="F"), axis=0)
    orbit = _orbit_sizes(cells)  # a multiset's code is one of its bases
    multiset = np.ravel_multi_index(cells, dims, order="F")
    extra = np.bincount(a, weights=orbit[b], minlength=q).astype(np.int64)[multiset]
    cards = orbit + extra
    mismatches = tuple(map(tuple, np.transpose(
        np.unravel_index(np.flatnonzero(extra), dims, order="F")).tolist()))
    return StrongDiagonalScan(
        p=p, n=n, s=s,
        bases=q,
        all_match_permutations=not mismatches,
        mismatches=mismatches,
        max_cardinality=int(cards.max()),
        cardinalities=tuple(cards.tolist()),
        bound=syzygy_bound(field, n),
    )


# ---------------------------------------------------------------------------
# real sampler
# ---------------------------------------------------------------------------

_SAMPLER_BLOCK = 2 ** 20  # hit-matrix entries per block of sorted grid tuples


def syzygy_set_real(curve: Curve, base: CellTuple, epsilon: Fraction | None = None,
                    grid_step: Fraction | None = None) -> SyzygyReport:
    """Sampled lower approximation of S(delta, I; eps) over R.

    Pairs (s, t) range over a rational grid of pitch grid_step inside the
    cells; a tuple J is reported iff some pair satisfies the max-norm bound
    |sum_i (gamma(t_i) - gamma(s_i))| <= eps.  Every reported member is a
    true member: its witness pair is re-verified in exact rational
    arithmetic before the report is returned.
    """
    if base.field.kind is not FieldKind.REAL:
        raise ValueError("the sampler runs over R")
    if curve.n != base.n:
        raise ValueError("curve dimension does not match tuple length")
    n = base.n
    delta = base.scale.delta
    ncells = delta.denominator
    if epsilon is None:
        epsilon = delta ** n
    epsilon = Fraction(epsilon)
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    if grid_step is None:
        grid_step = delta / 8
    grid_step = Fraction(grid_step)
    if not 0 < grid_step <= delta / 8:
        raise ValueError("grid_step must be positive and at most delta/8")
    per_cell = delta / grid_step
    if per_cell.denominator != 1 or grid_step.numerator != 1:
        raise ValueError("grid_step must divide delta with 1/grid_step an integer")
    per_cell = int(per_cell)
    G = grid_step.denominator  # grid points are a/G
    npts = ncells * per_cell
    check_budget(math.comb(npts + n - 1, n) * per_cell ** n, "real grid enumeration")

    # Clear denominators: coordinate k compares integers
    #   V_k(a) = gamma_k(a/G) * G^{d_k} * L_k   against   eps * G^{d_k} * L_k.
    degs = curve.degrees()
    lcms = [math.lcm(*(c.denominator for c in coeffs)) for coeffs in curve.coords]
    pts = np.arange(npts, dtype=np.int64)  # the grid point is pts/G
    for coeffs, lc, d in zip(curve.coords, lcms, degs):
        peak = sum(abs(c) for c in coeffs) * lc * G ** d * n
        if peak >= 2 ** 62:
            raise BudgetExceededError("rescaled grid values would overflow 64-bit integers")
    values = []
    thresholds = []
    for coeffs, d, lc in zip(curve.coords, degs, lcms):
        v = np.zeros(npts, dtype=np.int64)
        for j, c in enumerate(coeffs):
            v += int(Fraction(c) * lc * G ** (d - j)) * pts ** j
        values.append(v)
        thresholds.append(int(epsilon * lc * G ** d))

    # The bound is symmetric in the t_i, so t runs over the sorted grid
    # tuples (their cells come out nondecreasing) and s over every ordered
    # point tuple of the base cells.  t's points are packed base npts, and
    # npts^n < 2^62: past it the C(npts+n-1, n) rows or the per_cell^n
    # point tuples of s could not be allocated.
    (t_pos,) = _sorted_folds([(pts, npts)], n)
    dims = (npts,) * n
    s_cols = (np.indices((per_cell,) * n).reshape(n, -1)
              + per_cell * np.array(base.indices)[:, None])
    s_sums = [v[s_cols].sum(axis=0) for v in values]
    rows, witness = [], []  # each hit row and the first point tuple of s it hits
    block = max(1, _SAMPLER_BLOCK // s_cols.shape[1])
    for lo in range(0, t_pos.size, block):
        t_block = np.array(np.unravel_index(t_pos[lo:lo + block], dims, order="F"))
        hits = np.ones((t_block.shape[1], s_cols.shape[1]), dtype=bool)
        for v, s_sum, thr in zip(values, s_sums, thresholds):
            diff = np.subtract.outer(v[t_block].sum(axis=0), s_sum)
            hits &= np.abs(diff, out=diff) <= thr
            del diff  # freed before the next coordinate allocates its own
        hit = np.flatnonzero(hits.any(axis=1))
        rows.append(lo + hit)
        witness.append(hits[hit].argmax(axis=1))
    rows, witness = np.concatenate(rows), np.concatenate(witness)
    t_hit = np.transpose(np.unravel_index(t_pos[rows], dims, order="F"))  # a hit row's points
    cells, first = np.unique(t_hit // per_cell, axis=0, return_index=True)
    for row, col in zip(t_hit[first].tolist(), witness[first].tolist()):
        # exact re-check of the witness every ordering of the multiset shares; its
        # points lie in their cells by construction: cell i holds the points
        # per_cell * i + offset over G = per_cell * ncells
        t_pt = [Fraction(a, G) for a in row]
        s_pt = [Fraction(int(a), G) for a in s_cols[:, col]]
        t_sum, s_sum = ([sum(c) for c in zip(*map(curve.evaluate, pt))] for pt in (t_pt, s_pt))
        if any(abs(a - b) > epsilon for a, b in zip(t_sum, s_sum)):
            raise RuntimeError("sampled witness failed the exact re-check")
    return SyzygyReport(
        base=base,
        epsilon=epsilon,
        members=tuple(_orderings(cells.tolist())),
        method=SyzygyMethod.REAL_SAMPLED,
    )

