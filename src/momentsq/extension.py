"""The extension operator, square function, and weighted-norm experiments.

E_I f(x) = integral over I of f(xi) e(gamma(xi) . x) d xi along the moment
curve, S_delta f(x) the l2 aggregate of |E_J f(x)| over the scale-delta
partition, and the L^{2n} norm ratio that the cardinality bounds control.

Over Q_p the computation is exact: the phases gamma(a) . x are integers
over p^m, taken in int64 for every residue a mod p^m at once, and the
integrands are constant on the Z_p^n cosets of the ball |x - c| <= p^{ns},
so the norm integral is a finite sum over coset representatives, and
Parseval turns that sum into sum_k |B(k)|^2 over power-sum groups of
sorted residue n-tuples mod p^{ns}.  Over R the xi-integrals use composite
Gauss-Legendre panels sized to the phase bandwidth, and the norm
quadrature is the midpoint rule on the weighted box.  On that grid
E_J f = sum over the f-cells j in J of f_j G_j, where G_j, the extension of
the indicator of cell j, does not depend on f: the G_j are cached once
per grid, and a norm call is a weighted sum of cached grids.  The L^{2n}
integrands hold frequencies up to n along each axis, so
the step is 1/4 for n <= 3 and 1/(n+1) from n = 4, where 1/4 would alias.
The atomic comb's ratio is a closed form: its L^{2n} norm counts
power-sum coincidences, which Girard-Newton makes permutations.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import syzygy
from .budget import DEFAULT_ENUMERATION_BUDGET, check_budget, check_bytes
from .local_field import Cell, FieldKind, FieldSpec, Scale, _check_scale, padic_valuation


@dataclass(frozen=True)
class LocallyConstant:
    """f constant on the cells of a fine partition.

    Over Q_p, precision m means p^m cells (values[a] on a + p^m O); over R,
    precision M means M equal cells of [0, 1).  C has no such partition
    here, so it is refused.
    """

    field: FieldSpec
    precision: int
    values: tuple[complex, ...]

    def __post_init__(self):
        if self.field.kind is FieldKind.COMPLEX:
            raise ValueError("locally constant test functions live over R and Q_p")
        expected = (self.field.prime ** self.precision
                    if self.field.kind is FieldKind.PADIC else self.precision)
        if len(self.values) != expected:
            raise ValueError(f"need {expected} cell values, got {len(self.values)}")

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)


@dataclass(frozen=True)
class AtomicComb:
    """N unit point masses at i/N, i = 1..N, over R.

    The extension of the atomic measure is the plain exponential sum; the
    atom at 1.0 belongs to the last partition cell by convention.  Its norm
    ratio is `comb_ratio`; pointwise `extension_op` is that formula's oracle.
    """

    field: FieldSpec
    atom_count: int

    def __post_init__(self):
        if self.field.kind is not FieldKind.REAL:
            raise ValueError("atomic combs are a real-field test function")
        if self.atom_count < 1:
            raise ValueError("need at least one atom")

    @property
    def atoms(self) -> list[Fraction]:
        return [Fraction(i, self.atom_count) for i in range(1, self.atom_count + 1)]


TestFunction = LocallyConstant | AtomicComb


def fejer_weight(u: np.ndarray | float) -> np.ndarray | float:
    """The real norms' weight factor w(u) = (pi/2)^2 sinc^2(u - 1/2), taken
    at u = (x_k - c_k) / delta^{-n} along each axis.  It is at least 1 on
    [0, 1], and its transform is supported in [-1, 1] and vanishes at the
    endpoints.  Over Q_p the weight is the indicator of the ball."""
    return (np.pi / 2) ** 2 * np.sinc(np.asarray(u, dtype=float) - 0.5) ** 2


@dataclass(frozen=True)
class NormRatio:
    lhs: float
    rhs: float

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs


# ---------------------------------------------------------------------------
# pointwise evaluation
# ---------------------------------------------------------------------------

def _cell_range(f: TestFunction, cell: Cell | None):
    """Normalize the integration range I: a partition cell or all of O."""
    if cell is None:
        return None
    if cell.field != f.field:
        raise ValueError("cell and test function live over different fields")
    return cell


def extension_op(f: TestFunction, cell: Cell | None, x) -> complex:
    """E_I f(x), with I a cell or (cell=None) the whole ring of integers.

    AtomicComb uses the measure convention: a sum of unit phases with no
    1/N factor.
    """
    cell = _cell_range(f, cell)
    if f.field.kind is FieldKind.PADIC:
        return _extension_padic(f, cell, x)
    return _extension_real(f, cell, x)


# peak bytes per residue of a Q_p point evaluation or norm at a nonzero point,
# traced by tracemalloc: 48.0 at 5^8, 7^6, 2^18 and 3^11 residues
_RESIDUE_BYTES = 56


def _phase_numerators(x, p: int, m: int) -> np.ndarray:
    """N(a) = sum_k a^k (x_k p^m) mod p^m for every residue a mod p^m: gamma(a) . x
    has p-adic fractional part N(a) / p^m.  The int64 products stay below
    2 p^2m, far below 2^63 while the byte check holds."""
    big = p ** m
    a, num = np.arange(big, dtype=np.int64), np.zeros(big, np.int64)
    for v in reversed(x):  # Horner: N = a (c_1 + a (c_2 + ...)), c_k = x_k p^m
        c = Fraction(v) * big
        if c.denominator != 1:
            raise ValueError(f"denominator of {v} is not a power of {p}")
        num = (num + c.numerator % big) * a % big
    return num


def _modulated_values(f: LocallyConstant, x, m_min: int, budget: int):
    """(m, g) with g[a] = f(a) e(gamma(a) . x) for every residue a mod p^m,
    where m >= m_min is the least precision that holds f and the p-powers
    in the denominators of x.  The p^m residues are checked against the
    step budget and, at _RESIDUE_BYTES each, the memory budget first."""
    p = f.field.prime
    m = max(f.precision, m_min, 1, *(-padic_valuation(v, p) for v in x if v))
    check_budget(p ** m, budget, f"evaluation at the residues mod {p}^{m}")
    check_bytes(p ** m * _RESIDUE_BYTES, f"evaluation at the residues mod {p}^{m}")
    g = np.tile(np.asarray(f.values, dtype=complex), p ** (m - f.precision))
    if any(x):
        g *= np.exp(2j * np.pi * (_phase_numerators(x, p, m) / p ** m))
    return m, g


def _extension_padic(f: LocallyConstant, cell: Cell | None, x) -> complex:
    s, index = (0, 0) if cell is None else (cell.scale.exponent, cell.index)
    m, g = _modulated_values(f, x, s, DEFAULT_ENUMERATION_BUDGET)
    return complex(g[index::f.field.prime ** s].sum()) / f.field.prime ** m


@functools.cache
def _gauss_legendre_16():
    """The 16-node Gauss-Legendre rule on [-1, 1]: (nodes, weights), read-only.
    The grid route and the pointwise oracle share it."""
    rule = np.polynomial.legendre.leggauss(16)
    for a in rule:
        a.setflags(write=False)
    return rule


def _real_xi_nodes(a: float, b: float, x):
    """Gauss-Legendre nodes/weights on [a, b], paneled to the phase bandwidth.

    The phase xi*x_1 + ... + xi^n*x_n has at most sum_k k*|x_k| cycles per
    unit; order-16 panels hold ~4 cycles each with headroom.
    """
    rate = sum(k * abs(float(v)) for k, v in enumerate(x, start=1)) + 1.0
    panels = max(1, math.ceil((b - a) * rate / 4.0))
    nodes, wts = _gauss_legendre_16()
    xi = np.concatenate([a + (i + (nodes + 1) / 2) * (b - a) / panels
                         for i in range(panels)])
    ww = np.tile(wts * (b - a) / (2 * panels), panels)
    return xi, ww


def _extension_real(f: TestFunction, cell: Cell | None, x) -> complex:
    xf = [float(v) for v in x]
    n = len(xf)
    if isinstance(f, AtomicComb):
        lo = Fraction(0) if cell is None else cell.index * cell.scale.delta
        hi = Fraction(1) if cell is None else lo + cell.scale.delta
        last = cell is not None and cell.index == int(1 / cell.scale.delta) - 1
        total = 0j
        for atom in f.atoms:
            inside = lo <= atom < hi or (atom == 1 and (cell is None or last))
            if inside:
                phase = sum(float(atom) ** k * xf[k - 1] for k in range(1, n + 1))
                total += cmath.exp(-2j * cmath.pi * phase)
        return total
    res = f.precision
    lo_cell, hi_cell = 0, res
    if cell is not None:
        frac = cell.scale.delta * res
        if frac.denominator != 1:
            raise ValueError("cell boundaries must align with the f resolution")
        per = int(frac)
        lo_cell, hi_cell = cell.index * per, (cell.index + 1) * per
    total = 0j
    for j in range(lo_cell, hi_cell):
        xi, ww = _real_xi_nodes(j / res, (j + 1) / res, xf)
        phase = np.zeros_like(xi)
        xp = np.ones_like(xi)
        for k in range(n):
            xp = xp * xi
            phase += xp * xf[k]
        total += f.values[j] * np.sum(ww * np.exp(-2j * np.pi * phase))
    return complex(total)


def square_function(f: TestFunction, scale: Scale, x) -> float:
    """S_delta f(x) = (sum over J in P_delta of |E_J f(x)|^2)^(1/2)."""
    if f.field.kind is FieldKind.PADIC:
        _check_scale(f.field, scale)
        m, g = _modulated_values(f, x, scale.exponent, DEFAULT_ENUMERATION_BUDGET)
        cells = g.reshape(-1, f.field.prime ** scale.exponent).sum(axis=0) / f.field.prime ** m
        return math.sqrt(np.sum(np.abs(cells) ** 2))
    return math.sqrt(sum(abs(extension_op(f, Cell(f.field, scale, j), x)) ** 2
                         for j in range(scale.delta.denominator)))


# ---------------------------------------------------------------------------
# Q_p norms: exact, by Parseval over power-sum groups
# ---------------------------------------------------------------------------

def _weighted_norms_padic(f: LocallyConstant, scale: Scale, center, n: int,
                          budget: int) -> NormRatio:
    """Parseval over the cosets c + j/q of the ball, j in (Z/q)^n:
    sum_j |E f|^{2n} = q^n p^{-2nm} sum_k |B(k)|^2, where B(k) sums
    prod_i g(a_i), g = f e(gamma . c), over the n-tuples a mod p^m with power
    sums k mod q; the square function splits each B(k) by cell tuple.  Key
    and cells depend on a mod q only, so g is first folded mod q, and
    `syzygy._parseval_sums` sums over the sorted tuples.
    """
    p, s = f.field.prime, scale.exponent
    q = p ** (n * s)
    m_eval, g = _modulated_values(f, center, n * s, budget)
    h = g.reshape(-1, q).sum(axis=0)  # g folded mod q
    # E f(c + j/q) = p^-m sum_r h(r) e(gamma(r) . j/q), r -> gamma(r) mod q one-to-one, so
    # E f vanishes on the ball iff h does.  The fold's rounding grew like sqrt(terms) eps of
    # their magnitudes (74 eps at 2^20 terms, at most 2^26 here): 2^12 eps of them is zero.
    if np.all(np.abs(h) <= 2 ** 12 * np.finfo(float).eps * np.abs(g).reshape(-1, q).sum(0)):
        raise ValueError("zero function: the ratio is undefined")
    key_sum, cell_sum = syzygy._parseval_sums(h, p, n, s, budget)
    c = q ** n / p ** (2 * n * m_eval)  # each coset: Haar measure 1, weight 1
    return NormRatio(float(c * key_sum) ** (1 / (2 * n)), float(c * cell_sum) ** (1 / (2 * n)))


# ---------------------------------------------------------------------------
# R norms: a weighted sum of cached per-cell grids
# ---------------------------------------------------------------------------

def _real_axes(axes):
    """The midpoints origin + (i + 1/2) step, i < count, of each axis (origin, step, count)."""
    return [lo + (np.arange(m) + 0.5) * h for lo, h, m in axes]


def _real_panels(res: int, grid) -> int:
    """GL-16 panels per f-cell: at most ~4 phase cycles each on the grid."""
    rate = sum((k + 1) * float(np.max(np.abs(g))) for k, g in enumerate(grid)) + 1.0
    return max(1, math.ceil(rate / (4.0 * res)))


# peak bytes of a real norm call besides the cached grids, traced by tracemalloc:
# per grid point 24 where each partition cell is one f-cell and 46 where not, plus
# numpy's ufunc buffers, at most 3 operands of np.getbufsize() complex entries
_REAL_POINT_BYTES = 48
_REAL_CALL_BYTES = 3 * 16 * np.getbufsize()


@functools.lru_cache(maxsize=1)
def _real_grids(count: int, delta: Fraction, axes: tuple):
    """(G, G2, W) on the grid of `axes`, for the count cells of f and the
    partition of scale delta.  G[j] is the extension of the indicator of
    f-cell j, G_j(x) = int over cell j of e(-gamma(t) . x) dt by GL-16
    panels, so E_J f = sum over the f-cells j in J of f_j G_j.  It is one
    matrix product over the cell's nodes t, F_0^T KhatriRao(w, F_1, ...,
    F_{n-1}), with F_k[t, x] = e(-t^(k+1) x_k) and w the GL weights.
    G2 = |G|^2 where every partition cell is one f-cell, else None, and W
    is the weight of the norms on the grid: the product over the axes of
    `fejer_weight((x_k - c_k) / delta^{-n})`, c_k the origin of axis k.

    One grid is kept, and a new grid drops it before being built, so the
    resident bytes are one charge of `_checked_real_grids`.  Every caller
    with the same grid shares these arrays: read-only."""
    _real_grids.cache_clear()
    grid = _real_axes(axes)
    panels = _real_panels(count, grid)
    nodes, wts = _gauss_legendre_16()
    width = 1.0 / count
    offsets = ((np.arange(panels)[:, None] + (nodes + 1) / 2) * width / panels).ravel()
    w = np.tile(wts * width / (2 * panels), panels)
    stack = np.empty((count, *(g.size for g in grid)), complex)
    for j, gj in enumerate(stack):
        tj = j / count + offsets
        f0, *rest = [np.exp(np.multiply.outer(-2j * np.pi * tj ** (k + 1), x))
                     for k, x in enumerate(grid)]
        kr = w[:, None]
        for fk in rest:
            kr = (kr[:, :, None] * fk[:, None]).reshape(tj.size, kr.shape[1] * fk.shape[1])
        np.matmul(f0.T, kr, out=gj.reshape(f0.shape[1], -1))
    power = None
    if count == delta.denominator:
        power = np.abs(stack)
        power *= power
    radius = float(Fraction(1) / delta ** len(axes))
    weight = functools.reduce(np.multiply.outer, [fejer_weight((x - lo) / radius)
                                                  for x, (lo, _, _) in zip(grid, axes)])
    for a in (stack, power, weight):
        if a is not None:
            a.setflags(write=False)
    return stack, power, weight


def _checked_real_grids(f: LocallyConstant, scale: Scale, axes: tuple, budget: int):
    """`_real_grids` for f on the grid of `axes`.  Before any is built, the
    step budget counts the grid points and the phase-factor and Khatri-Rao
    entries of every f-cell, and the memory budget the cached grids, one
    f-cell's build and a call's grids."""
    per = f.precision * scale.delta
    if per.denominator != 1:
        raise ValueError("f resolution must refine the partition")
    shape = tuple(m for _, _, m in axes)
    points = math.prod(shape)
    check_budget(points, budget, "real norm grid")
    cell_nodes = 16 * _real_panels(f.precision, _real_axes(axes))
    check_budget(f.precision * cell_nodes * (sum(shape) + math.prod(shape[1:])), budget,
                 "real factor matrices")
    cached = points * (f.precision * (24 if per == 1 else 16) + 8)  # G, G2 if per == 1, and W
    # one f-cell's build: its factor matrices, each with its phases, and its Khatri-Rao rows
    build = 16 * cell_nodes * (2 * sum(shape) + math.prod(shape[1:]))
    check_bytes(cached + build + points * _REAL_POINT_BYTES + _REAL_CALL_BYTES, "real norm grids")
    return _real_grids(f.precision, scale.delta, axes)


def _cell_extensions(f: LocallyConstant, scale: Scale, stack: np.ndarray):
    """Yield E_J f on the grid of `stack`, the G of `_real_grids`, cell by
    cell: the sum of f_j G_j over the f-cells j in J."""
    vals = np.asarray(f.values, dtype=complex)
    per = len(vals) // scale.delta.denominator
    for lo in range(0, len(vals), per):
        yield np.tensordot(vals[lo:lo + per], stack[lo:lo + per], 1)


def _weighted_norms_real(f: LocallyConstant, scale: Scale, center, n: int,
                         budget: int) -> NormRatio:
    radius = float(Fraction(1) / scale.delta ** n)
    step = 1 / max(4, n + 1)  # the midpoint rule aliases no frequency below n + 1
    axes = tuple((float(c), step, int(round(radius / step))) for c in center)
    stack, power, weight = _checked_real_grids(f, scale, axes, budget)
    vals = np.asarray(f.values, dtype=complex)
    lhs = np.abs(np.tensordot(vals, stack, 1))
    if power is None:  # a partition cell holds several f-cells
        rhs = sum(np.abs(ej) ** 2 for ej in _cell_extensions(f, scale, stack))
    else:  # E_J f = f_j G_j for the one f-cell j of J
        rhs = np.tensordot(np.abs(vals) ** 2, power, 1)
    lhs **= 2 * n
    rhs **= n
    return NormRatio(float(np.vdot(lhs, weight) * step ** n) ** (1 / (2 * n)),
                     float(np.vdot(rhs, weight) * step ** n) ** (1 / (2 * n)))


def weighted_norms(f: TestFunction, scale: Scale, center=None, n: int | None = None,
                   budget: int = DEFAULT_ENUMERATION_BUDGET) -> NormRatio:
    """L^{2n} norms of E_O f and S_delta f against the standard weight.

    Q_p: the integrands are locally constant on Z_p^n cosets, so the sum
    over coset representatives of the ball of radius p^{ns} IS the
    integral; no quadrature error beyond float rounding.  R: midpoint rule
    with step 1/4 (1/(n+1) from n = 4) over the box of side delta^{-n}
    anchored at the center, against the Fejer-type weight.  An AtomicComb
    is refused: `comb_ratio` gives its ratio exactly.
    """
    if n is None and center is None:
        raise ValueError("give n or a center point")
    n = len(center) if n is None else n
    if n < 1:
        raise ValueError(f"n >= 1 and a nonempty center, not n = {n}")
    center = (Fraction(0),) * n if center is None else center
    if len(center) != n:
        raise ValueError(f"the center needs n = {n} coordinates, not {len(center)}")
    if isinstance(f, AtomicComb):
        raise ValueError("the comb's norm ratio is exact by counting: use comb_ratio")
    if f.is_zero:
        raise ValueError("zero function: the ratio is undefined")
    _check_scale(f.field, scale)
    if f.field.kind is FieldKind.PADIC:
        out = _weighted_norms_padic(f, scale, center, n, budget)
    elif f.field.kind is FieldKind.REAL:
        out = _weighted_norms_real(f, scale, center, n, budget)
    else:
        raise ValueError("norms are computed over R and Q_p")
    if out.rhs == 0:
        if out.lhs != 0:
            raise RuntimeError("rhs = 0 with lhs != 0: quadrature bug")
        raise ValueError("zero function: the ratio is undefined")
    return out


# ---------------------------------------------------------------------------
# the atomic-comb lower-bound experiment
# ---------------------------------------------------------------------------

def comb_ratio(n: int, N: int) -> float:
    """Norm ratio for the N-atom comb at scale delta = 1/N over R, exactly
    (derived in docs/quadrature.md).

    The weighted ratio over R^n is the plain ratio over one period cell.
    There the mean of |E_O f|^{2n} counts the pairs of atom n-tuples with
    equal power sums, which Girard-Newton makes the pairs of reorderings.
    For N >= 2, cell 0 is empty, the last cell holds (N-1)/N and 1, and
    every other cell one atom, so (S_delta f)^2 = N + 2 cos(theta) with
    theta uniform on a turn, whose n-th moment is the sum below.  At N = 1
    the one atom sits in the one cell and that moment is 1.  The quotient
    reaches n! as N grows, and 171! overflows a float: n is at most 170.
    """
    from .vinogradov import permutation_count
    if not (2 <= n <= 170 and N >= 1):
        raise ValueError("the comb ratio needs 2 <= n <= 170 and N >= 1")
    if N == 1:
        square_moment = 1
    else:
        square_moment = sum(math.comb(n, 2 * i) * math.comb(2 * i, i) * N ** (n - 2 * i)
                            for i in range(n // 2 + 1))
    return (permutation_count(n, N) / square_moment) ** (1 / (2 * n))


def qp_comb_ratio(p: int, n: int, s: int) -> float:
    """Norm ratio over Q_p at scale p^{-s} of the atom function, one atom
    per cell, exactly (derived in docs/quadrature.md): f = 1 on the
    residues 0, ..., p^s - 1 at precision n*s and 0 elsewhere, centre 0.

    Then h = f in `syzygy._parseval_sums`, so the key sum counts the pairs of
    atom n-tuples with equal power sums mod p^{ns}, which are the pairs of
    reorderings, and each cell tuple holds one atom tuple, so the cell sum
    counts the p^{sn} atom tuples.  As for `comb_ratio`, n is at most 170.
    """
    from .vinogradov import permutation_count
    FieldSpec(FieldKind.PADIC, p)  # checks that p is prime
    if not (1 <= n <= 170 and s >= 0):
        raise ValueError("the Q_p comb ratio needs 1 <= n <= 170 and s >= 0")
    return (permutation_count(n, p ** s) / p ** (s * n)) ** (1 / (2 * n))


# ---------------------------------------------------------------------------
# seeded test functions
# ---------------------------------------------------------------------------

def random_locally_constant(field: FieldSpec, precision: int, seed: int) -> LocallyConstant:
    """A reproducible random test function: complex standard normal cell
    values drawn from numpy's default (PCG64) generator with the given seed."""
    rng = np.random.default_rng(seed)
    count = field.prime ** precision if field.kind is FieldKind.PADIC else precision
    vals = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    return LocallyConstant(field, precision, tuple(complex(v) for v in vals))
