"""Power sums, elementary symmetric polynomials, and their transfer.

The recurrence

    (-1)^(j-1) * j * sigma_j = sum_{i=0}^{j-1} (-1)^i * p_{j-i} * sigma_i

links the power sums p_k of a point tuple to its elementary symmetric
values sigma_j.  Everything is exact rational arithmetic: the pigeonhole
argument downstream is sensitive to precision loss, so floats never enter.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import polys
from .local_field import REAL, FieldKind, FieldSpec, abs_value


def power_sums(points, upto: int | None = None) -> tuple[Fraction, ...]:
    """(p_1, ..., p_m) with p_k = sum_i points_i^k, m = upto or len(points)."""
    pts = [Fraction(x) for x in points]
    if not pts:
        raise ValueError("need at least one point")
    m = len(pts) if upto is None else upto
    out = []
    cur = [Fraction(1)] * len(pts)
    for _ in range(m):
        cur = [c * x for c, x in zip(cur, pts)]
        out.append(sum(cur))
    return tuple(out)


def elementary_from_power(power, n: int) -> tuple[Fraction, ...]:
    """Recover (sigma_1, ..., sigma_n) from power sums via the recurrence.

    Always solvable over Q (the division by j is exact); over a residue
    ring with p <= n the division is not invertible, see gn_division_loss.
    """
    p = [Fraction(x) for x in power]
    if len(p) < n:
        raise ValueError(f"need {n} power sums, got {len(p)}")
    sigma = [Fraction(1)]  # sigma_0
    for j in range(1, n + 1):
        acc = Fraction(0)
        for i in range(j):
            acc += (-1) ** i * p[j - i - 1] * sigma[i]
        sigma.append((-1) ** (j - 1) * acc / j)
    return tuple(sigma[1:])


@dataclass(frozen=True)
class MonicPolynomial:
    """A monic polynomial with exact rational coefficients (little-endian)."""

    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.coefficients or self.coefficients[-1] != 1:
            raise ValueError("leading coefficient must be 1")

    def evaluate(self, x) -> Fraction:
        return polys.evaluate(self.coefficients, x)


def vieta_polynomial(points) -> MonicPolynomial:
    """The monic polynomial prod_i (X - points_i).

    Its coefficient of X^(n-k) is (-1)^k sigma_k(points).
    """
    f = polys.ONE
    for x in points:
        f = polys.mul(f, polys.poly([-Fraction(x), 1]))
    return MonicPolynomial(f)


@dataclass(frozen=True)
class GNDefect:
    power_defect: Fraction
    elementary_defect: Fraction
    sup_g_defect: Fraction


def gn_defect(s, t, field: FieldSpec = REAL) -> GNDefect:
    """How far two tuples are from sharing symmetric data, in |.|_K.

    power_defect      = max_k |p_k(t) - p_k(s)|
    elementary_defect = max_j |sigma_j(t) - sigma_j(s)|
    sup_g_defect      = sup over x in O of |G(t; x) - G(s; x)| for the monic
                        root polynomials G: exact (= max coefficient
                        difference, by the ultrametric inequality with
                        |x| <= 1) over Q_p; the coefficient-sum upper bound
                        over R.
    """
    s = [Fraction(x) for x in s]
    t = [Fraction(x) for x in t]
    if len(s) != len(t):
        raise ValueError("tuples must have the same length")
    if field.kind is FieldKind.COMPLEX:
        raise ValueError("defects are computed over R and Q_p only")
    n = len(s)
    ps, pt = power_sums(s), power_sums(t)
    power_defect = max(abs_value(field, b - a) for a, b in zip(ps, pt))
    es, et = elementary_from_power(ps, n), elementary_from_power(pt, n)
    elementary_defect = max(abs_value(field, b - a) for a, b in zip(es, et))
    gs = vieta_polynomial(s).coefficients
    gt = vieta_polynomial(t).coefficients
    diffs = [abs_value(field, b - a) for a, b in zip(gs, gt)]
    if field.kind is FieldKind.PADIC:
        sup_g = max(diffs)
    else:
        sup_g = sum(diffs, Fraction(0))
    return GNDefect(power_defect, elementary_defect, sup_g)


def gn_division_loss(prime: int, n: int) -> Fraction:
    """max_{1 <= j <= n} |1/j|_p: the worst factor the recurrence's division
    by j can cost over Q_p.  Equals 1 exactly when p > n."""
    loss = Fraction(1)
    for j in range(1, n + 1):
        loss = max(loss, abs_value(FieldSpec(FieldKind.PADIC, prime), Fraction(1, j)))
    return loss
