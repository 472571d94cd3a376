"""Every explicit constant of the estimates, as a computable function.

Covers the field constants C_{K,n}, the three headline bounds (the n^(1/2)
bound for the moment curve, the Bezout-degree bound for non-degenerate
polynomial curves, the fewnomial bound over R), the combinatorial
refinement of n^n, Lipschitz norms, and Wronskian non-degeneracy
certification.  Certification paths (Sturm counts, Lipschitz sups) are
exact rational arithmetic throughout.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import polys
from .curves import Curve
from .local_field import FieldKind, FieldSpec
from .polys import Poly


@dataclass(frozen=True)
class BoundReport:
    name: str
    parameters: dict
    value: float | int | Fraction
    formula: str

    def __post_init__(self):
        if not self.value > 0:
            raise ValueError("bound values are positive")


def _field_base(field: FieldSpec, n: int) -> int:
    """b with C_{K,n} = b^(n*eta): 1 for non-Archimedean K, else 7 (n <= 6) or 5."""
    if n < 1:
        raise ValueError("n >= 1")
    return 1 if field.kind is FieldKind.PADIC else 7 if n <= 6 else 5


def field_constant(field: FieldSpec, n: int) -> int:
    """C_{K,n}: 1 for non-Archimedean K; 7^n (n <= 6) / 5^n (n >= 7) over R,
    squared over C."""
    return _field_base(field, n) ** (n * field.eta)


def _int_text(value: int, expression: str) -> str:
    """value in decimal, or (expression) where its digits pass the
    int-to-string limit of Python (sys.get_int_max_str_digits)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit or value < 10 ** limit:
        return str(value)
    return f"({expression})"


def theorem1_constant(field: FieldSpec, n: int) -> float:
    """C_{K,n}^(1/2n) * n^(1/2) = b^(eta/2) * n^(1/2): the moment-curve bound."""
    if n < 2:
        raise ValueError("n >= 2")
    return _field_base(field, n) ** (field.eta / 2) * math.sqrt(n)


def lipschitz_norm(curve: Curve, field: FieldSpec | None = None) -> Fraction:
    """The Lipschitz norm sup_i sup_{s != t} |gamma_i(t) - gamma_i(s)| / |t - s|.

    Over R ([0,1], the default) this is sup_i sup |gamma_i'|, computed by
    exact critical-point isolation; the value is exact when the sup sits at
    an endpoint or rational critical point, else a certified upper bound
    within 1e-9.  Over C the cheap upper bound (sum of |coefficients|) *
    degree per coordinate is used; it only enlarges downstream constants.
    """
    if field is not None and field.kind is FieldKind.COMPLEX:
        best = Fraction(0)
        for coeffs in curve.coords:
            if polys.degree(coeffs) >= 1:
                best = max(best, sum(abs(c) for c in coeffs if c) * polys.degree(coeffs))
        return best
    if field is not None and field.kind is FieldKind.PADIC:
        raise ValueError("Lipschitz norms are computed for Archimedean fields")
    best = Fraction(0)
    for coeffs in curve.coords:
        best = max(best, polys.sup_abs_unit_interval(polys.derivative(coeffs)))
    return best


def _ceil_lipschitz(curve: Curve, field: FieldSpec) -> int:
    return math.ceil(lipschitz_norm(curve, field if field.kind is FieldKind.COMPLEX else None))


def bezout_constant(curve: Curve, field: FieldSpec) -> float:
    """(2*ceil(l) + 1)^(eta/2) * (prod_i deg gamma_i)^(1/2n) for a
    non-degenerate polynomial curve over R or C."""
    if field.kind is FieldKind.PADIC:
        raise ValueError("the Bezout bound applies over R and C")
    if not nondegenerate(curve):
        raise ValueError("curve is degenerate (vanishing Wronskian on [0, 1])")
    n = curve.n
    ell = _ceil_lipschitz(curve, field)
    return (2 * ell + 1) ** (field.eta / 2) * _root(math.prod(curve.degrees()), 2 * n)


def moment_bezout_constant(field: FieldSpec, n: int) -> float:
    """`bezout_constant` of the moment curve, with ceil(l) = n and
    prod_i deg gamma_i = n!: gamma_k' = k t^(k-1) peaks at k on [0, 1], and
    the complex bound |1| * k is k too.  `bezout_constant` is its oracle."""
    if field.kind is FieldKind.PADIC:
        raise ValueError("the Bezout bound applies over R and C")
    return (2 * n + 1) ** (field.eta / 2) * _root(math.factorial(n), 2 * n)


def _root(x: int, k: int) -> float:
    """x^(1/k) for a positive integer x, through its logarithm where x is
    past float range (from 171! on)."""
    try:
        return x ** (1 / k)
    except OverflowError:
        return math.exp(math.log(x) / k)


def bezout_syzygy_bound(curve: Curve, field: FieldSpec) -> int:
    """The cardinality-level form (2*ceil(l) + 1)^(n*eta) * prod_i deg gamma_i."""
    if field.kind is FieldKind.PADIC:
        raise ValueError("the Bezout bound applies over R and C")
    if not nondegenerate(curve):
        raise ValueError("curve is degenerate (vanishing Wronskian on [0, 1])")
    n = curve.n
    ell = _ceil_lipschitz(curve, field)
    return (2 * ell + 1) ** (n * field.eta) * math.prod(curve.degrees())


def fewnomial_constant(curve: Curve) -> float:
    """(2*ceil(l) + 1)^(1/2) * (2^(M(M-1)/2) * (n+1)^M)^(1/2n) over R, with M
    the total monomial count of the curve; the root is taken factor by factor."""
    n = curve.n
    m = curve.monomial_count()
    ell = _ceil_lipschitz(curve, FieldSpec(FieldKind.REAL))
    return (2 * ell + 1) ** 0.5 * 2 ** (m * (m - 1) / (4 * n)) * (n + 1) ** (m / (2 * n))


def moment_fewnomial_constant(n: int) -> float:
    """`fewnomial_constant` of the moment curve, with ceil(l) = n (as in
    `moment_bezout_constant`) and M = n monomials, in the same float
    expression.  `fewnomial_constant` is its oracle."""
    return (2 * n + 1) ** 0.5 * 2 ** (n * (n - 1) / (4 * n)) * (n + 1) ** (n / (2 * n))


def factorial_variant_constant(field: FieldSpec, n: int) -> float:
    """(5^(eta*n) * n!)^(1/2n): the sharper Archimedean variant of the
    norm-ratio bound.  Exposed as a computed constant only; no independent
    cardinality enumeration backs it."""
    if field.kind is FieldKind.PADIC:
        raise ValueError("the factorial variant is stated for R and C")
    if n < 2:
        raise ValueError("n >= 2")
    return (5 ** (field.eta * n) * math.factorial(n)) ** (1 / (2 * n))


def diagonal_refinement_max(n: int) -> int:
    """max over m = 1..n of n(n-1)...(n-m+1) * m^(n-m)."""
    if n < 2:
        raise ValueError("n >= 2")
    return max(math.perm(n, m) * m ** (n - m) for m in range(1, n + 1))


def refined_diagonal_bound(n: int) -> int:
    """The combinatorial refinement of n^n.

    For n = 2 and 3 the diagonal patterns can be counted exactly and the
    bound collapses to n!; the max-formula is weaker there (12 at n = 3).
    From n = 4 on the max-formula is the best this method gives, and it
    exceeds n!.
    """
    if n < 2:
        raise ValueError("n >= 2")
    if n <= 3:
        return math.factorial(n)
    return diagonal_refinement_max(n)


def moment_wronskian(n: int) -> int:
    """The moment curve's Wronskian, the constant prod_{k=1}^n k!: the row of
    T^k holds k!/(k-j)! T^(k-j) for j <= k and 0 past it, so the matrix is
    triangular with diagonal k!.  `wronskian` is its oracle."""
    return math.prod(math.factorial(k) for k in range(1, n + 1))


def wronskian(curve: Curve) -> Poly:
    """det(gamma'(t), gamma''(t), ..., gamma^(n)(t)) as an exact polynomial."""
    n = curve.n
    matrix = []
    for coeffs in curve.coords:
        row = []
        d = coeffs
        for _ in range(n):
            d = polys.derivative(d)
            row.append(d)
        matrix.append(row)
    return _poly_det(matrix)


def _poly_det(matrix: list[list[Poly]]) -> Poly:
    """Fraction-free (Bareiss) elimination: each division by the previous
    pivot is exact; a zero pivot swaps in a lower row, or the det is zero."""
    m = [list(row) for row in matrix]
    n, sign, prev = len(m), 1, polys.ONE
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return polys.ZERO
            m[k], m[swap], sign = m[swap], m[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = polys.sub(polys.mul(m[i][j], m[k][k]), polys.mul(m[i][k], m[k][j]))
                m[i][j], rem = polys.divmod_poly(num, prev)
                if rem:
                    raise ArithmeticError("inexact Bareiss division")
        prev = m[k][k]
    return m[-1][-1] if sign > 0 else polys.neg(m[-1][-1])


def nondegenerate(curve: Curve) -> bool:
    """True iff the Wronskian has no zero on [0, 1], decided by Sturm counts;
    the moment curve's is the nonzero constant `moment_wronskian`."""
    if curve.is_moment:
        return True
    w = wronskian(curve)
    if not w:
        return False
    if polys.evaluate(w, 0) == 0 or polys.evaluate(w, 1) == 0:
        return False
    return polys.count_roots_open(w, 0, 1) == 0


def bounds_table(table: str, field: FieldSpec, n_max: int) -> list[BoundReport]:
    """Rows for the CLI tables, n = 2..n_max."""
    if n_max < 2:
        raise ValueError("n_max >= 2")
    rows = []
    for n in range(2, n_max + 1):
        if table == "theorem1":
            constant = _int_text(field_constant(field, n), f"{_field_base(field, n)}^{n * field.eta}")
            rows.append(BoundReport(
                name="theorem1",
                parameters={"field": str(field), "n": n},
                value=theorem1_constant(field, n),
                formula=f"{constant}^(1/{2 * n})*sqrt({n})",
            ))
        elif table == "bezout":  # the moment curve, in closed form
            degrees = _int_text(math.factorial(n), f"{n}!")
            rows.append(BoundReport(
                name="bezout",
                parameters={"field": str(field), "n": n, "curve": "moment"},
                value=moment_bezout_constant(field, n),
                formula=f"(2*{n}+1)^({field.eta}/2)*{degrees}^(1/{2 * n})",
            ))
        elif table == "fewnomial":  # the moment curve, in closed form: M = n
            rows.append(BoundReport(
                name="fewnomial",
                parameters={"n": n, "curve": "moment", "monomials": n},
                value=moment_fewnomial_constant(n),
                formula=f"(2*ceil(l)+1)^(1/2)*(2^{n * (n - 1) // 2}*{n + 1}^{n})^(1/{2 * n})",
            ))
        elif table == "refined":
            rows.append(BoundReport(
                name="refined_diagonal",
                parameters={"n": n},
                value=refined_diagonal_bound(n),
                formula="max_m n!/(n-m)! * m^(n-m), n! exactly for n <= 3",
            ))
        elif table == "wronskian":
            rows.append(BoundReport(
                name="moment_wronskian",
                parameters={"n": n},
                value=moment_wronskian(n),
                formula="det(gamma', ..., gamma^(n)), constant for the moment curve",
            ))
        else:
            raise ValueError(f"unknown table {table!r}")
    return rows
