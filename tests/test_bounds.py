import math
import random
from fractions import Fraction

import pytest

from momentsq import (COMPLEX, REAL, BoundReport, Curve, bezout_constant,
                      bezout_syzygy_bound, bounds_table, diagonal_refinement_max,
                      fewnomial_constant, field_constant, lipschitz_norm,
                      moment_wronskian, nondegenerate, padic, refined_diagonal_bound,
                      theorem1_constant, wronskian)
from momentsq import bounds, polys
from momentsq.bounds import _poly_det


def test_field_constants():
    assert field_constant(padic(5), 3) == 1
    assert field_constant(REAL, 6) == 7 ** 6
    assert field_constant(REAL, 7) == 5 ** 7
    assert field_constant(COMPLEX, 6) == 7 ** 12
    assert field_constant(COMPLEX, 7) == 5 ** 14


def test_theorem1_examples():
    assert theorem1_constant(padic(7), 2) == pytest.approx(math.sqrt(2))
    assert theorem1_constant(REAL, 3) == pytest.approx(343 ** (1 / 6) * math.sqrt(3))
    assert theorem1_constant(COMPLEX, 7) == pytest.approx(5 * math.sqrt(7))


def test_theorem1_consistent_with_cardinality_bound():
    from momentsq import syzygy_bound
    for n in range(2, 9):
        assert theorem1_constant(padic(5), n) ** (2 * n) == pytest.approx(n ** n, rel=1e-9)
        assert syzygy_bound(padic(5), n) == n ** n


def test_lipschitz_examples():
    assert lipschitz_norm(Curve.moment(3)) == 3
    assert lipschitz_norm(Curve((polys.poly([0, 1]), polys.poly([0, 2])))) == 2
    assert lipschitz_norm(Curve((polys.poly([0, 1]), polys.poly([0, -1, 1])))) == 1
    for n in range(2, 9):
        assert lipschitz_norm(Curve.moment(n)) == n


def test_lipschitz_exact_at_non_dyadic_critical_point():
    # gamma_2' = 2 + 6t - 9t^2 peaks at t = 1/3, inside a bisection interval
    assert lipschitz_norm(Curve((polys.poly([0, 1]), polys.poly([0, 2, 3, -3])))) == 3


def test_lipschitz_complex_upper_bound():
    assert lipschitz_norm(Curve.moment(4), COMPLEX) == 4


def test_bezout_examples():
    assert bezout_constant(Curve.moment(2), REAL) == pytest.approx(5 ** 0.5 * 2 ** 0.25)
    assert bezout_constant(Curve.moment(3), REAL) == pytest.approx(7 ** 0.5 * 6 ** (1 / 6))
    assert bezout_syzygy_bound(Curve.moment(2), REAL) == 50


def test_bezout_rejects_degenerate():
    flat = Curve((polys.poly([0, 1]), polys.poly([0, 1])))
    with pytest.raises(ValueError):
        bezout_constant(flat, REAL)


def test_fewnomial_examples():
    assert fewnomial_constant(Curve.moment(2)) == pytest.approx(5 ** 0.5 * 18 ** 0.25)
    assert fewnomial_constant(Curve.moment(3)) == pytest.approx(7 ** 0.5 * 512 ** (1 / 6))


def test_fewnomial_single_monomial_factor():
    # M = 1 leaves only the (n+1)^1 factor under the root
    curve = Curve.moment(2)
    assert curve.monomial_count() == 2
    val = fewnomial_constant(curve)
    assert val == pytest.approx((2 * 2 + 1) ** 0.5 * (2 ** 1 * 3 ** 2) ** 0.25)


def test_refined_diagonal_examples():
    assert refined_diagonal_bound(2) == 2
    assert refined_diagonal_bound(3) == 6
    assert refined_diagonal_bound(4) == 72
    assert diagonal_refinement_max(4) == 72


def test_refined_bound_sandwich():
    for n in range(2, 13):
        r = refined_diagonal_bound(n)
        assert r <= n ** n
        if n <= 3:
            assert r == math.factorial(n)
        else:
            assert r > math.factorial(n)


def cofactor_det(matrix):
    """Laplace expansion along the first row: the O(n!) oracle for `_poly_det`."""
    if len(matrix) == 1:
        return matrix[0][0]
    det = polys.ZERO
    for j in range(len(matrix)):
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = polys.mul(matrix[0][j], cofactor_det(minor))
        det = polys.add(det, term) if j % 2 == 0 else polys.sub(det, term)
    return det


def derivative_matrix(curve):
    rows = []
    for coeffs in curve.coords:
        ds = [coeffs]
        for _ in range(curve.n):
            ds.append(polys.derivative(ds[-1]))
        rows.append(ds[1:])
    return rows


def test_moment_curve_is_its_coordinates():
    hand = Curve((polys.poly([0, 1]), polys.poly([0, 0, 1])))
    assert Curve.moment(2) == hand and hand.is_moment


def test_wronskian_moment():
    w = wronskian(Curve.moment(2))
    assert w == polys.poly([2])
    w = wronskian(Curve.moment(3))
    assert w == polys.poly([12])
    for n in range(2, 13):
        w = wronskian(Curve.moment(n))  # Bareiss, the closed form's oracle
        expected = math.prod(math.factorial(k) for k in range(1, n + 1))
        assert polys.degree(w) == 0 and w[0] == expected == moment_wronskian(n)


def test_moment_curve_skips_the_determinant(monkeypatch):
    def no_det(matrix):
        raise AssertionError("the moment curve's Wronskian is a closed form")
    monkeypatch.setattr(bounds, "_poly_det", no_det)
    assert nondegenerate(Curve.moment(40))
    rows = bounds_table("wronskian", COMPLEX, 40)
    assert [r.value for r in rows] == [moment_wronskian(n) for n in range(2, 41)]
    assert len(bounds_table("bezout", COMPLEX, 40)) == 39


def test_bezout_constant_past_float_range():
    # prod deg = n! passes float range from n = 171 on; the root is taken by logs
    for n in (170, 171, 200):
        expected = (2 * n + 1) * math.exp(math.lgamma(n + 1) / (2 * n))
        assert bezout_constant(Curve.moment(n), COMPLEX) == pytest.approx(expected, rel=1e-12)


def test_moment_bezout_constant_matches_the_curve(monkeypatch):
    for field in (REAL, COMPLEX):
        for n in list(range(2, 26)) + [171, 200]:
            assert bounds.moment_bezout_constant(field, n) == bezout_constant(Curve.moment(n), field)
    with pytest.raises(ValueError, match="R and C"):
        bounds.moment_bezout_constant(padic(5), 2)

    def no_curve(n):
        raise AssertionError("the bezout table builds the moment curve")
    monkeypatch.setattr(bounds.Curve, "moment", no_curve)
    rows = bounds_table("bezout", REAL, 30)
    assert [r.value for r in rows] == [bounds.moment_bezout_constant(REAL, n) for n in range(2, 31)]


def test_moment_fewnomial_constant_matches_the_curve(monkeypatch):
    for n in range(2, 13):
        assert bounds.moment_fewnomial_constant(n) == fewnomial_constant(Curve.moment(n))

    def no_curve(n):
        raise AssertionError("the fewnomial table builds the moment curve")
    monkeypatch.setattr(bounds.Curve, "moment", no_curve)
    rows = bounds_table("fewnomial", REAL, 200)
    assert [r.value for r in rows] == [bounds.moment_fewnomial_constant(n) for n in range(2, 201)]
    assert [r.parameters["monomials"] for r in rows] == list(range(2, 201))


def test_wronskian_matches_cofactor_oracle():
    curves = [Curve.moment(n) for n in range(2, 8)]
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 5)
        curves.append(Curve(tuple(polys.poly([rng.choice((0, 0, 1, -2, 3, Fraction(1, 2)))
                                              for _ in range(rng.randint(1, n + 2))])
                                  for _ in range(n))))
    for curve in curves:
        assert wronskian(curve) == cofactor_det(derivative_matrix(curve))


def test_poly_det_pivots_on_zero_entries():
    one, t = polys.ONE, polys.monomial(1)
    cases = [
        [[polys.ZERO, one], [one, polys.ZERO]],  # -1: the first pivot is zero
        [[one, one, polys.ZERO], [one, one, t], [polys.ZERO, one, one]],  # zero 2x2 minor
        [[polys.ZERO, t], [polys.ZERO, one]],  # a zero column
    ]
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 5)
        cases.append([[polys.poly([rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(3)])
                       for _ in range(n)] for _ in range(n)])
    for matrix in cases:
        assert _poly_det(matrix) == cofactor_det(matrix)
    assert _poly_det(cases[0]) == polys.poly([-1])
    assert _poly_det(cases[1]) == polys.neg(t)


def test_wronskian_degenerate():
    flat = Curve((polys.poly([0, 1]), polys.poly([0, 1])))
    assert wronskian(flat) == polys.ZERO
    assert not nondegenerate(flat)
    assert nondegenerate(Curve.moment(2))


def test_nondegenerate_counts_interior_zeros():
    # not the moment curve and no zero at 0 or 1, so the Sturm count decides:
    # (t, t^2 + t^3) has W = 2 + 6t, and (t, t^3 - 3t^2/2) has W = 6t - 3, zero at 1/2
    assert nondegenerate(Curve((polys.poly([0, 1]), polys.poly([0, 0, 1, 1]))))
    assert not nondegenerate(Curve((polys.poly([0, 1]), polys.poly([0, 0, Fraction(-3, 2), 1]))))


def test_nondegenerate_detects_boundary_zero():
    # Wronskian of (t, t^3) is det([[1, 0], [3t^2, 6t]]) = 6t, zero at t = 0
    cubic = Curve((polys.poly([0, 1]), polys.poly([0, 0, 0, 1])))
    w = wronskian(cubic)
    assert polys.evaluate(w, 0) == 0
    assert not nondegenerate(cubic)


def test_factorial_root_ordering():
    for n in range(2, 13):
        assert math.factorial(n) ** (1 / (2 * n)) <= theorem1_constant(padic(5), n) + 1e-12


def test_factorial_variant_constant():
    from momentsq import factorial_variant_constant
    assert factorial_variant_constant(REAL, 2) == pytest.approx((25 * 2) ** 0.25)
    assert factorial_variant_constant(COMPLEX, 2) == pytest.approx((625 * 2) ** 0.25)
    # eventually sharper than the degree bound as n grows
    assert factorial_variant_constant(REAL, 12) < theorem1_constant(REAL, 12)
    with pytest.raises(ValueError):
        factorial_variant_constant(padic(5), 3)


def test_bounds_table_shapes():
    rows = bounds_table("theorem1", padic(5), 5)
    assert len(rows) == 4
    assert all(isinstance(r, BoundReport) and r.value > 0 for r in rows)
    rows = bounds_table("refined", REAL, 4)
    assert [r.value for r in rows] == [2, 6, 72]
    with pytest.raises(ValueError):
        bounds_table("unknown", REAL, 4)
    for n_max in (1, 0, -3):
        with pytest.raises(ValueError, match="n_max >= 2"):
            bounds_table("theorem1", padic(5), n_max)


def test_constants_past_float_range():
    # C_{K,n} and the fewnomial radicand pass 1.8e308 at these n; their roots do not
    assert theorem1_constant(COMPLEX, 221) == pytest.approx(5 * math.sqrt(221))
    assert theorem1_constant(REAL, 442) == pytest.approx(5 ** 0.5 * math.sqrt(442))
    assert theorem1_constant(padic(3), 500) == pytest.approx(math.sqrt(500))
    assert fewnomial_constant(Curve.moment(41)) == pytest.approx(
        83 ** 0.5 * 2 ** (41 * 40 / 164) * 42 ** 0.5)
    for n in range(2, 41):
        m = n  # the moment curve has n monomials
        radicand = 2 ** (m * (m - 1) // 2) * (n + 1) ** m
        assert fewnomial_constant(Curve.moment(n)) == pytest.approx(
            (2 * n + 1) ** 0.5 * radicand ** (1 / (2 * n)), rel=1e-12)
