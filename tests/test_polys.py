from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from momentsq import polys

coeff = st.fractions(min_value=-10, max_value=10, max_denominator=6)
small_poly = st.lists(coeff, min_size=0, max_size=6).map(polys.poly)


def test_eval_and_derivative():
    f = polys.poly([1, -3, 2])  # 2t^2 - 3t + 1 = (2t - 1)(t - 1)
    assert polys.evaluate(f, Fraction(1, 2)) == 0
    assert polys.evaluate(f, 1) == 0
    assert polys.derivative(f) == polys.poly([-3, 4])


@given(small_poly, small_poly)
@settings(max_examples=100, deadline=None)
def test_divmod_identity(f, g):
    if not g:
        return
    q, r = polys.divmod_poly(f, g)
    assert polys.add(polys.mul(q, g), r) == f
    assert polys.degree(r) < polys.degree(g)


@given(small_poly, small_poly)
@settings(max_examples=100, deadline=None)
def test_gcd_divides(f, g):
    d = polys.gcd_poly(f, g)
    if not d:
        assert not f and not g
        return
    assert not polys.divmod_poly(f, d)[1]
    assert not polys.divmod_poly(g, d)[1]


def test_count_roots_known():
    # (t - 1/4)(t - 1/2)(t - 3) has two roots in (0, 1)
    f = polys.mul(polys.mul(polys.poly([-Fraction(1, 4), 1]),
                            polys.poly([-Fraction(1, 2), 1])),
                  polys.poly([-3, 1]))
    assert polys.count_roots_open(f, 0, 1) == 2
    assert polys.count_roots_open(f, 0, 4) == 3
    assert polys.count_roots_open(f, 2, 4) == 1


def test_count_roots_endpoint_and_repeated():
    f = polys.mul(polys.poly([0, 1]), polys.poly([0, 1]))  # t^2
    assert polys.count_roots_open(f, -1, 1) == 1
    assert polys.count_roots_open(f, 0, 1) == 0  # root at the endpoint excluded


def test_isolate_roots_exact_hits():
    f = polys.poly([-Fraction(1, 2), 1])  # root exactly at a bisection point
    [(lo, hi)] = polys.isolate_roots(f, 0, 1)
    assert lo <= Fraction(1, 2) <= hi


def test_sup_abs_endpoint_max():
    # |3t^2| on [0,1] peaks at t = 1
    assert polys.sup_abs_unit_interval(polys.poly([0, 0, 3])) == 3


def test_sup_abs_interior_rational_critical_point():
    # |t - t^2| peaks at t = 1/2 with value 1/4, found exactly
    f = polys.poly([0, 1, -1])
    assert polys.sup_abs_unit_interval(f) == Fraction(1, 4)


def test_sup_abs_non_dyadic_rational_critical_point():
    # 2 + 6t - 9t^2 peaks at t = 1/3, which bisection never hits: the rational
    # root test finds it, so the sup is exact
    assert polys.sup_abs_unit_interval(polys.poly([2, 6, -9])) == 3


def test_sup_abs_irrational_critical_point_certified():
    # f' = 3t^2 - 1 vanishes at 1/sqrt(3); bound must cover the true sup
    f = polys.poly([0, -1, 0, 1])  # t^3 - t
    true_sup = 2 / 27 ** 0.5
    got = polys.sup_abs_unit_interval(f)
    assert true_sup <= float(got) <= true_sup + 1e-8
