import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentsq import (REAL, elementary_from_power, gn_defect,
                      gn_division_loss, padic, power_sums, vieta_polynomial)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=8)
tuples = st.lists(rationals, min_size=1, max_size=8)


def test_power_sums_examples():
    assert power_sums([1, 2]) == (3, 5)
    assert power_sums([0, 0, 0]) == (0, 0, 0)
    assert power_sums([1, 2, 3]) == (6, 14, 36)


def test_elementary_examples():
    assert elementary_from_power([3, 5], 2) == (3, 2)
    assert elementary_from_power([0, 0, 0], 3) == (0, 0, 0)
    assert elementary_from_power([6, 14, 36], 3) == (6, 11, 6)


def test_vieta_examples():
    assert vieta_polynomial([1, 2]).coefficients == (2, -3, 1)
    assert vieta_polynomial([0]).coefficients == (0, 1)
    assert vieta_polynomial([1, 1]).coefficients == (1, -2, 1)
    assert vieta_polynomial([1, 2]).evaluate(2) == 0


@given(tuples)
@settings(max_examples=200, deadline=None)
def test_roundtrip_power_elementary_vieta(pts):
    n = len(pts)
    sig = elementary_from_power(power_sums(pts), n)
    coeffs = vieta_polynomial(pts).coefficients
    # coefficient of X^(n-k) is (-1)^k sigma_k
    assert sig == tuple((-1) ** k * coeffs[n - k] for k in range(1, n + 1))
    for x in pts:
        assert vieta_polynomial(pts).evaluate(x) == 0


@given(tuples, st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_permutation_invariance(pts, rng):
    shuffled = pts[:]
    rng.shuffle(shuffled)
    assert power_sums(pts) == power_sums(shuffled)
    assert vieta_polynomial(pts).coefficients == vieta_polynomial(shuffled).coefficients


def test_gn_defect_trivial_cases():
    d = gn_defect([1, 2, 3], [1, 2, 3])
    assert (d.power_defect, d.elementary_defect, d.sup_g_defect) == (0, 0, 0)
    d = gn_defect([1, 2], [2, 1])
    assert (d.power_defect, d.elementary_defect, d.sup_g_defect) == (0, 0, 0)


def test_gn_defect_padic_example():
    d = gn_defect([0, 1], [5, 1], padic(5))
    assert d.power_defect == Fraction(1, 5)
    assert d.elementary_defect == Fraction(1, 5)
    assert d.sup_g_defect == Fraction(1, 5)


def test_gn_defect_length_mismatch():
    with pytest.raises(ValueError):
        gn_defect([1, 2], [1, 2, 3])


def test_archimedean_transfer_factor():
    # perturb a permuted tuple; elementary defect within 2 n^2 of power defect
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(2, 8)
        s = [Fraction(rng.randint(0, 10 ** 6), 10 ** 6) for _ in range(n)]
        t = s[:]
        rng.shuffle(t)
        sign = rng.choice([1, -1])
        t = [x + sign * Fraction(rng.randint(0, 1000), 10 ** 9) for x in t]
        d = gn_defect(s, t, REAL)
        assert d.elementary_defect <= 2 * n * n * d.power_defect + Fraction(1, 10 ** 12)


def test_ultrametric_transfer_exact():
    # over Q_p with p > n: power defect eps forces elementary defect <= eps
    rng = random.Random(5)
    for _ in range(300):
        p = rng.choice([5, 7, 11, 13])
        n = rng.randint(2, min(p - 1, 7))
        field = padic(p)
        s = [Fraction(rng.randint(0, p ** 4)) for _ in range(n)]
        t = [x + p ** 2 * rng.randint(0, p ** 2) for x in s]
        rng.shuffle(t)
        d = gn_defect(s, t, field)
        assert d.elementary_defect <= d.power_defect
        assert d.sup_g_defect <= d.power_defect


def test_division_loss_flag():
    assert gn_division_loss(5, 4) == 1
    assert gn_division_loss(7, 6) == 1
    assert gn_division_loss(2, 3) == 2
    assert gn_division_loss(3, 9) == 9
    assert gn_division_loss(2, 8) == 8
