import cmath
import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentsq import (REAL, Cell, CellTuple, FieldKind, FieldSpec, abs_value,
                      cell_representatives, cell_tuple, character, padic,
                      padic_scale, partition, real_scale)
from momentsq.local_field import COMPLEX, padic_fractional_part

primes = st.sampled_from([2, 3, 5, 7, 11])


def p_rational(p, max_num=200, max_exp=4):
    """Rationals with p-power denominators."""
    return st.builds(lambda a, k: Fraction(a, p ** k),
                     st.integers(-max_num, max_num), st.integers(0, max_exp))


def test_partition_q5_s1():
    cells = partition(padic(5), padic_scale(5, 1))
    assert [c.index for c in cells] == [0, 1, 2, 3, 4]


def test_partition_real_quarters():
    cells = partition(REAL, real_scale(4))
    assert len(cells) == 4
    assert [c.index for c in cells] == [0, 1, 2, 3]


def test_partition_q3_s2_residues():
    cells = partition(padic(3), padic_scale(3, 2))
    assert sorted(c.index for c in cells) == list(range(9))


def test_partition_complex_pairs():
    cells = partition(COMPLEX, real_scale(3))
    assert len(cells) == 9
    assert (0, 2) in {c.index for c in cells}


def test_partition_disjoint_cover_via_representatives():
    # cells at scale s, refined to precision m > s, tile all residues mod p^m
    for p, s, m in [(5, 1, 3), (3, 2, 4), (2, 3, 5)]:
        cells = partition(padic(p), padic_scale(p, s))
        reps = [r.residue for c in cells for r in cell_representatives(c, m)]
        assert sorted(reps) == list(range(p ** m))


def test_cell_tuple_is_one_field_scale_and_index_vector():
    t = cell_tuple(padic(5), padic_scale(5, 1), [4, 0, 4])
    assert [f.name for f in dataclasses.fields(CellTuple)] == ["field", "scale", "indices"]
    assert (t.field, t.scale, t.indices, t.n) == (padic(5), padic_scale(5, 1), (4, 0, 4), 3)
    assert t == CellTuple(padic(5), padic_scale(5, 1), (4, 0, 4))
    assert cell_tuple(COMPLEX, real_scale(2), [(0, 1), (1, 1)]).indices == ((0, 1), (1, 1))


def test_cell_tuple_checks_length_and_indices():
    with pytest.raises(ValueError, match="n >= 2"):
        cell_tuple(padic(5), padic_scale(5, 1), [3])
    with pytest.raises(ValueError, match="n >= 2"):
        cell_tuple(REAL, real_scale(4), [])
    # each index with Cell's checks and messages
    with pytest.raises(ValueError, match=r"residue in \[0, 5\)"):
        cell_tuple(padic(5), padic_scale(5, 1), [0, 5])
    with pytest.raises(ValueError, match=r"lie in \[0, 4\)"):
        cell_tuple(REAL, real_scale(4), [-1, 0])
    with pytest.raises(ValueError, match="index pair"):
        cell_tuple(COMPLEX, real_scale(2), [(0, 1), 1])
    with pytest.raises(ValueError, match="does not match"):
        CellTuple(padic(5), padic_scale(3, 1), (0, 1))


def test_scale_field_mismatch():
    with pytest.raises(ValueError):
        partition(padic(5), padic_scale(3, 1))


def test_character_examples():
    assert character(padic(5), 2) == pytest.approx(1)
    w = character(padic(3), Fraction(1, 3))
    assert w == pytest.approx(cmath.exp(2j * cmath.pi / 3))
    assert abs(w - 1) > 0.5  # nontrivial on 1/p
    assert character(REAL, Fraction(1, 2)) == pytest.approx(-1)


def test_character_rejects_bad_denominator():
    with pytest.raises(ValueError):
        character(padic(5), Fraction(1, 3))


@given(st.data(), primes)
@settings(max_examples=150, deadline=None)
def test_character_homomorphism(data, p):
    field = padic(p)
    x = data.draw(p_rational(p))
    y = data.draw(p_rational(p))
    lhs = character(field, x + y)
    assert abs(lhs - character(field, x) * character(field, y)) < 1e-12
    assert abs(abs(lhs) - 1) < 1e-12


@given(st.data(), primes)
@settings(max_examples=150, deadline=None)
def test_character_trivial_iff_integral(data, p):
    x = data.draw(p_rational(p))
    # decided exactly through the rational phase, no float comparison
    assert (padic_fractional_part(x, p) == 0) == (x == 0 or abs_value(padic(p), x) <= 1)


def test_abs_value_examples():
    assert abs_value(padic(5), 50) == Fraction(1, 25)
    assert abs_value(padic(5), (1, Fraction(1, 5))) == 5
    assert abs_value(REAL, Fraction(-3, 4)) == Fraction(3, 4)
    assert abs_value(COMPLEX, complex(3, -4)) == 4


@given(st.data(), primes)
@settings(max_examples=150, deadline=None)
def test_abs_value_multiplicative_ultrametric(data, p):
    field = padic(p)
    x = data.draw(st.fractions(max_denominator=40))
    y = data.draw(st.fractions(max_denominator=40))
    assert abs_value(field, x * y) == abs_value(field, x) * abs_value(field, y)
    assert abs_value(field, x + y) <= max(abs_value(field, x), abs_value(field, y))


def test_cell_representatives_examples():
    c = Cell(padic(3), padic_scale(3, 1), 2)
    assert [r.residue for r in cell_representatives(c, 2)] == [2, 5, 8]
    c = Cell(padic(5), padic_scale(5, 1), 0)
    assert [r.residue for r in cell_representatives(c, 1)] == [0]
    c = Cell(padic(2), padic_scale(2, 1), 1)
    assert [r.residue for r in cell_representatives(c, 3)] == [1, 3, 5, 7]


def test_cell_representatives_precision_guard():
    c = Cell(padic(3), padic_scale(3, 2), 4)
    with pytest.raises(ValueError):
        cell_representatives(c, 1)


def test_field_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec(FieldKind.PADIC, 4)
    with pytest.raises(ValueError):
        FieldSpec(FieldKind.REAL, 5)
    assert REAL.eta == 1 and COMPLEX.eta == 2


def test_cell_index_bounds():
    with pytest.raises(ValueError):
        Cell(padic(5), padic_scale(5, 1), 5)
    with pytest.raises(ValueError):
        Cell(REAL, real_scale(4), 4)
