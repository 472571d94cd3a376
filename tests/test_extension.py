import os
import pathlib
import subprocess
import sys
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentsq import (COMPLEX, REAL, AtomicComb, BudgetExceededError, Cell, LocallyConstant,
                      comb_ratio, extension_op, padic, padic_scale, qp_comb_ratio,
                      random_locally_constant, real_scale, square_function,
                      weighted_norms)
from momentsq import budget
from momentsq.extension import fejer_weight


def indicator(field, precision):
    count = field.prime ** precision
    return LocallyConstant(field, precision, (1 + 0j,) * count)


def test_extension_trivial_values():
    f5 = padic(5)
    one = indicator(f5, 1)
    assert extension_op(one, None, (Fraction(0), Fraction(0))) == pytest.approx(1)
    # any x in O^n: the phase gamma(xi) . x stays in O, where e = 1
    assert extension_op(one, None, (Fraction(2), Fraction(-7))) == pytest.approx(1)
    comb = AtomicComb(REAL, 2)
    assert extension_op(comb, None, (0.0, 0.0)) == pytest.approx(2)


def test_square_function_trivial():
    f5 = padic(5)
    sc = padic_scale(5, 1)
    one = indicator(f5, 1)
    x0 = (Fraction(0), Fraction(0))
    assert square_function(one, sc, x0) == pytest.approx(5 ** -0.5)
    # f supported on a single cell: S = |E_J f| = |E_O f|
    single = LocallyConstant(f5, 1, (0, 0, 1 + 1j, 0, 0))
    x = (Fraction(1, 25), Fraction(3, 25))
    assert square_function(single, sc, x) == pytest.approx(abs(extension_op(single, None, x)))
    zero = LocallyConstant(f5, 1, (0,) * 5)
    assert square_function(zero, sc, x) == 0


def test_extension_linearity():
    f5 = padic(5)
    fa = random_locally_constant(f5, 2, seed=1)
    fb = random_locally_constant(f5, 2, seed=2)
    fab = LocallyConstant(f5, 2, tuple(a + b for a, b in zip(fa.values, fb.values)))
    for x in [(Fraction(3, 25), Fraction(4, 5)), (Fraction(0), Fraction(1, 125))]:
        lhs = extension_op(fab, None, x)
        rhs = extension_op(fa, None, x) + extension_op(fb, None, x)
        assert abs(lhs - rhs) < 1e-10


def test_modulus_bound():
    f5 = padic(5)
    f = random_locally_constant(f5, 2, seed=3)
    mass = sum(abs(v) for v in f.values) / 25
    cell = Cell(f5, padic_scale(5, 1), 2)
    cell_mass = sum(abs(f.values[a]) for a in range(25) if a % 5 == 2) / 25
    for x in [(Fraction(1, 5), Fraction(2, 25)), (Fraction(7, 125), Fraction(0))]:
        assert abs(extension_op(f, None, x)) <= mass + 1e-12
        assert abs(extension_op(f, cell, x)) <= cell_mass + 1e-12


def test_pointwise_cauchy_schwarz():
    f5 = padic(5)
    sc = padic_scale(5, 1)
    for seed in range(5):
        f = random_locally_constant(f5, 2, seed=seed)
        for x in [(Fraction(0), Fraction(0)), (Fraction(1, 25), Fraction(8, 25))]:
            assert abs(extension_op(f, None, x)) <= 5 ** 0.5 * square_function(f, sc, x) + 1e-12


def _pointwise_norms(f, scale, center):
    """L^{2n} norms summed pointwise over every coset representative
    c + j/q, j in (Z/q)^n, of the ball of radius q = p^{ns}."""
    n = len(center)
    q = f.field.prime ** (n * scale.exponent)
    lhs = rhs = 0.0
    for j in product(range(q), repeat=n):
        x = tuple(c + Fraction(jk, q) for c, jk in zip(center, j))
        lhs += abs(extension_op(f, None, x)) ** (2 * n)
        rhs += square_function(f, scale, x) ** (2 * n)
    return lhs ** (1 / (2 * n)), rhs ** (1 / (2 * n))


@given(st.data())
@settings(max_examples=12, deadline=None)
def test_weighted_norms_match_pointwise_property(data):
    # the Parseval grouped sum against direct pointwise sums, over random
    # primes, precisions and centers (denominators up to p^3 > p^{ns})
    p = data.draw(st.sampled_from([2, 3, 5]))
    precision = data.draw(st.integers(1, 3))
    center = tuple(Fraction(data.draw(st.integers(-50, 50)), p ** data.draw(st.integers(0, 3)))
                   for _ in range(2))
    f = random_locally_constant(padic(p), precision, seed=data.draw(st.integers(0, 10 ** 6)))
    sc = padic_scale(p, 1)
    lhs, rhs = _pointwise_norms(f, sc, center)
    if rhs < 1e-12:  # E f vanishes on the ball, as at (1/8, 0) over Q_2 with precision 1
        with pytest.raises(ValueError, match="zero function"):
            weighted_norms(f, sc, center=center)
        return
    fast = weighted_norms(f, sc, center=center)
    assert fast.lhs == pytest.approx(lhs, rel=1e-12)
    assert fast.rhs == pytest.approx(rhs, rel=1e-12)


def test_weighted_norms_match_pointwise_n3():
    f2 = padic(2)
    sc = padic_scale(2, 1)
    f = random_locally_constant(f2, 2, seed=5)
    center = (Fraction(1, 2), Fraction(-3, 16), Fraction(5))
    fast = weighted_norms(f, sc, center=center)
    lhs, rhs = _pointwise_norms(f, sc, center)
    assert fast.lhs == pytest.approx(lhs, rel=1e-12)
    assert fast.rhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("p,s", [(3, 1), (5, 2), (5, 0)])
def test_weighted_norms_match_pointwise_n1(p, s):
    # n = 1 over Q_p: every 1-tuple is unramified, so the sums are closed form only
    f = random_locally_constant(padic(p), 2, seed=p + s)
    sc = padic_scale(p, s)
    center = (Fraction(2, p ** 2),)
    fast = weighted_norms(f, sc, center=center)
    lhs, rhs = _pointwise_norms(f, sc, center)
    assert fast.lhs == pytest.approx(lhs, rel=1e-12)
    assert fast.rhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("p,s,precision,center,e", [
    (2, 2, 2, (Fraction(1, 4), Fraction(0)), 2),       # p <= n: e = v = s < ns = 4
    (2, 2, 1, (Fraction(1, 8), Fraction(3)), 3),       # s < e < ns
    (2, 2, 1, (Fraction(0), Fraction(1, 16)), 4),      # v = ns: e = ns
    (2, 2, 2, (Fraction(1, 2), Fraction(1, 32)), 4),   # v > ns: g folded, e = ns
    (2, 3, 3, (Fraction(1, 8), Fraction(-1, 16)), 4),  # s < e < ns = 6
    (3, 1, 1, (Fraction(1, 3), Fraction(0)), 1),       # p > n: e = s < ns = 2
    (5, 1, 1, (Fraction(1, 5), Fraction(2)), 1),
    (5, 1, 1, (Fraction(0), Fraction(7, 25)), 2),      # v = ns
])
def test_weighted_norms_at_the_carried_precision_match_pointwise(monkeypatch, p, s, precision,
                                                                  center, e):
    # f of precision below ns and a centre whose denominators stay below p^{ns}
    # give h of period p^e, e < ns (from v = ns on, e = ns): the sums over
    # residue multisets mod p^e against the pointwise sums over every coset
    # representative
    from momentsq import syzygy
    sizes = []
    sums = syzygy._parseval_sums

    def recorded(h, *args):
        sizes.append(h.size)
        return sums(h, *args)
    monkeypatch.setattr(syzygy, "_parseval_sums", recorded)
    f = random_locally_constant(padic(p), precision, seed=10 * p + s + precision)
    sc = padic_scale(p, s)
    fast = weighted_norms(f, sc, center=center)
    assert sizes == [p ** e]
    lhs, rhs = _pointwise_norms(f, sc, center)
    assert fast.lhs == pytest.approx(lhs, rel=1e-12)
    assert fast.rhs == pytest.approx(rhs, rel=1e-12)


def test_weighted_norms_budget_checked_before_allocating():
    # Q_5, n = 3, s = 2 would group (Z/5^6)^3, about 3.8e12 tuples
    f = random_locally_constant(padic(5), 1, seed=0)
    with pytest.raises(BudgetExceededError, match="enumeration steps"):
        weighted_norms(f, padic_scale(5, 2), n=3)


def test_weighted_norms_budget_counts_sorted_tuples(monkeypatch):
    # Q_2, s = 1, n = 2: q = 4 residues give C(4 + 1, 2) = 10 sorted tuples, not 4^2
    f = random_locally_constant(padic(2), 1, seed=0)
    monkeypatch.setattr(budget, "ENUMERATION_BUDGET", 10)
    weighted_norms(f, padic_scale(2, 1), n=2)
    monkeypatch.setattr(budget, "ENUMERATION_BUDGET", 9)
    with pytest.raises(BudgetExceededError, match="10 enumeration steps"):
        weighted_norms(f, padic_scale(2, 1), n=2)


def test_parseval_budget_counts_bytes():
    # Q_3, n = 3, s = 2: C(731, 3) = 64,860,705 sorted tuples pass the step
    # budget, but grouping them would hold about 4.1 GB (64 bytes a tuple, traced)
    import tracemalloc
    from momentsq import syzygy
    syzygy._check_key_rows(7, 3, 1, 3)  # 22,050 class-0 rows
    f = random_locally_constant(padic(3), 1, seed=0)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="bytes, over the memory budget"):
            weighted_norms(f, padic_scale(3, 2), n=3)
        assert tracemalloc.get_traced_memory()[1] < 2 ** 20
    finally:
        tracemalloc.stop()


def test_weighted_norms_rejects_scale_of_another_field():
    f = random_locally_constant(padic(5), 1, seed=0)
    for sc in (padic_scale(7, 1), real_scale(4)):
        with pytest.raises(ValueError, match=r"does not match p\^\{-s\} for this field"):
            weighted_norms(f, sc, n=2)


def test_qp_residue_enumeration_budget_checked_before_allocating(monkeypatch):
    # 5^12 residues are over the step budget; 5^11 pass it, but at 48
    # traced bytes each they would hold about 2.3 GB
    import tracemalloc
    f = random_locally_constant(padic(5), 1, seed=0)
    tracemalloc.start()
    try:
        for v, match in ((Fraction(1, 5 ** 12), "enumeration steps"),
                         (Fraction(1, 5 ** 11), "bytes, over the memory budget")):
            with pytest.raises(BudgetExceededError, match=match):
                weighted_norms(f, padic_scale(5, 1), center=(v, Fraction(0)))
            with pytest.raises(BudgetExceededError, match=match):
                extension_op(f, None, (v, Fraction(0)))
            with pytest.raises(BudgetExceededError, match=match):
                square_function(f, padic_scale(5, 1), (v, Fraction(0)))
        assert tracemalloc.get_traced_memory()[1] < 2 ** 20
    finally:
        tracemalloc.stop()
    # the residue guard reads the same limit as the grouping: Q_2 at s = 1 groups
    # 10 sorted tuples, and the centre 1/16 needs the 16 residues mod 2^4 (in
    # the second coordinate: (1/16, 0) makes E f vanish on the ball)
    g = random_locally_constant(padic(2), 1, seed=0)
    monkeypatch.setattr(budget, "ENUMERATION_BUDGET", 16)
    weighted_norms(g, padic_scale(2, 1), center=(Fraction(0), Fraction(1, 16)))
    monkeypatch.setattr(budget, "ENUMERATION_BUDGET", 15)
    with pytest.raises(BudgetExceededError, match="16 enumeration steps"):
        weighted_norms(g, padic_scale(2, 1), center=(Fraction(0), Fraction(1, 16)))


def test_one_step_limit_bounds_every_qp_evaluation(monkeypatch):
    # f at precision 3 and x with denominators up to 5^2 take the 125 residues
    # mod 5^3 in the point evaluation, the square function and the norms (whose
    # grouping takes 75 steps): one assignment to the limit refuses all three
    f = random_locally_constant(padic(5), 3, seed=0)
    x, scale = (Fraction(1, 5), Fraction(2, 25)), padic_scale(5, 1)
    calls = (lambda: extension_op(f, None, x), lambda: square_function(f, scale, x),
             lambda: weighted_norms(f, scale, center=x))
    monkeypatch.setattr(budget, "ENUMERATION_BUDGET", 124)
    for call in calls:
        with pytest.raises(BudgetExceededError, match="125 enumeration steps"):
            call()
    monkeypatch.setattr(budget, "ENUMERATION_BUDGET", 125)
    for call in calls:
        call()


def test_qp_phase_overflow_refused_past_raised_limits(monkeypatch):
    # from 2^31 residues on, the int64 phase products could wrap: with both
    # limits raised, 5^14 residues are still refused, before allocating
    import tracemalloc
    monkeypatch.setattr(budget, "ENUMERATION_BUDGET", 10 ** 12)
    monkeypatch.setattr(budget, "MEMORY_BUDGET", 2 ** 50)
    f = random_locally_constant(padic(5), 1, seed=0)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="overflow 64-bit"):
            extension_op(f, None, (Fraction(1, 5 ** 14), Fraction(0)))
        assert tracemalloc.get_traced_memory()[1] < 2 ** 20
    finally:
        tracemalloc.stop()


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_phase_numerators_match_fractional_parts(data):
    # exact integers against the Fraction reference, residue by residue
    from momentsq.extension import _phase_numerators
    from momentsq.local_field import padic_fractional_part
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    exps = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=4))
    x = tuple(Fraction(data.draw(st.integers(-10 ** 4, 10 ** 4)), p ** j) for j in exps)
    m = max(1, *exps) + data.draw(st.integers(0, 1))
    got = _phase_numerators(x, p, m)
    assert got.dtype == np.int64
    for a in range(p ** m):
        phase = p ** m * sum(padic_fractional_part(a ** k * v, p) for k, v in enumerate(x, 1))
        assert phase.denominator == 1
        assert int(got[a]) == phase.numerator % p ** m


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_qp_evaluations_match_character_sums(data):
    # E_J f(x) and S_delta f(x) against p^-m sum_a f(a) e(gamma(a) . x), with
    # e the Fraction-based character: catches a sign or scale slip in the phase
    from momentsq.local_field import character
    p = data.draw(st.sampled_from([2, 3, 5]))
    field, sc = padic(p), padic_scale(p, data.draw(st.integers(1, 2)))
    precision, seed = data.draw(st.integers(1, 2)), data.draw(st.integers(0, 99))
    f = random_locally_constant(field, precision, seed=seed)
    x = tuple(Fraction(data.draw(st.integers(-50, 50)), p ** data.draw(st.integers(0, 3)))
              for _ in range(data.draw(st.integers(1, 3))))
    m = 3 + sc.exponent  # clears every denominator of x and the cells
    cells = [0j] * p ** sc.exponent
    for a in range(p ** m):
        e = character(field, sum(a ** k * v for k, v in enumerate(x, 1)))
        cells[a % p ** sc.exponent] += f.values[a % p ** precision] * e / p ** m
    for j, e in enumerate(cells):
        assert extension_op(f, Cell(field, sc, j), x) == pytest.approx(e, abs=1e-12)
    assert extension_op(f, None, x) == pytest.approx(sum(cells), abs=1e-12)
    assert square_function(f, sc, x) == pytest.approx(sum(abs(e) ** 2 for e in cells) ** 0.5,
                                                      abs=1e-12)


def test_phase_denominator_must_be_a_power_of_p():
    from momentsq.extension import _phase_numerators
    f = random_locally_constant(padic(5), 1, seed=0)
    with pytest.raises(ValueError, match="not a power of 5"):
        _phase_numerators((Fraction(1, 5), Fraction(2, 15)), 5, 2)
    with pytest.raises(ValueError, match="not a power of 5"):
        extension_op(f, None, (Fraction(1, 3), Fraction(0)))
    with pytest.raises(ValueError, match="not a power of 5"):
        weighted_norms(f, padic_scale(5, 1), center=(Fraction(0), Fraction(7, 10)))


def test_warm_qp_norms_fault_few_pages():
    # A warm call that allocates its row-sized temporaries afresh faults in
    # about one page per 4 KB of them (over 1,000 per call at (5,2,2)).  Over
    # Q_2 at s = 4 (p <= n, 32,896 rows) 3,000 live 8 KB arrays are kept
    # between the calls, so the heap has no room left by the cold call.
    pytest.importorskip("resource")
    code = """if True:
        import resource, sys
        import numpy as np
        from momentsq import padic, padic_scale, random_locally_constant, weighted_norms
        p, s, live, precision = map(int, sys.argv[1:])
        fs = [random_locally_constant(padic(p), precision, k) for k in range(21)]
        weighted_norms(fs[0], padic_scale(p, s), n=2)
        kept = [np.ones(1024) for _ in range(live)]
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for f in fs[1:]:
            weighted_norms(f, padic_scale(p, s), n=2)
        print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(pathlib.Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")])}
    # f at precision ns sums over every sorted tuple mod p^{ns}; below it, over
    # the residue multisets mod p^e (e = 2 and 5: 1,375 and 11,392 rows)
    for config in (("5", "2", "0", "4"), ("2", "4", "3000", "8"), ("5", "2", "0", "2"),
                   ("2", "4", "3000", "5")):
        out = subprocess.run([sys.executable, "-c", code, *config], capture_output=True,
                             text=True, env=env, check=True)
        assert float(out.stdout) < 100, config


def test_complex_field_has_no_test_functions():
    with pytest.raises(ValueError, match="R and Q_p"):
        LocallyConstant(COMPLEX, 4, (1, 0, 0, 0))
    with pytest.raises(ValueError, match="R and Q_p"):
        random_locally_constant(COMPLEX, 4, seed=1)


def test_weighted_norms_n3_recorded():
    # Q_5, n = 3, s = 1 at a nonzero centre; the values were computed over all
    # 125^3 ordered residue tuples, before the sums ran over sorted tuples
    f = random_locally_constant(padic(5), 2, seed=11)
    r = weighted_norms(f, padic_scale(5, 1), center=(Fraction(1, 5), Fraction(-2, 25), Fraction(3)))
    assert r.lhs == pytest.approx(1.984176878728396, rel=1e-12)
    assert r.rhs == pytest.approx(1.7359690902777578, rel=1e-12)


def test_weighted_norms_match_pointwise_oracle():
    # independent route: direct pointwise sums over every coset of the ball
    f3 = padic(3)
    sc = padic_scale(3, 1)
    f = random_locally_constant(f3, 1, seed=21)
    q = 9
    lhs4 = rhs4 = 0.0
    for j1 in range(q):
        for j2 in range(q):
            x = (Fraction(j1, q), Fraction(j2, q))
            lhs4 += abs(extension_op(f, None, x)) ** 4
            rhs4 += square_function(f, sc, x) ** 4
    fast = weighted_norms(f, sc, n=2)
    assert fast.lhs == pytest.approx(lhs4 ** 0.25, rel=1e-12)
    assert fast.rhs == pytest.approx(rhs4 ** 0.25, rel=1e-12)


def test_weighted_norms_center_modulation_identity():
    # recentering the ball is the same as modulating the cell values
    import cmath
    from momentsq.local_field import padic_fractional_part
    f5 = padic(5)
    sc = padic_scale(5, 1)
    f = random_locally_constant(f5, 2, seed=13)
    center = (Fraction(2, 5), Fraction(3, 25))
    shifted = weighted_norms(f, sc, center=center)
    modulated_vals = []
    for a in range(25):
        ph = sum(padic_fractional_part(a ** k * c, 5) for k, c in enumerate(center, 1))
        modulated_vals.append(f.values[a] * cmath.exp(2j * cmath.pi * (ph % 1)))
    fmod = LocallyConstant(f5, 2, tuple(modulated_vals))
    plain = weighted_norms(fmod, sc, n=2)
    assert shifted.lhs == pytest.approx(plain.lhs, rel=1e-11)
    assert shifted.rhs == pytest.approx(plain.rhs, rel=1e-11)
    assert shifted.ratio <= 2 ** 0.25 + 1e-9


def test_weighted_norms_ratio_bound_other_prime():
    f7 = padic(7)
    sc = padic_scale(7, 1)
    for seed in range(5):
        f = random_locally_constant(f7, 1, seed=seed)
        assert weighted_norms(f, sc, n=2).ratio <= 2 ** 0.25 + 1e-9


def _assert_cells_match_pointwise(f, scale, axes):
    from momentsq.extension import _cell_extensions, _checked_real_grids
    grid = [lo + (np.arange(m) + 0.5) * h for lo, h, m in axes]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(budget, "ENUMERATION_BUDGET", 10 ** 6)
        stack = _checked_real_grids(f, scale, axes)[0]
    cells = list(_cell_extensions(f, scale, stack))
    assert len(cells) == scale.delta.denominator
    for j, ej in enumerate(cells):
        cell = Cell(REAL, scale, j)
        for idx in product(*(range(len(g)) for g in grid)):
            x = tuple(g[i] for g, i in zip(grid, idx))
            assert abs(ej[idx] - extension_op(f, cell, x)) < 1e-9


def test_real_grid_route_matches_pointwise():
    # axes are (origin, step, count); these give the points {0.5, 3.25} x {1.0, 7.75}
    f = random_locally_constant(REAL, 8, seed=17)  # finer than the partition
    axes = ((-0.875, 2.75, 2), (-2.375, 6.75, 2))
    _assert_cells_match_pointwise(f, real_scale(4), axes)
    # n = 3 around a nonzero centre
    f = random_locally_constant(REAL, 4, seed=3)
    _assert_cells_match_pointwise(f, real_scale(2), ((1.5, 0.75, 3), (-2.0, 0.5, 2), (0.25, 1.25, 2)))
    # n = 4 at step 1/5, three f-cells in the one partition cell
    f = random_locally_constant(REAL, 3, seed=11)
    _assert_cells_match_pointwise(f, real_scale(1), ((0.5, 0.2, 2), (-1.0, 0.2, 2), (0.0, 0.2, 1),
                                                     (0.75, 0.2, 2)))


def test_comb_cells_pointwise():
    # atoms 1/4, 1/2, 3/4, 1: cell 0 is empty, the last cell holds 3/4 and 1
    import cmath
    comb, scale = AtomicComb(REAL, 4), real_scale(4)

    def atom(t, x):
        return cmath.exp(-2j * cmath.pi * sum(t ** k * xk for k, xk in enumerate(x, 1)))

    for x in product((0.125, 0.375, 2.625), (-1.0, 0.25, 1.25)):
        cells = [extension_op(comb, Cell(REAL, scale, j), x) for j in range(4)]
        assert cells[0] == 0
        assert cells[1] == pytest.approx(atom(0.25, x), abs=1e-12)
        assert cells[2] == pytest.approx(atom(0.5, x), abs=1e-12)
        assert cells[3] == pytest.approx(atom(0.75, x) + atom(1.0, x), abs=1e-12)
        assert sum(cells) == pytest.approx(extension_op(comb, None, x), abs=1e-12)


def test_cached_tables_are_read_only():
    # the cached builders hand the same arrays to every caller
    from momentsq.extension import _gauss_legendre_16, _real_grids
    from momentsq.syzygy import _pair_relation, _parseval_groups
    grids = _real_grids(8, Fraction(1, 8), ((0.0, 0.25, 4),) * 2)  # G, |G|^2 and the weight
    assert _real_grids(8, Fraction(1, 4), ((0.0, 0.25, 4),) * 2)[1] is None  # two f-cells a cell
    # one class, then five; at e = ns and below it
    levels = [level for config in ((2, 2, 1, 2), (5, 3, 1, 3), (2, 2, 2, 3), (5, 3, 1, 2))
              for level in _parseval_groups(*config)[0]]
    arrays = [a for level in levels for a in level] + [*grids, *_gauss_legendre_16()]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]
        with pytest.raises(ValueError, match="read-only"):
            a += a[0]
    # the pair relation is empty here, so only its flag can be checked
    assert not any(a.flags.writeable for a in _pair_relation(2, 2, 1))


def test_real_norms_budget_counts_factor_entries():
    # n = 2 at scale 1/32: 4096^2 grid points pass the grid check, but the
    # 12,800 nodes need ~1.6e8 factor and Khatri-Rao entries
    import tracemalloc
    f = random_locally_constant(REAL, 32, seed=0)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="real factor matrices"):
            weighted_norms(f, real_scale(32), n=2)
        assert tracemalloc.get_traced_memory()[1] < 2 ** 20
    finally:
        tracemalloc.stop()


def test_real_norms_refuse_their_bytes_before_allocating():
    # n = 2 at scale 1/24: the step budget admits it, but G and |G|^2 alone
    # would hold 24 * 5,308,416 grid points at 24 bytes, about 3.1 GB
    import tracemalloc
    f = random_locally_constant(REAL, 24, seed=0)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="real norm grids needs about"):
            weighted_norms(f, real_scale(24), n=2)
        assert tracemalloc.get_traced_memory()[1] < 2 ** 20
    finally:
        tracemalloc.stop()


def test_real_byte_charge_covers_its_peak(monkeypatch):
    # refused with the memory budget one byte under the traced peak of a
    # call that builds its grids, and admitted at twice it where the grids
    # are the bulk; at n = 3 one f-cell's build is, and n = 4 takes the
    # three f-cells of scale 1
    import tracemalloc
    from momentsq import extension
    weighted_norms(random_locally_constant(REAL, 2, seed=0), real_scale(2), n=2)  # lazy set-up
    limit = budget.MEMORY_BUDGET
    for n, res, cells in ((2, 4, 4), (2, 8, 8), (2, 12, 12), (3, 2, 2), (4, 3, 1)):
        f, scale = random_locally_constant(REAL, res, seed=1), real_scale(cells)
        monkeypatch.setattr(budget, "MEMORY_BUDGET", limit)
        extension._real_grids.cache_clear()
        tracemalloc.start()
        try:
            weighted_norms(f, scale, n=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(budget, "MEMORY_BUDGET", peak - 1)
        with pytest.raises(BudgetExceededError, match="real norm grids"):
            weighted_norms(f, scale, n=n)
        if n < 4:
            monkeypatch.setattr(budget, "MEMORY_BUDGET", 2 * peak)
            weighted_norms(f, scale, n=n)


def test_clear_caches_releases_the_real_grid():
    # the last real grid stays resident after its call (12.5 MB at n = 2,
    # resolution 8; 411 MB at 16); clear_caches drops it with the Q_p tables
    import tracemalloc
    from momentsq import clear_caches, extension, scan_strong_diagonal, syzygy
    clear_caches()
    tracemalloc.start()
    try:
        weighted_norms(random_locally_constant(REAL, 8, seed=0), real_scale(8), n=2)
        held = tracemalloc.get_traced_memory()[0]
        weighted_norms(LocallyConstant(padic(2), 2, (1, 2, 3, 4)), padic_scale(2, 1), n=2)
        scan_strong_diagonal(2, 2, 1)
        clear_caches()
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held > 12 * 2 ** 20 and left < 2 ** 20, (held, left)
    caches = (extension._real_grids, syzygy._pair_relation, syzygy._parseval_groups)
    assert [c.cache_info().currsize for c in caches] == [0, 0, 0]


def test_real_ratios_recorded():
    # values of the per-cell matrix-product route, which these grids replaced
    recorded = {(4, 0): 1.030996645601956, (4, 1): 0.8878690080013248,
                (4, 20004): 1.0229642051468202, (8, 0): 1.0833779481456733,
                (8, 1): 1.2384206488870457, (8, 40007): 0.9754286328632819}
    for (res, seed), ratio in recorded.items():
        r = weighted_norms(random_locally_constant(REAL, res, seed=seed), real_scale(res), n=2)
        assert r.ratio == pytest.approx(ratio, rel=1e-12, abs=0)
    # f finer than the partition, around a nonzero centre
    f = random_locally_constant(REAL, 8, seed=5)
    r = weighted_norms(f, real_scale(4), center=(Fraction(1, 3), Fraction(-2)))
    assert r.ratio == pytest.approx(1.2417990919293178, rel=1e-12, abs=0)


def test_weighted_norms_single_cell_ratio_one():
    f5 = padic(5)
    sc = padic_scale(5, 1)
    single = LocallyConstant(f5, 1, (0, 0.7 - 0.2j, 0, 0, 0))
    r = weighted_norms(single, sc, n=2)
    assert r.ratio == pytest.approx(1, abs=1e-12)
    # real field too
    fr = LocallyConstant(REAL, 4, (0, 1.5 + 0.5j, 0, 0))
    rr = weighted_norms(fr, real_scale(4), n=2)
    assert rr.ratio == pytest.approx(1, abs=1e-9)


def test_weighted_norms_center_needs_n_coordinates():
    fp = random_locally_constant(padic(5), 1, seed=0)
    fr = random_locally_constant(REAL, 4, seed=0)
    for f, sc in ((fp, padic_scale(5, 1)), (fr, real_scale(4))):
        for center in ((Fraction(1, 5),), (Fraction(1, 5), Fraction(0), Fraction(0))):
            with pytest.raises(ValueError, match="coordinates"):
                weighted_norms(f, sc, center=center, n=2)


def test_weighted_norms_zero_function_error():
    f5 = padic(5)
    zero = LocallyConstant(f5, 1, (0,) * 5)
    with pytest.raises(ValueError, match="zero"):
        weighted_norms(zero, padic_scale(5, 1), n=2)


def test_weighted_norms_zero_on_the_ball_over_qp():
    # at the centre (1/5^e, 0), e >= 3, folding g mod 25 sums whole sets of
    # 5-power roots of unity, so E f vanishes on the ball up to rounding
    f = random_locally_constant(padic(5), 2, seed=0)
    sc = padic_scale(5, 1)
    for e in range(3, 8):
        with pytest.raises(ValueError, match="zero function"):
            weighted_norms(f, sc, center=(Fraction(1, 5 ** e), Fraction(0)))
    r = weighted_norms(f, sc, center=(Fraction(1, 25), Fraction(0)))
    assert r.ratio == pytest.approx(1.1377752672935726, rel=1e-12)


def test_weighted_norms_rejects_n_below_1():
    fp = random_locally_constant(padic(5), 1, seed=0)
    fr = random_locally_constant(REAL, 4, seed=0)
    for f, sc in ((fp, padic_scale(5, 1)), (fr, real_scale(4))):
        for kwargs in ({"n": 0}, {"center": ()}):
            with pytest.raises(ValueError, match="n >= 1"):
                weighted_norms(f, sc, **kwargs)


def test_weighted_norms_ratio_bound_qp():
    f5 = padic(5)
    sc = padic_scale(5, 1)
    for seed in range(10):
        f = random_locally_constant(f5, 2, seed=seed)
        r = weighted_norms(f, sc, n=2)
        assert r.ratio <= 2 ** 0.25 + 1e-9


def test_weighted_norms_real_ratio_bound():
    for seed in range(5):
        f = random_locally_constant(REAL, 4, seed=seed)
        r = weighted_norms(f, real_scale(4), n=2)
        assert r.ratio <= 2 * 1.02  # pointwise CS: sqrt(#cells)


def test_real_norms_n4_use_step_one_fifth():
    # the n = 4 integrands hold frequency 4, which step 1/4 aliases: the
    # grid route must match pointwise midpoint sums on the step-1/5 grid
    f = random_locally_constant(REAL, 3, seed=11)
    scale = real_scale(1)  # the box is the unit cube with its corner at the centre
    center = (Fraction(1, 2), Fraction(-1), Fraction(0), Fraction(3, 4))
    lhs = rhs = 0.0
    for idx in product(range(5), repeat=4):
        x = tuple(float(c) + (i + 0.5) / 5 for c, i in zip(center, idx))
        w = np.prod([fejer_weight(xk - float(c)) for xk, c in zip(x, center)])
        lhs += abs(extension_op(f, None, x)) ** 8 * w / 5 ** 4
        rhs += square_function(f, scale, x) ** 8 * w / 5 ** 4
    fast = weighted_norms(f, scale, center=center)
    assert fast.lhs == pytest.approx(lhs ** (1 / 8), rel=1e-9)
    assert fast.rhs == pytest.approx(rhs ** (1 / 8), rel=1e-9)


def test_fejer_weight_on_unit_interval():
    u = np.linspace(0, 1, 101)
    w = fejer_weight(u)
    assert np.all(w >= 1 - 1e-12)
    assert fejer_weight(0.5) == pytest.approx((np.pi / 2) ** 2)
    assert fejer_weight(0.0) == pytest.approx(1)
    assert fejer_weight(1.0) == pytest.approx(1)


def test_comb_ratio_single_atom():
    assert comb_ratio(2, 1) == pytest.approx(1)


def test_comb_ratio_matches_counting_identity():
    # period-cell quadrature must reproduce J(N) / (N^2 + 2) exactly
    for N in (5, 10):
        expected = ((2 * N * N - N) / (N * N + 2)) ** 0.25
        assert comb_ratio(2, N) == pytest.approx(expected, abs=1e-9)


def _comb_ratio_pointwise(n, N):
    """The plain ratio over one period cell [0, N) x [0, N^2) x ..., summed
    pointwise at the step-1/4 midpoints."""
    comb, scale = AtomicComb(REAL, N), real_scale(N)
    lhs = rhs = 0.0
    for x in product(*((np.arange(4 * N ** k) + 0.5) / 4 for k in range(1, n + 1))):
        lhs += abs(extension_op(comb, None, x)) ** (2 * n)
        rhs += square_function(comb, scale, x) ** (2 * n)
    return (lhs / rhs) ** (1 / (2 * n))


@pytest.mark.parametrize("n,N", [(2, 1), (2, 2), (2, 3), (2, 5), (3, 2)])
def test_comb_ratio_matches_pointwise(n, N):
    # the closed form against the pointwise comb branch of extension_op
    assert comb_ratio(n, N) == pytest.approx(_comb_ratio_pointwise(n, N), rel=1e-12)


def test_comb_ratio_square_moment_by_quadrature():
    # for N >= 2, (S_delta f)^2 = N + 2 cos(theta) with theta uniform; its n-th
    # moment by the equispaced rule, exact for a trigonometric polynomial of degree n
    from momentsq import permutation_count
    theta = 2 * np.pi * np.arange(64) / 64
    for n in range(2, 9):
        for N in (2, 3, 10, 1000):
            moment = np.mean((N + 2 * np.cos(theta)) ** n)
            expected = (permutation_count(n, N) / moment) ** (1 / (2 * n))
            assert comb_ratio(n, N) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("p,n,s", [(5, 2, 2), (5, 3, 1), (7, 3, 1), (11, 3, 1),
                                   (2, 2, 2), (3, 3, 1)])  # p <= n too
def test_qp_comb_ratio_is_the_atom_functions_ratio(p, n, s):
    # one atom per cell: f = 1 on the residues 0, ..., p^s - 1 at precision ns
    from momentsq import syzygy
    atoms, q = p ** s, p ** (n * s)
    f = LocallyConstant(padic(p), n * s, tuple(float(a < atoms) for a in range(q)))
    try:
        ratio = weighted_norms(f, padic_scale(p, s), n=n).ratio
    finally:
        syzygy.clear_index_cache()
    assert ratio == pytest.approx(qp_comb_ratio(p, n, s), rel=1e-12)


def test_qp_comb_ratio_values_and_parameters():
    from momentsq import permutation_count
    assert qp_comb_ratio(5, 2, 0) == qp_comb_ratio(5, 1, 3) == 1  # one atom; n = 1
    assert qp_comb_ratio(5, 2, 1) == pytest.approx((45 / 25) ** 0.25, rel=1e-15)
    assert qp_comb_ratio(7, 3, 2) == pytest.approx(
        (permutation_count(3, 49) / 49 ** 3) ** (1 / 6), rel=1e-15)
    for p, n, s in ((4, 2, 1), (5, 0, 1), (5, 171, 1), (5, 2, -1)):
        with pytest.raises(ValueError):
            qp_comb_ratio(p, n, s)


def test_comb_ratio_rejects_bad_parameters():
    for n, N in ((1, 5), (2, 0), (171, 10)):  # 171! overflows a float
        with pytest.raises(ValueError):
            comb_ratio(n, N)


def test_weighted_norms_rejects_comb():
    with pytest.raises(ValueError, match="comb_ratio"):
        weighted_norms(AtomicComb(REAL, 4), real_scale(4), n=2)


def test_comb_ratio_monotone():
    r10, r20, r40 = (comb_ratio(2, N) for N in (10, 20, 40))
    assert r10 <= r20 + 0.02 and r20 <= r40 + 0.02
    assert abs(r40 - 2 ** 0.25) / 2 ** 0.25 <= 0.15


def test_atomic_comb_rejected_over_padic():
    with pytest.raises(ValueError):
        AtomicComb(padic(5), 4)
