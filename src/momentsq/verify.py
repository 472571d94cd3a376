"""The runnable invariant suite behind `momentsq verify`.

Each check exercises one documented invariant with seeded inputs and
returns a deterministic detail string, so identical configurations give
byte-identical reports regardless of thread count.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bounds, extension, polys, symmetric, syzygy, vinogradov
from .curves import Curve
from .local_field import (REAL, abs_value, cell_representatives, cell_tuple,
                          character, padic, padic_scale, partition, real_scale)


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


def _rational(rng: random.Random, max_num=20, max_den=12) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def _check_partitions(seed: int, trials: int) -> list[CheckResult]:
    out = []
    for p, s in [(5, 1), (3, 2), (2, 3)]:
        field = padic(p)
        cells = partition(field, padic_scale(p, s))
        m = s + 1
        reps = sorted(r.residue for c in cells for r in cell_representatives(c, m))
        ok = reps == list(range(p ** m)) and len(cells) == p ** s
        out.append(CheckResult("local_field", f"partition_covers_Q{p}_s{s}", ok,
                               f"{len(cells)} cells, {len(reps)} representatives at precision {m}"))
    rng = random.Random(seed)
    ok = True
    for _ in range(trials):
        p = rng.choice([2, 3, 5, 7])
        field = padic(p)
        x = Fraction(rng.randint(-60, 60), p ** rng.randint(0, 3))
        y = Fraction(rng.randint(-60, 60), p ** rng.randint(0, 3))
        lhs = character(field, x + y)
        rhs = character(field, x) * character(field, y)
        ok &= abs(lhs - rhs) < 1e-12 and abs(abs(lhs) - 1) < 1e-12
        if x != 0:
            ok &= (abs_value(field, x) <= 1) == (abs(character(field, x) - 1) < 1e-12)
    out.append(CheckResult("local_field", "character_homomorphism", bool(ok),
                           f"{trials} random rational pairs, tolerance 1e-12"))
    rng = random.Random(seed + 1)
    ok = True
    for _ in range(trials):
        p = rng.choice([2, 3, 5, 7])
        field = padic(p)
        x, y = _rational(rng), _rational(rng)
        if x == 0 or y == 0:
            continue
        ok &= abs_value(field, x * y) == abs_value(field, x) * abs_value(field, y)
        ok &= abs_value(field, x + y) <= max(abs_value(field, x), abs_value(field, y))
    out.append(CheckResult("local_field", "absolute_value_ultrametric", bool(ok),
                           "multiplicativity and ultrametric inequality, exact"))
    return out


def _check_symmetric(seed: int, trials: int) -> list[CheckResult]:
    rng = random.Random(seed)
    ok_round = ok_perm = True
    for _ in range(trials):
        n = rng.randint(1, 8)
        pts = [_rational(rng) for _ in range(n)]
        sig = symmetric.elementary_from_power(symmetric.power_sums(pts), n)
        coeffs = symmetric.vieta_polynomial(pts).coefficients
        vieta_sig = tuple((-1) ** k * coeffs[n - k] for k in range(1, n + 1))
        ok_round &= sig == vieta_sig
        perm = pts[:]
        rng.shuffle(perm)
        ok_perm &= symmetric.power_sums(pts) == symmetric.power_sums(perm)
    out = [CheckResult("symmetric", "power_elementary_vieta_roundtrip", ok_round,
                       f"{trials} random rational tuples, n <= 8, exact"),
           CheckResult("symmetric", "permutation_invariance", ok_perm,
                       f"{trials} shuffles, exact")]
    rng = random.Random(seed + 2)
    ok_transfer = True
    worst = Fraction(0)
    for _ in range(trials):
        n = rng.randint(2, 8)
        s = [Fraction(rng.randint(0, 10 ** 6), 10 ** 6) for _ in range(n)]
        t = s[:]
        rng.shuffle(t)
        sign = rng.choice([1, -1])
        t = [x + sign * Fraction(rng.randint(0, 100), 10 ** 8) for x in t]
        d = symmetric.gn_defect(s, t, REAL)
        if d.power_defect == 0:
            ok_transfer &= d.elementary_defect == 0
            continue
        ratio = d.elementary_defect / d.power_defect
        worst = max(worst, ratio / (2 * n * n))
        ok_transfer &= d.elementary_defect <= 2 * n * n * d.power_defect + Fraction(1, 10 ** 12)
    out.append(CheckResult("symmetric", "archimedean_transfer_2n2", ok_transfer,
                           f"worst defect ratio {float(worst):.3g} of the 2n^2 budget"))
    ok_ultra = True
    rng = random.Random(seed + 3)
    for _ in range(trials):
        p = rng.choice([5, 7, 11])
        n = rng.randint(2, min(p - 1, 6))
        field = padic(p)
        s = [Fraction(rng.randint(0, p ** 3)) for _ in range(n)]
        t = [x + p ** 2 * rng.randint(0, p) for x in s]
        rng.shuffle(t)
        d = symmetric.gn_defect(s, t, field)
        ok_ultra &= d.elementary_defect <= d.power_defect
    out.append(CheckResult("symmetric", "ultrametric_transfer_p_gt_n", ok_ultra,
                           f"{trials} perturbed tuples over Q_p with p > n, exact"))
    return out


def _check_syzygy(seed: int, trials: int) -> list[CheckResult]:
    out = []
    for p, n, s in [(5, 2, 1), (7, 2, 1), (5, 3, 1)]:
        scan = syzygy.scan_strong_diagonal(p, n, s)
        out.append(CheckResult(
            "syzygy", f"strong_diagonal_p{p}_n{n}_s{s}",
            scan.all_match_permutations and scan.within_bound,
            f"{scan.bases} bases, max |S| = {scan.max_cardinality} <= {scan.bound}"))
    rng = random.Random(seed)
    field, scale = padic(5), padic_scale(5, 1)
    ok_sym = ok_refl = True
    for _ in range(trials):
        idx_i = tuple(rng.randrange(5) for _ in range(2))
        idx_j = tuple(rng.randrange(5) for _ in range(2))
        ti = cell_tuple(field, scale, idx_i)
        tj = cell_tuple(field, scale, idx_j)
        ok_sym &= (syzygy.is_syzygy_nonarch(ti, tj) == syzygy.is_syzygy_nonarch(tj, ti))
        ok_refl &= syzygy.is_syzygy_nonarch(ti, ti)
    out.append(CheckResult("syzygy", "membership_symmetry_reflexivity",
                           ok_sym and ok_refl, f"{trials} random pairs over Q_5"))
    curve = Curve.moment(2)
    base = cell_tuple(REAL, real_scale(8), (2, 5))
    rep = syzygy.syzygy_set_real(curve, base)
    perms = {(2, 5), (5, 2)}
    ok = perms <= set(rep.member_indices)
    ok &= rep.cardinality <= bounds.bezout_syzygy_bound(curve, REAL)
    out.append(CheckResult("syzygy", "real_sampler_sound", ok,
                           f"|S| = {rep.cardinality} <= {bounds.bezout_syzygy_bound(curve, REAL)}, "
                           "witnesses re-checked exactly"))
    return out


def _check_vinogradov() -> list[CheckResult]:
    out = []
    ok = True
    details = []
    for n, N in [(2, 3), (2, 10), (3, 2), (3, 5)]:
        curve = Curve.moment(n)
        brute = vinogradov.count_solutions(curve, n, N, vinogradov.CountMethod.BRUTE_FORCE)
        hashed = vinogradov.count_solutions(curve, n, N, vinogradov.CountMethod.HASH_JOIN)
        formula = vinogradov.permutation_count(n, N)
        ok &= brute.count == hashed.count == formula
        details.append(f"J_{n}({N})={brute.count}")
    out.append(CheckResult("vinogradov", "brute_hash_formula_agree", ok, ", ".join(details)))
    ok_mono = True
    prev = 0
    for N in range(1, 12):
        c = vinogradov.permutation_count(2, N)
        ok_mono &= c > prev and c >= vinogradov.diagonal_count(2, N)
        prev = c
    out.append(CheckResult("vinogradov", "monotone_and_diagonal_lower", ok_mono,
                           "J(N) strictly increasing, >= N^n, N <= 11"))
    return out


def _check_extension(seed: int, trials: int) -> list[CheckResult]:
    out = []
    field = padic(5)
    scale = padic_scale(5, 1)
    f = extension.LocallyConstant(field, 1, (1 + 0j,) * 5)
    x0 = (Fraction(0), Fraction(0))
    e0 = extension.extension_op(f, None, x0)
    s0 = extension.square_function(f, scale, x0)
    ok = abs(e0 - 1) < 1e-12 and abs(s0 - 5 ** -0.5) < 1e-12
    out.append(CheckResult("extension", "indicator_normalization", ok,
                           "E_O 1(0) = 1 and S_delta 1(0) = 5^{-1/2}"))
    rng = np.random.default_rng(seed)
    ok_lin = ok_cs = True
    for k in range(trials):
        fa = extension.random_locally_constant(field, 2, seed + 2 * k)
        fb = extension.random_locally_constant(field, 2, seed + 2 * k + 1)
        fab = extension.LocallyConstant(field, 2, tuple(a + b for a, b in zip(fa.values, fb.values)))
        x = (Fraction(int(rng.integers(0, 25)), 25), Fraction(int(rng.integers(0, 25)), 25))
        lhs = extension.extension_op(fab, None, x)
        rhs = extension.extension_op(fa, None, x) + extension.extension_op(fb, None, x)
        ok_lin &= abs(lhs - rhs) < 1e-10
        eo = abs(extension.extension_op(fa, None, x))
        ok_cs &= eo <= 5 ** 0.5 * extension.square_function(fa, scale, x) + 1e-12
    out.append(CheckResult("extension", "linearity", ok_lin, f"{trials} random pairs, 1e-10"))
    out.append(CheckResult("extension", "pointwise_cauchy_schwarz", ok_cs,
                           f"|E_O f| <= sqrt(#cells) S_delta f at {trials} points"))
    return out


def _check_theorem1(seed: int, trials: int) -> list[CheckResult]:
    out = []
    field = padic(5)
    s_gamma = max(syzygy.scan_strong_diagonal(5, 2, s).max_cardinality
                  for s in (1, 2))
    enumerated_limit = s_gamma ** (1 / 4)
    thm_limit = bounds.theorem1_constant(field, 2)
    for s in (1, 2):
        scale = padic_scale(5, s)
        worst = 0.0
        for k in range(trials):
            f = extension.random_locally_constant(field, 2, seed + 1000 * s + k)
            r = extension.weighted_norms(f, scale, n=2).ratio
            worst = max(worst, r)
        ok = worst <= min(thm_limit, enumerated_limit) + 1e-9
        out.append(CheckResult(
            "theorem1", f"qp_ratio_s{s}", ok,
            f"max ratio {worst:.12f} <= min(sqrt(2)={thm_limit:.6f}, "
            f"S^(1/4)={enumerated_limit:.6f}), {trials} seeded f, exact quadrature"))
    thm_limit_r = bounds.theorem1_constant(REAL, 2)
    for res in (4, 8):
        scale = real_scale(res)
        worst = 0.0
        for k in range(trials):
            f = extension.random_locally_constant(REAL, res, seed + 5000 * res + k)
            r = extension.weighted_norms(f, scale, n=2).ratio
            worst = max(worst, r)
        ok = worst <= thm_limit_r * 1.02
        out.append(CheckResult(
            "theorem1", f"real_ratio_delta_1_{res}", ok,
            f"max ratio {worst:.6f} <= sqrt(14) = {thm_limit_r:.6f} (2% tolerance), "
            f"{trials} seeded f"))
    return out


def _check_bounds() -> list[CheckResult]:
    out = []
    ok = all(bounds.theorem1_constant(padic(5), n) ** (2 * n) - n ** n < 1e-6 * n ** n
             for n in range(2, 9))
    out.append(CheckResult("bounds", "nonarch_constant_power", ok,
                           "theorem1(Q_p, n)^{2n} = n^n, n <= 8"))
    ok = all(bounds.lipschitz_norm(Curve.moment(n)) == n for n in range(2, 9))
    out.append(CheckResult("bounds", "moment_lipschitz", ok, "l(moment, n) = n, n <= 8"))
    ok = True
    for n in range(2, 7):
        w = bounds.wronskian(Curve.moment(n))
        expected = math.prod(math.factorial(k) for k in range(1, n + 1))
        ok &= polys.degree(w) == 0 and abs(w[0]) == expected
    out.append(CheckResult("bounds", "moment_wronskian_constant", ok,
                           "W = prod k! up to sign, n <= 6"))
    ok = True
    for n in range(2, 13):
        r = bounds.refined_diagonal_bound(n)
        ok &= r <= n ** n
        ok &= (r == math.factorial(n)) if n <= 3 else (r >= math.factorial(n))
    out.append(CheckResult("bounds", "refined_bound_sandwich", ok,
                           "n! <= refined <= n^n with equality iff n <= 3, n <= 12"))
    ok = all(math.factorial(n) ** (1 / (2 * n)) <= bounds.theorem1_constant(padic(5), n)
             for n in range(2, 13))
    out.append(CheckResult("bounds", "factorial_root_below_sqrt_n", ok,
                           "(n!)^(1/2n) <= sqrt(n), n <= 12"))
    return out


# Suites that draw random inputs, with the number of draws when --trials is
# not given.  The other suites draw nothing and take no seed or trials.
_DEFAULT_TRIALS = {"local_field": 200, "symmetric": 300, "syzygy": 30,
                   "extension": 25, "theorem1": 25}
DEFAULT_SEED = 7

_SUITES = {
    "local_field": _check_partitions,
    "symmetric": _check_symmetric,
    "syzygy": _check_syzygy,
    "vinogradov": lambda seed, trials: _check_vinogradov(),
    "extension": _check_extension,
    "theorem1": _check_theorem1,
    "bounds": lambda seed, trials: _check_bounds(),
}


def run_suite(suite: str = "all", seed: int | None = None,
              trials: int | None = None) -> list[CheckResult]:
    """Run one suite, or every suite for "all".  seed (DEFAULT_SEED if None)
    seeds the draws, and trials sets their number, of each suite that draws;
    naming a single suite that draws none together with either is an error."""
    if suite == "all":
        names = list(_SUITES)
    elif suite in _SUITES:
        names = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}; choose from all, {', '.join(_SUITES)}")
    if trials is not None and trials < 1:
        raise ValueError("trials must be at least 1")
    if suite != "all" and suite not in _DEFAULT_TRIALS and (seed, trials) != (None, None):
        raise ValueError(f"suite {suite!r} draws nothing: it takes no seed or trials")
    seed = DEFAULT_SEED if seed is None else seed
    results = []
    for name in names:
        draws = _DEFAULT_TRIALS.get(name) if trials is None else trials
        results.extend(_SUITES[name](seed, draws))
    return results
