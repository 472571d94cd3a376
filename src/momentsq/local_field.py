"""Exact arithmetic and geometry of the base fields: R, C and Q_p.

The ring of integers O is [0, 1] over R, the unit square over C, and Z_p
over Q_p.  This module provides the partitions of O into balls/intervals
of a given scale, the normalized absolute values (max-norm on tuples and
on C), the standard additive characters, and finite-precision coset
representatives for p-adic cells.

p-adic elements are carried as exact integers mod p^m; character values
are exact rational phases converted to complex doubles only at the
boundary.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction


class FieldKind(Enum):
    REAL = "real"
    COMPLEX = "complex"
    PADIC = "padic"


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldSpec:
    """One of the three field families; Q_p carries its prime (= uniformizer)."""

    kind: FieldKind
    prime: int | None = None

    def __post_init__(self):
        if self.kind is FieldKind.PADIC:
            if self.prime is None or not _is_prime(self.prime):
                raise ValueError(f"prime must be a prime >= 2, got {self.prime}")
        elif self.prime is not None:
            raise ValueError("prime only makes sense for p-adic fields")

    @property
    def eta(self) -> int:
        """Archimedean doubling exponent: 1 for R, 2 for C."""
        return 2 if self.kind is FieldKind.COMPLEX else 1

    def __str__(self):
        if self.kind is FieldKind.PADIC:
            return f"Q_{self.prime}"
        return "R" if self.kind is FieldKind.REAL else "C"


REAL = FieldSpec(FieldKind.REAL)
COMPLEX = FieldSpec(FieldKind.COMPLEX)


def padic(p: int) -> FieldSpec:
    return FieldSpec(FieldKind.PADIC, p)


@dataclass(frozen=True)
class Scale:
    """A partition scale: delta = p^{-s} over Q_p, delta = 1/R over R and C.

    `exponent` is the p-adic exponent s; Archimedean scales are determined
    by delta alone and carry exponent 0.
    """

    exponent: int
    delta: Fraction

    def __post_init__(self):
        if not (0 < self.delta <= 1):
            raise ValueError("delta must lie in (0, 1]")
        if self.exponent < 0:
            raise ValueError("exponent must be nonnegative")


def padic_scale(p: int, s: int) -> Scale:
    if s < 0:
        raise ValueError("s must be nonnegative")
    return Scale(s, Fraction(1, p ** s))


def real_scale(resolution: int) -> Scale:
    """Scale 1/R for a positive integer R."""
    if resolution < 1:
        raise ValueError("resolution must be a positive integer")
    return Scale(0, Fraction(1, resolution))


@dataclass(frozen=True)
class Cell:
    """One member of a partition of O at a fixed scale.

    Over Q_p the index is the residue i of the coset i + p^s O; over R it
    is j for [j*delta, (j+1)*delta); over C it is the pair (j, k).
    """

    field: FieldSpec
    scale: Scale
    index: int | tuple[int, int]

    def __post_init__(self):
        k = self.field.kind
        if k is FieldKind.PADIC:
            _check_scale(self.field, self.scale)
            m = self.field.prime ** self.scale.exponent
            if not isinstance(self.index, int) or not 0 <= self.index < m:
                raise ValueError(f"index must be a residue in [0, {m})")
        elif k is FieldKind.REAL:
            m = int(1 / self.scale.delta)
            if not isinstance(self.index, int) or not 0 <= self.index < m:
                raise ValueError(f"index must lie in [0, {m})")
        else:
            m = int(1 / self.scale.delta)
            if (not isinstance(self.index, tuple) or len(self.index) != 2
                    or not all(isinstance(j, int) and 0 <= j < m for j in self.index)):
                raise ValueError("complex cells take an index pair (j, k)")


@dataclass(frozen=True)
class CellTuple:
    """An ordered n-tuple of cells of one field and scale, n >= 2, by index."""

    field: FieldSpec
    scale: Scale
    indices: tuple

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(self.indices))  # hashable, as members are
        if len(self.indices) < 2:
            raise ValueError("cell tuples have length n >= 2")
        for i in self.indices:
            Cell(self.field, self.scale, i)  # Cell's checks of the index

    @property
    def n(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class PAdicApprox:
    """The coset residue + p^precision O: a finite-precision element of Z_p."""

    residue: int
    precision: int

    def __post_init__(self):
        if self.precision < 1:
            raise ValueError("precision must be positive")
        if not 0 <= self.residue:
            raise ValueError("residue must be nonnegative")


def _check_scale(field: FieldSpec, scale: Scale):
    if field.kind is FieldKind.PADIC:
        delta = scale.delta  # in lowest terms: 1/p^s is numerator 1 over p^s
        if delta.numerator != 1 or delta.denominator != field.prime ** scale.exponent:
            raise ValueError("scale delta does not match p^{-s} for this field")
    else:
        if scale.delta.numerator != 1:
            raise ValueError("Archimedean scales are 1/R for a positive integer R")


def partition(field: FieldSpec, scale: Scale) -> list[Cell]:
    """The partition of O into balls/intervals of radius scale.delta."""
    _check_scale(field, scale)
    if field.kind is FieldKind.PADIC:
        count = field.prime ** scale.exponent
        return [Cell(field, scale, i) for i in range(count)]
    count = scale.delta.denominator
    if field.kind is FieldKind.REAL:
        return [Cell(field, scale, j) for j in range(count)]
    return [Cell(field, scale, (j, k)) for j in range(count) for k in range(count)]


def padic_valuation(x: Fraction, p: int) -> int:
    """v_p(x) for nonzero rational x."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("valuation of zero is +infinity")
    v, num = 0, abs(x.numerator)
    while num % p == 0:
        num //= p
        v += 1
    den = x.denominator
    while den % p == 0:
        den //= p
        v -= 1
    return v


def padic_fractional_part(x: Fraction, p: int) -> Fraction:
    """The p-adic fractional part {x}_p in [0, 1) with x - {x}_p in Z_(p).

    Defined for rationals whose denominator is a power of p; additive
    modulo 1, and zero exactly when x has no p in its denominator.
    """
    x = Fraction(x)
    den = x.denominator
    k = 0
    while den % p == 0:
        den //= p
        k += 1
    if den != 1:
        raise ValueError(f"denominator of {x} is not a power of {p}")
    q = p ** k
    return Fraction(x.numerator % q, q)


def character(field: FieldSpec, x) -> complex:
    """The standard additive character e(x), a complex number of modulus 1.

    Over Q_p: e(x) = exp(2*pi*i*{x}_p), so e is 1 on O and nontrivial on
    (1/p)Z.  Over R: e(t) = exp(-2*pi*i*t).  Over C (z = x + iy):
    e(z) = exp(-2*pi*i*x).
    """
    if field.kind is FieldKind.PADIC:
        frac = padic_fractional_part(Fraction(x), field.prime)
        return cmath.exp(2j * cmath.pi * frac)
    if field.kind is FieldKind.COMPLEX:
        t = x.real if isinstance(x, complex) else float(x)
        return cmath.exp(-2j * cmath.pi * t)
    return cmath.exp(-2j * cmath.pi * float(x))


def abs_value(field: FieldSpec, x):
    """The normalized absolute value; tuples take the max over coordinates.

    Exact (a Fraction) for rational input over Q_p and R; |x+iy| over C is
    max(|x|, |y|).
    """
    if isinstance(x, (tuple, list)):
        if not x:
            raise ValueError("empty tuple")
        return max(abs_value(field, c) for c in x)
    if field.kind is FieldKind.PADIC:
        x = Fraction(x)
        if x == 0:
            return Fraction(0)
        v = padic_valuation(x, field.prime)
        return Fraction(1, field.prime ** v) if v >= 0 else Fraction(field.prime ** (-v))
    if field.kind is FieldKind.COMPLEX:
        if isinstance(x, complex):
            return max(abs(x.real), abs(x.imag))
        return abs(x)
    return abs(x)


def cell_representatives(cell: Cell, target_precision: int) -> list[PAdicApprox]:
    """All residues mod p^m lying in a p-adic cell at scale p^{-s}, m >= s."""
    if cell.field.kind is not FieldKind.PADIC:
        raise ValueError("representatives are defined for p-adic cells only")
    s = cell.scale.exponent
    if target_precision < s:
        raise ValueError(f"target precision {target_precision} below cell scale {s}")
    p = cell.field.prime
    step = p ** s
    count = p ** (target_precision - s)
    return [PAdicApprox(cell.index + j * step, target_precision) for j in range(count)]


def cell_tuple(field: FieldSpec, scale: Scale, indices) -> CellTuple:
    """Convenience constructor from raw indices."""
    return CellTuple(field, scale, indices)
