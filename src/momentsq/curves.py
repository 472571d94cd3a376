"""Polynomial curves gamma : O -> K^n with exact rational coefficients."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import polys
from .polys import Poly


@dataclass(frozen=True)
class Curve:
    coords: tuple[Poly, ...]

    def __post_init__(self):
        if len(self.coords) < 2:
            raise ValueError("curves have dimension n >= 2")

    @property
    def n(self) -> int:
        return len(self.coords)

    @classmethod
    def moment(cls, n: int) -> "Curve":
        """gamma(T) = (T, T^2, ..., T^n)."""
        return cls(tuple(polys.monomial(i) for i in range(1, n + 1)))

    @property
    def is_moment(self) -> bool:
        return all(c == polys.monomial(i + 1) for i, c in enumerate(self.coords))

    def evaluate(self, t) -> tuple[Fraction, ...]:
        t = Fraction(t)
        return tuple(polys.evaluate(c, t) for c in self.coords)

    def degrees(self) -> tuple[int, ...]:
        return tuple(polys.degree(c) for c in self.coords)

    def monomial_count(self) -> int:
        """Total number of monomials (nonzero coefficients) across coordinates."""
        return sum(sum(1 for a in c if a != 0) for c in self.coords)
