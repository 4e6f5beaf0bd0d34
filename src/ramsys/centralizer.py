"""Abelianizations of centralizers in S_n.

The abelianization of the centralizer of a permutation is a product of small
cyclic groups whose order γ depends only on the cycle type; γ is the number
of one-dimensional characters of the centralizer.  The cyclic factors come
from ``perm.class_invariants``, the one place that states the centralizer's
structure and their rule; ``abelianization_invariants`` and ``gamma`` read
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod

from .perm import CycleType, class_invariants


@dataclass(frozen=True)
class AbelianInvariants:
    """Cyclic factors of the abelianized centralizer, in the order
    ``perm.class_invariants`` gives them; the product of the factors is γ."""

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.factors and min(self.factors) < 2:
            raise ValueError("factors must all be >= 2")

    def order(self) -> int:
        return prod(self.factors)

    def __str__(self) -> str:
        return "x".join(map(str, self.factors)) if self.factors else "1"


def abelianization_invariants(lam: CycleType) -> AbelianInvariants:
    return AbelianInvariants(class_invariants(lam)[1])


@lru_cache(maxsize=None)
def gamma(lam: CycleType) -> int:
    """Number of one-dimensional characters of the centralizer of the class:
    the order of its abelianization, the product of the factors that
    ``perm.class_invariants`` gives."""
    return prod(class_invariants(lam)[1])
