"""Abelianizations of centralizers in S_n.

The abelianization of the centralizer of a permutation is a product of small
cyclic groups whose order γ depends only on the cycle type; γ is the number
of one-dimensional characters of the centralizer.  ``_factors`` is the one
place that states the rule for the cyclic factors; ``abelianization_invariants``
and ``gamma`` read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, count
from math import prod

from .perm import CycleType


def _factors(lam: CycleType) -> tuple[int, ...]:
    """Cyclic factors of the abelianized centralizer of the class lam.

    The centralizer is the direct product of the wreath products C_i wr S_λi
    over the cycle lengths i present in lam.  Each length contributes C_i
    when λ_i = 1 and C_i × C_2 when λ_i >= 2; the factors come in ascending
    i, each C_i before its C_2, with trivial factors (i = 1) dropped.  Only
    which lengths occur and whether they repeat matters, so no factorial is
    taken.
    """
    counts = lam.multiplicities
    factors = []
    for i in compress(count(1), counts):
        if i > 1:
            factors.append(i)
        if counts[i - 1] > 1:
            factors.append(2)
    return tuple(factors)


@dataclass(frozen=True)
class AbelianInvariants:
    """Cyclic factors of the abelianized centralizer, in the order
    ``_factors`` gives them; the product of the factors is γ."""

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.factors and min(self.factors) < 2:
            raise ValueError("factors must all be >= 2")

    def order(self) -> int:
        return prod(self.factors)

    def __str__(self) -> str:
        return "x".join(map(str, self.factors)) if self.factors else "1"


def abelianization_invariants(lam: CycleType) -> AbelianInvariants:
    return AbelianInvariants(_factors(lam))


@lru_cache(maxsize=None)
def gamma(lam: CycleType) -> int:
    """Number of one-dimensional characters of the centralizer of the class:
    the order of its abelianization, the product of the factors that
    ``_factors`` gives."""
    return prod(_factors(lam))
