"""Abelianizations of centralizers in S_n.

The abelianization of the centralizer of a permutation is a product of small
cyclic groups whose order γ depends only on the cycle type; γ is the number
of one-dimensional characters of the centralizer.  ``abelianization_invariants``
is the one place that states the rule for the cyclic factors; ``gamma``
reads it.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod

from .perm import CycleType


def abelianization_invariants(lam: CycleType) -> tuple[int, ...]:
    """Cyclic factors of the abelianized centralizer of the class lam; their
    product is γ.

    The centralizer is the direct product of the wreath products C_i wr S_λi
    over the cycle lengths i present in lam.  Each length contributes C_i
    when λ_i = 1 and C_i × C_2 when λ_i >= 2; the factors come in ascending
    i, each C_i before its C_2, with trivial factors (i = 1) dropped.  Only
    which lengths occur and whether they repeat matters, so no factorial is
    taken.
    """
    factors = []
    for i, m in reversed(lam.cycles):
        if i > 1:
            factors.append(i)
        if m > 1:
            factors.append(2)
    return tuple(factors)


@lru_cache(maxsize=None)
def gamma(lam: CycleType) -> int:
    """Number of one-dimensional characters of the centralizer of the class:
    the order of its abelianization, the product of its cyclic factors."""
    return prod(abelianization_invariants(lam))
