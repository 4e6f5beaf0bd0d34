"""Exact integer combinatorics, as pure functions: Stirling numbers (each
row built by a loop, not memoized), multiset coefficients, weak compositions."""

from __future__ import annotations

from math import comb
from typing import Iterator


def _stirling_row(n: int) -> list[int]:
    """s(n, k) for k = 0..n through s(m+1, k) = s(m, k-1) + m·s(m, k), by a
    loop, so there is no recursion limit."""
    row = [1]  # s(0, 0)
    for m in range(n):
        row = [0] + [row[k - 1] + m * row[k] for k in range(1, m + 1)] + [1]
    return row


def stirling_first(n: int, k: int) -> int:
    """Unsigned 1st Stirling number: permutations of n letters with exactly k cycles.

    Equivalently, (-1)^(n-k)·s(n, k) is the coefficient of x^k in the falling
    factorial x(x-1)···(x-n+1).
    """
    if not 1 <= k <= n:
        raise ValueError(f"stirling_first needs 1 <= k <= n, got n={n}, k={k}")
    return _stirling_row(n)[k]


def multiset_coefficient(gamma: int, r: int) -> int:
    """Number of size-r multisets drawn from gamma symbols: C(gamma + r - 1, r)."""
    if gamma < 1:
        raise ValueError(f"gamma must be positive, got {gamma}")
    return comb(gamma + r - 1, r)


def weak_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` non-negative integers summing to `total`.

    Yielded in descending lexicographic order, from (total, 0, ..., 0) to
    (0, ..., 0, total): multiset_coefficient(parts, total) entries.  The
    stream is lazy and holds one list, which a successor step updates in
    place (Knuth, TAOCP 7.2.1.3): take one unit from entry j, the rightmost
    non-zero entry before the last, and gather it with the last entry into
    entry j + 1.  The step needs no recursion, so `parts` may be any size.
    j is kept between steps and moves left only when its entry runs out, so
    a step takes constant amortized time besides copying out the tuple.
    """
    if parts < 1:
        raise ValueError(f"parts must be positive, got {parts}")
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    current = [0] * parts
    current[0] = total
    yield tuple(current)
    last = parts - 1
    j = 0 if total and last else -1
    while j >= 0:
        current[j] -= 1
        if j + 1 < last:
            current[j + 1] = current[last] + 1
            current[last] = 0
            j += 1
        else:
            current[last] += 1
            while j >= 0 and not current[j]:
                j -= 1
        yield tuple(current)
