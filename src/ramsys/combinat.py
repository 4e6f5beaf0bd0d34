"""Exact integer combinatorics: Stirling numbers, multiset coefficients, weak compositions."""

from __future__ import annotations

import threading
from math import comb
from typing import Iterator


class StirlingTable:
    """Triangular table of unsigned Stirling numbers of the first kind.

    Row n holds s(n, k) for k = 0..n, grown lazily through the recurrence
    s(n+1, k) = s(n, k-1) + n·s(n, k).  Growth is lock-guarded so concurrent
    callers always read correct values.
    """

    def __init__(self, n_max: int = 1):
        self._rows: list[list[int]] = [[1]]  # s(0, 0) = 1
        self._lock = threading.Lock()
        self._grow(n_max)

    @property
    def n_max(self) -> int:
        return len(self._rows) - 1

    def _grow(self, n: int) -> None:
        with self._lock:
            while len(self._rows) <= n:
                m = len(self._rows) - 1
                prev = self._rows[-1]
                row = [0] * (m + 2)
                for k in range(1, m + 2):
                    row[k] = prev[k - 1] + m * (prev[k] if k <= m else 0)
                self._rows.append(row)

    def value(self, n: int, k: int) -> int:
        if n < 1 or not 1 <= k <= n:
            raise ValueError(f"stirling_first needs 1 <= k <= n, got n={n}, k={k}")
        if n > self.n_max:
            self._grow(n)
        return self._rows[n][k]


_TABLE = StirlingTable()


def stirling_first(n: int, k: int) -> int:
    """Unsigned 1st Stirling number: permutations of n letters with exactly k cycles.

    Equivalently, (-1)^(n-k)·s(n, k) is the coefficient of x^k in the falling
    factorial x(x-1)···(x-n+1).
    """
    return _TABLE.value(n, k)


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
