"""Permutations of {1..n} and conjugacy-class arithmetic in symmetric groups.

Points are 1-based throughout.  A permutation is stored in one-line image
form; cycle types double as conjugacy-class identifiers.  All counts are
exact Python integers.  ``centralizer_order`` holds the rule for the
centralizer order z_λ, and ``class_size`` reads it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import compress, count
from math import factorial
from operator import mul
from typing import Collection, Iterable


class InputError(Exception):
    """Base of every refusal of input the library cannot serve: a class list
    too long, S_6, a malformed spec, oracle work past its budget.  The CLI
    turns exactly these into exit 2; any other exception is an internal
    failure and keeps its traceback."""


class UnsupportedGroupError(InputError, ValueError):
    """Raised for a group a path does not serve: S_6 for the count, where the
    counting hypothesis fails, and S_n past ``ORACLE_MAX_N`` for the oracle."""


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1..n}; ``images[i - 1]`` is the image of point ``i``."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"images {self.images!r} are not a bijection of 1..{n}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Iterable[int]]) -> "Permutation":
        """Build a permutation of {1..n} from disjoint cycles; omitted points stay fixed."""
        images = list(range(1, n + 1))
        seen: set[int] = set()
        for cycle in cycles:
            points = list(cycle)
            if not points:
                raise ValueError("cycles must be non-empty")
            for point in points:
                if not 1 <= point <= n:
                    raise ValueError(f"point {point} outside 1..{n}")
                if point in seen:
                    raise ValueError(f"point {point} appears in two cycles")
                seen.add(point)
            for src, dst in zip(points, points[1:] + points[:1]):
                images[src - 1] = dst
        return cls(tuple(images))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point - 1]

    def __str__(self) -> str:
        return cycle_string(self)


_TYPE_TOKEN = re.compile(r"^(\d+)\^(\d+)$")


@dataclass(frozen=True)
class CycleType:
    """The class identifier 1^λ1 2^λ2 ... n^λn; ``multiplicities[i - 1]`` counts i-cycles.

    Fixed points are explicit 1-cycles, so sum(i * λ_i) == n.
    """

    n: int
    multiplicities: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1 or len(self.multiplicities) != self.n:
            raise ValueError(f"need exactly n={self.n} multiplicities")
        if any(m < 0 for m in self.multiplicities):
            raise ValueError("multiplicities must be non-negative")
        total = sum(i * m for i, m in enumerate(self.multiplicities, start=1))
        if total != self.n:
            raise ValueError(f"parts sum to {total}, expected {self.n}")

    @classmethod
    def from_parts(cls, parts: Iterable[int]) -> "CycleType":
        parts = list(parts)
        if not parts or any(p < 1 for p in parts):
            raise ValueError(f"parts must be positive integers: {parts!r}")
        return _counted_cycle_type(parts, [1] * len(parts))

    @classmethod
    def parse(cls, text: str) -> "CycleType":
        """Parse either the `i^m` token form (`1^1 2^2`) or a part list (`[2,2,1]`)."""
        text = text.strip()
        if not text:
            raise ValueError("empty cycle-type string")
        if text.startswith("["):
            if not text.endswith("]"):
                raise ValueError(f"unterminated part list: {text!r}")
            body = text[1:-1].strip()
            if not body:
                raise ValueError("empty part list")
            try:
                parts = [int(tok) for tok in body.split(",")]
            except ValueError:
                raise ValueError(f"bad part list: {text!r}") from None
            return cls.from_parts(parts)
        mults: dict[int, int] = {}  # cycle length -> multiplicity
        for token in text.split():
            match = _TYPE_TOKEN.match(token)
            if match is None:
                raise ValueError(f"bad cycle-type token: {token!r}")
            length, mult = int(match.group(1)), int(match.group(2))
            if length < 1 or mult < 1:
                raise ValueError(f"bad cycle-type token: {token!r}")
            if length in mults:
                raise ValueError(f"repeated cycle length {length} in {text!r}")
            mults[length] = mult
        return _counted_cycle_type(mults.keys(), mults.values())

    def parts(self) -> tuple[int, ...]:
        """Parts in descending order, e.g. (3, 1) for 1^1 3^1."""
        out: list[int] = []
        for i in range(self.n, 0, -1):
            out.extend([i] * self.multiplicities[i - 1])
        return tuple(out)

    def __str__(self) -> str:
        counts = self.multiplicities
        return " ".join([f"{i}^{counts[i - 1]}" for i in compress(count(1), counts)])


def _trusted_permutation(images: tuple[int, ...]) -> Permutation:
    """A Permutation built without __post_init__, for image tuples already
    known to be bijections: the base points the oracle's class walk reaches
    and the points ``oracle.class_points`` builds."""
    p = object.__new__(Permutation)
    object.__setattr__(p, "images", images)
    return p


def cycle_decomposition(p: Permutation) -> list[tuple[int, ...]]:
    """Disjoint cycles of p as point tuples, fixed points included as 1-cycles.

    One pass over the images: cycles are ordered by smallest contained point
    and start at it, so ``cycle[j]`` is the j-th forward image of its anchor.
    """
    images = p.images
    seen = [False] * (len(images) + 1)
    cycles = []
    for start in range(1, len(images) + 1):
        if seen[start]:
            continue
        cycle = [start]
        point = images[start - 1]
        while point != start:
            seen[point] = True
            cycle.append(point)
            point = images[point - 1]
        cycles.append(tuple(cycle))
    return cycles


def cycle_string(p: Permutation) -> str:
    """Cycle notation without fixed points, e.g. ``(1 2)(4 5)``; the identity
    renders as ``()``."""
    cycles = [c for c in cycle_decomposition(p) if len(c) > 1]
    return "".join(["(" + " ".join(map(str, c)) + ")" for c in cycles]) or "()"


def cycle_type(p: Permutation) -> CycleType:
    """The cycle lengths of p, counted over cycle_decomposition."""
    if not p.n:
        raise ValueError("the empty permutation has no cycle type")
    counts = [0] * p.n
    for cycle in cycle_decomposition(p):
        counts[len(cycle) - 1] += 1
    return _trusted_cycle_type(p.n, tuple(counts))


def class_size(lam: CycleType) -> int:
    """Number of permutations of cycle type lam: n! / centralizer_order(lam)."""
    return factorial(lam.n) // centralizer_order(lam)


def centralizer_order(lam: CycleType) -> int:
    """Order z_λ of the centralizer of any permutation of cycle type lam.

    The centralizer is the direct product of the wreath products C_i wr S_λi
    over the cycle lengths i present in lam, so z_λ = prod λ_i! · i^λ_i.
    """
    counts = lam.multiplicities
    order = 1
    for i in compress(count(1), counts):
        m = counts[i - 1]
        order *= factorial(m) * i**m
    return order


# Largest n that enumerate_cycle_types lists: S_45 has p(45) = 89,134 classes
# (listed in 0.4 s on a 2.1 GHz Xeon).  S_90's 56,634,173 would take hours.
MAX_CLASS_LIST_N = 45


class ClassListTooLargeError(InputError, ValueError):
    """n is past MAX_CLASS_LIST_N: S_n has too many classes to list."""


def _trusted_cycle_type(n: int, multiplicities: tuple[int, ...]) -> CycleType:
    """A CycleType built without __post_init__, for the vectors that
    enumerate_cycle_types and cycle_type count out themselves."""
    lam = object.__new__(CycleType)
    object.__setattr__(lam, "n", n)
    object.__setattr__(lam, "multiplicities", multiplicities)
    return lam


# Largest degree n of a cycle type that CycleType.parse and from_parts build:
# a class holds n multiplicities, and reps builds its n-point base point.  On
# a 2-core Xeon VM, `reps N --ramification '1^N:2' --limit 3` took 2.5 s and
# 262 MB of peak RSS at N = 10^6 and 22 s and 2.4 GB at N = 10^7 (`count`:
# 0.4 s and 46 MB, 3.4 s and 245 MB), so 10^6 keeps every command within a
# few seconds and a few hundred MB.
MAX_CYCLE_TYPE_N = 10**6


def _counted_cycle_type(lengths: Collection[int], mults: Collection[int]) -> CycleType:
    """The cycle type with mults[k] cycles of the positive length lengths[k]
    (a repeated length adds up).  Its degree Σ length·mult is summed first:
    past MAX_CYCLE_TYPE_N it raises ValueError before the multiplicity
    vector is built."""
    n = sum(map(mul, lengths, mults))
    if n > MAX_CYCLE_TYPE_N:
        raise ValueError(
            f"a cycle type of degree {n} is over the limit of {MAX_CYCLE_TYPE_N}"
        )
    counts = [0] * n  # counts[i - 1] is the number of i-cycles
    for length, mult in zip(lengths, mults):
        counts[length - 1] += mult
    return CycleType(n, tuple(counts))


def enumerate_cycle_types(n: int) -> list[CycleType]:
    """All cycle types of S_n in canonical order: descending lexicographic on
    the descending part tuple, so for n=4 4^1, 1^1 3^1, 2^2, 1^2 2^1, 1^4.
    Every table and enumeration in this package uses this order.

    One loop runs the successor step of Knuth's Algorithm P (TAOCP 7.2.1.4)
    on the multiplicity vector in place: one cycle of the smallest length
    x > 1 and all fixed points become as many (x-1)-cycles as fit plus one
    cycle of the remainder.  A class costs a scan up to x, a few updates and
    one tuple copy; there is no recursion, hence no depth limit, and no part
    list.  The vectors sum to n and are distinct by construction, so no
    CycleType is checked again.  n > MAX_CLASS_LIST_N raises
    ClassListTooLargeError at once.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n > MAX_CLASS_LIST_N:
        raise ClassListTooLargeError(f"S_{n} has too many classes to list (n <= {MAX_CLASS_LIST_N})")
    counts = [0] * n  # counts[i - 1] is the number of i-cycles
    counts[n - 1] = 1
    classes = []
    while True:
        classes.append(_trusted_cycle_type(n, tuple(counts)))
        low = next((i for i in range(2, n + 1) if counts[i - 1]), None)
        if low is None:  # 1^n, the last class
            return classes
        counts[low - 1] -= 1
        copies, remainder = divmod(counts[0] + low, low - 1)
        counts[0] = 0
        counts[low - 2] += copies
        if remainder:
            counts[remainder - 1] += 1


def canonical_representative(lam: CycleType) -> Permutation:
    """Deterministic base point of the class: cycles of ascending length packed
    onto consecutive points starting at 1, each mapping p to p+1 cyclically."""
    cycles = []
    next_point = 1
    for length, mult in enumerate(lam.multiplicities, start=1):
        for _ in range(mult):
            cycles.append(range(next_point, next_point + length))
            next_point += length
    return Permutation.from_cycles(lam.n, cycles)
