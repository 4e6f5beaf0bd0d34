"""Permutations of {1..n} and conjugacy-class arithmetic in symmetric groups.

Points are 1-based throughout.  A permutation is stored in one-line image
form; cycle types double as conjugacy-class identifiers.  A cycle type is
stored as its (length, multiplicity) pairs, longest first, so its size is
the number of distinct cycle lengths, not n, and the order of the stored
pairs is the canonical class order.  All counts are exact Python integers.
``centralizer_order`` holds the rule for the centralizer order z_λ, and
``class_size`` reads it.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from math import factorial
from typing import Iterable, Mapping


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


@dataclass(frozen=True, order=True)
class CycleType:
    """The class identifier 1^λ1 2^λ2 ... n^λn of S_n.

    ``cycles`` holds one (i, λ_i) pair per cycle length i present, longest
    first; fixed points are explicit 1-cycles, so sum(i * λ_i) == n.  Within
    one n, the generated ``<`` is the canonical class order: at the first
    pair where two types differ, the one with the longer length, or with
    more cycles of the same length, has the larger descending part tuple.
    """

    n: int
    cycles: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        total, previous = 0, self.n + 1
        for length, mult in self.cycles:
            if not 1 <= length < previous or mult < 1:
                raise ValueError(f"need positive counts of falling lengths: {self.cycles!r}")
            total += length * mult
            previous = length
        if total != self.n:
            raise ValueError(f"parts sum to {total}, expected {self.n}")

    @classmethod
    def from_parts(cls, parts: Iterable[int]) -> "CycleType":
        parts = list(parts)
        if not parts or any(p < 1 for p in parts):
            raise ValueError(f"parts must be positive integers: {parts!r}")
        return _counted_cycle_type(Counter(parts))

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
        return _counted_cycle_type(mults)

    def __str__(self) -> str:
        return " ".join([f"{i}^{m}" for i, m in reversed(self.cycles)])


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
    counts = [0] * (p.n + 1)  # counts[i] is the number of i-cycles
    for cycle in cycle_decomposition(p):
        counts[len(cycle)] += 1
    return _trusted_cycle_type(p.n, tuple([(i, counts[i]) for i in range(p.n, 0, -1) if counts[i]]))


def class_size(lam: CycleType) -> int:
    """Number of permutations of cycle type lam: n! / centralizer_order(lam)."""
    return factorial(lam.n) // centralizer_order(lam)


def centralizer_order(lam: CycleType) -> int:
    """Order z_λ of the centralizer of any permutation of cycle type lam.

    The centralizer is the direct product of the wreath products C_i wr S_λi
    over the cycle lengths i present in lam, so z_λ = prod λ_i! · i^λ_i.
    """
    order = 1
    for i, m in lam.cycles:
        order *= factorial(m) * i**m
    return order


# Largest n that enumerate_cycle_types lists: S_45 has p(45) = 89,134 classes
# (listed in 0.4 s on a 2.1 GHz Xeon).  S_90's 56,634,173 would take hours.
MAX_CLASS_LIST_N = 45


class ClassListTooLargeError(InputError, ValueError):
    """n is past MAX_CLASS_LIST_N: S_n has too many classes to list."""


def _trusted_cycle_type(n: int, cycles: tuple[tuple[int, int], ...]) -> CycleType:
    """A CycleType built without __post_init__, for the (length,
    multiplicity) pairs that enumerate_cycle_types and cycle_type count out
    themselves, already longest first."""
    lam = object.__new__(CycleType)
    object.__setattr__(lam, "n", n)
    object.__setattr__(lam, "cycles", cycles)
    return lam


# Largest degree n of a cycle type that CycleType.parse and from_parts build.
# A class holds only the cycle lengths present, so `count` builds nothing of
# size n: on a 2-core Xeon VM `count N --ramification '1^N:2'` took 0.10 s
# and 17 MB of peak RSS at both N = 10^6 and N = 10^7.  The limit is held by
# reps, which builds the n-point base point of each support class:
# `reps N --ramification '1^N:2' --limit 3` took 2.3 s and 254 MB at
# N = 10^6 and 22 s and 2.4 GB at N = 10^7, so 10^6 keeps every command
# within a few seconds and a few hundred MB.
MAX_CYCLE_TYPE_N = 10**6


def _counted_cycle_type(mults: Mapping[int, int]) -> CycleType:
    """The cycle type with mults[i] cycles of each positive length i.  Its
    degree Σ i·mults[i] is summed first: past MAX_CYCLE_TYPE_N it raises
    ValueError before the class is built."""
    n = sum([length * mult for length, mult in mults.items()])
    if n > MAX_CYCLE_TYPE_N:
        raise ValueError(f"a cycle type of degree {n} is over the limit of {MAX_CYCLE_TYPE_N}")
    return CycleType(n, tuple(sorted(mults.items(), reverse=True)))


def enumerate_cycle_types(n: int) -> list[CycleType]:
    """All cycle types of S_n in canonical order: descending lexicographic on
    the descending part tuple, so for n=4 4^1, 1^1 3^1, 2^2, 1^2 2^1, 1^4.
    Every table and enumeration in this package uses this order.

    One loop runs the successor step of Knuth's Algorithm P (TAOCP 7.2.1.4)
    in place on a list of (length, multiplicity) pairs, longest first: one
    cycle of the smallest length x > 1 and all fixed points become as many
    (x-1)-cycles as fit plus one cycle of the remainder.  x and the fixed
    points sit at the end of the list, so a step pops at most two pairs,
    pushes at most three and copies the list once; there is no recursion,
    hence no depth limit.  The pairs stay strictly decreasing, sum to n and
    are distinct by construction, so no CycleType is checked again.
    n > MAX_CLASS_LIST_N raises ClassListTooLargeError at once.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n > MAX_CLASS_LIST_N:
        raise ClassListTooLargeError(f"S_{n} has too many classes to list (n <= {MAX_CLASS_LIST_N})")
    pairs = [(n, 1)]  # (length, multiplicity), longest first
    classes = []
    while True:
        classes.append(_trusted_cycle_type(n, tuple(pairs)))
        fixed = pairs.pop()[1] if pairs[-1][0] == 1 else 0
        if not pairs:  # 1^n, the last class
            return classes
        low, mult = pairs.pop()
        if mult > 1:
            pairs.append((low, mult - 1))
        copies, remainder = divmod(fixed + low, low - 1)
        pairs.append((low - 1, copies))
        if remainder:
            pairs.append((remainder, 1))


def canonical_representative(lam: CycleType) -> Permutation:
    """Deterministic base point of the class: cycles of ascending length packed
    onto consecutive points starting at 1, each mapping p to p+1 cyclically."""
    cycles = []
    next_point = 1
    for length, mult in reversed(lam.cycles):
        for _ in range(mult):
            cycles.append(range(next_point, next_point + length))
            next_point += length
    return Permutation.from_cycles(lam.n, cycles)
