"""Conjugacy-class arithmetic in symmetric groups, and the text layout of
each class's base point u0.

Points are 1-based throughout; cycle types are the conjugacy-class
identifiers.  A cycle type is stored as its (length, multiplicity) pairs,
longest first, so its size is the number of distinct cycle lengths, not n,
and the order of the stored pairs is the canonical class order.  All counts
are exact Python integers.
``walk_cycle_types`` lists the classes of S_n by Algorithm P, and says for
each class how many leading pairs it keeps from the class before it, so a
caller can update per-class values from the pairs that changed;
``enumerate_cycle_types`` makes the same classes as ``CycleType``s.
``centralizer_order`` holds the rule for the centralizer order z_λ, and
``class_size`` reads it.  u0's cycle notation is laid out from the pairs,
at the cost of its text; no permutation is made here.
"""

from __future__ import annotations

import sys
from collections import Counter, namedtuple
from math import factorial
from typing import Iterable, Iterator, Mapping


class InputError(Exception):
    """Base of every refusal of input the library cannot serve: a class list
    too long, S_6, a malformed spec, oracle work past its budget.  The CLI
    turns exactly these into exit 2; any other exception is an internal
    failure and keeps its traceback."""


class UnsupportedGroupError(InputError, ValueError):
    """Raised for a group a path does not serve: S_6 for the count, where the
    counting hypothesis fails, and S_n past ``ORACLE_MAX_N`` for the oracle."""


def _natural(text: str) -> int:
    """The number that text writes in ASCII digits alone, the one rule for a
    number in a spec or an argument, or -1 for any other text, where int()
    would also take blanks, a sign, underscores or another script's digits;
    the caller range-checks the value and words its own refusal.  Past
    int()'s digit limit it raises ValueError, before int()."""
    if not (text.isascii() and text.isdigit()):
        return -1
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit and len(text) > limit:
        raise ValueError(
            f"number too long: {_echo(text)!r} has {len(text)} digits, over the limit of {limit}"
        )
    return int(text)


# Characters of a token that an error message quotes; a longer one is cut to
# this prefix and an ellipsis.
_ECHO_CHARS = 40


def _echo(text: str) -> str:
    return text if len(text) <= _ECHO_CHARS else text[:_ECHO_CHARS] + "…"


class CycleType(namedtuple("CycleType", "n cycles")):
    """The class identifier 1^λ1 2^λ2 ... n^λn of S_n.

    ``cycles`` holds one (i, λ_i) pair per cycle length i present, longest
    first; fixed points are explicit 1-cycles, so sum(i * λ_i) == n.  Within
    one n, ``<`` on the (n, cycles) tuple is the canonical class order: at
    the first pair where two types differ, the one with the longer length,
    or with more cycles of the same length, has the larger descending part
    tuple.
    """

    __slots__ = ()

    def __new__(cls, n: int, cycles: tuple[tuple[int, int], ...]) -> "CycleType":
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        total, previous = 0, n + 1
        for length, mult in cycles:
            if not 1 <= length < previous or mult < 1:
                raise ValueError(f"need positive counts of falling lengths: {cycles!r}")
            total += length * mult
            previous = length
        if total != n:
            raise ValueError(f"parts sum to {total}, expected {n}")
        return tuple.__new__(cls, (n, cycles))

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
                raise ValueError(f"unterminated part list: {_echo(text)!r}")
            body = text[1:-1].strip()
            if not body:
                raise ValueError("empty part list")
            parts = [_natural(tok.strip()) for tok in body.split(",")]
            if -1 in parts:
                raise ValueError(f"bad part list: {_echo(text)!r}")
            return cls.from_parts(parts)
        mults: dict[int, int] = {}  # cycle length -> multiplicity
        for token in text.split():
            length_text, _, mult_text = token.partition("^")
            length, mult = _natural(length_text), _natural(mult_text)
            if length < 1 or mult < 1:
                raise ValueError(f"bad cycle-type token: {_echo(token)!r}")
            if length in mults:
                raise ValueError(f"repeated cycle length {_echo(length_text)} in {_echo(text)!r}")
            mults[length] = mult
        return _counted_cycle_type(mults)

    def __str__(self) -> str:
        return " ".join([f"{i}^{m}" for i, m in reversed(self.cycles)])


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
# (`ramsys classes 45` takes 0.66 s, median of 7, on a 2-core Xeon VM).  S_90's
# 56,634,173 would take hours.
MAX_CLASS_LIST_N = 45


class ClassListTooLargeError(InputError, ValueError):
    """n is past MAX_CLASS_LIST_N: S_n has too many classes to list."""


def _trusted_cycle_type(n: int, cycles: tuple[tuple[int, int], ...]) -> CycleType:
    """A CycleType built without the constructor's check, for (length,
    multiplicity) pairs the library has counted out or checked itself,
    longest first: the walk's, and those of parse and from_parts."""
    return tuple.__new__(CycleType, (n, cycles))


def _counted_cycle_type(mults: Mapping[int, int]) -> CycleType:
    """The cycle type with mults[i] >= 1 cycles of each length i >= 1, which
    the caller has checked, built unchecked at any degree Σ i·mults[i]."""
    n = sum([length * mult for length, mult in mults.items()])
    return _trusted_cycle_type(n, tuple(sorted(mults.items(), reverse=True)))


def walk_cycle_types(n: int) -> Iterator[tuple[int, tuple[tuple[int, int], ...]]]:
    """All cycle types of S_n in canonical order, as (kept, pairs): ``pairs``
    are the class's (length, multiplicity) pairs, longest first, and
    ``pairs[:kept]`` are the first ``kept`` pairs of the class before it (0
    for the first class).  The order is descending lexicographic on the
    descending part tuple, so for n=4 4^1, 1^1 3^1, 2^2, 1^2 2^1, 1^4.
    Every table and enumeration in this package uses this order.

    One loop runs the successor step of Knuth's Algorithm P (TAOCP 7.2.1.4)
    in place on a list of (length, multiplicity) pairs, longest first: one
    cycle of the smallest length x > 1 and all fixed points become as many
    (x-1)-cycles as fit plus one cycle of the remainder.  x and the fixed
    points sit at the end of the list, so a step pops at most two pairs,
    keeps the rest, pushes at most three and copies the list once; there is
    no recursion, hence no depth limit.  The pairs stay strictly decreasing,
    sum to n and are distinct by construction, so no CycleType need check
    them again.  The bounds are checked at the call: n > MAX_CLASS_LIST_N
    raises ClassListTooLargeError before any class is made.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n > MAX_CLASS_LIST_N:
        raise ClassListTooLargeError(f"S_{n} has too many classes to list (n <= {MAX_CLASS_LIST_N})")
    return _algorithm_p(n)


def _algorithm_p(n: int) -> Iterator[tuple[int, tuple[tuple[int, int], ...]]]:
    pairs = [(n, 1)]  # (length, multiplicity), longest first
    kept = 0
    while True:
        yield kept, tuple(pairs)
        fixed = pairs.pop()[1] if pairs[-1][0] == 1 else 0
        if not pairs:  # 1^n, the last class
            return
        low, mult = pairs.pop()
        kept = len(pairs)
        if mult > 1:
            pairs.append((low, mult - 1))
        copies, remainder = divmod(fixed + low, low - 1)
        pairs.append((low - 1, copies))
        if remainder:
            pairs.append((remainder, 1))


def enumerate_cycle_types(n: int) -> list[CycleType]:
    """The classes of walk_cycle_types(n) as CycleTypes, in its order."""
    return [_trusted_cycle_type(n, pairs) for _, pairs in walk_cycle_types(n)]


_TEXT_BATCH = 4096


def canonical_cycle_pieces(lam: CycleType) -> Iterator[str]:
    """The cycle notation of lam's base point u0, its smallest member by
    image tuple, at the cost of its text, as a stream of pieces whose join
    is that text.  u0 has cycles of ascending length on consecutive points
    from 1, each mapping p to p+1 cyclically, so each run of equal cycles is
    a range of points; the fixed points come first and are skipped in one
    step.  Each piece holds at most _TEXT_BATCH points: whole short cycles
    by one %-template, or a slice of a longer cycle after its "(" or a
    space, that cycle's ")" its own piece.
    So a text of millions of points is never held as a str per point, nor
    whole: the `reps` header, which writes the pieces as they come, peaks
    at 17 MB of RSS for u0 of [4194304], a 32 MB text (subprocess, 2-core
    Xeon VM)."""
    if lam.cycles[0][0] == 1:  # only fixed points
        yield "()"
    first = 1
    for length, mult in reversed(lam.cycles):
        run = range(first, first + length * mult)
        first = run.stop
        if length == 1:
            continue
        if length > _TEXT_BATCH:
            for cycle in (run[k : k + length] for k in range(0, len(run), length)):
                for j in range(0, length, _TEXT_BATCH):
                    yield ("(" if j == 0 else " ") + " ".join(map(str, cycle[j : j + _TEXT_BATCH]))
                yield ")"
        else:
            template = "(" + "%d " * (length - 1) + "%d)"
            step = _TEXT_BATCH // length * length
            for k in range(0, len(run), step):
                batch = run[k : k + step]
                yield template * (len(batch) // length) % tuple(batch)
