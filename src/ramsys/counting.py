"""Ramification data over S_n and exact isomorphism-class counts (n ≠ 6).

A ramification assigns a non-negative multiplicity r_C to every conjugacy
class C of S_n.  The number of isomorphism classes of ramification systems
with characters carrying that data is the product over the support of the
multiset coefficients C(γ_C + r_C - 1, r_C); an independent derivation sums
Stirling numbers against powers of γ_C and divides by r_C! exactly.  Each
isomorphism class is represented by one type vector per class: a weak
composition of r_C into γ_C parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat, tee
from math import factorial, log10, prod
from typing import Iterable, Iterator, Sequence

from .centralizer import gamma
from .combinat import multiset_coefficient, stirling_first, weak_compositions
from .perm import CycleType, InputError, UnsupportedGroupError, enumerate_cycle_types


def ensure_countable(n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n == 6:
        raise UnsupportedGroupError(
            "n = 6 is not supported: the count relies on the standing hypothesis "
            "n != 6 (S_6 has outer automorphisms, so not every automorphism is "
            "a conjugation)"
        )


class RamificationParseError(InputError, ValueError):
    """Malformed ramification spec; carries the character offset of the bad entry."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Ramification:
    """A formal combination sum_C r_C · C over the cycle types of S_n.

    ``entries`` lists the support only (r_C > 0), in canonical class order.
    """

    n: int
    entries: tuple[tuple[CycleType, int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        seen: set[CycleType] = set()
        for lam, mult in self.entries:
            if lam.n != self.n:
                raise ValueError(f"class {lam} is not a class of S_{self.n}")
            if mult < 0:
                raise ValueError(f"negative multiplicity {mult} for class {lam}")
            if lam in seen:
                raise ValueError(f"class {lam} listed twice")
            seen.add(lam)
        # the classes are distinct, so the pairs sort by class alone
        normalized = tuple(
            sorted(((lam, mult) for lam, mult in self.entries if mult > 0), reverse=True)
        )
        object.__setattr__(self, "entries", normalized)

    def __str__(self) -> str:
        """`class:count` entries joined by `;`, which parse_ramification reads
        back; the empty ramification is `(empty)`, which it does not."""
        return ";".join(f"{lam}:{mult}" for lam, mult in self.entries) or "(empty)"


def _listed_ramification(
    n: int, classes: Iterable[CycleType], counts: Iterable[int]
) -> Ramification:
    """r_C = counts[i] on C = classes[i], built without __post_init__.  The
    classes are distinct, of degree n and in canonical order, as
    enumerate_cycle_types(n) lists them or parse_ramification sorts them;
    the counts are non-negative, and only the zeros are dropped."""
    ram = object.__new__(Ramification)
    object.__setattr__(ram, "n", n)
    object.__setattr__(ram, "entries", tuple([(lam, r) for lam, r in zip(classes, counts) if r]))
    return ram


@dataclass(frozen=True)
class RSCTypeVector:
    """Canonical representative of one isomorphism class: per support class,
    the multiplicities with which each of the γ_C characters is used;
    ``text`` is its printed line, `(a,b,...)` per class joined by spaces."""

    entries: tuple[tuple[CycleType, tuple[int, ...]], ...]
    text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for lam, composition in self.entries:
            if len(composition) != gamma(lam):
                raise ValueError(
                    f"class {lam} needs a tuple of length {gamma(lam)}, got {len(composition)}"
                )
            if any(part < 0 for part in composition):
                raise ValueError(f"negative entry in composition for class {lam}")
        self.__dict__["text"] = " ".join([_format_composition(c) for _, c in self.entries])

    def __str__(self) -> str:
        return self.text


def _format_composition(composition: tuple[int, ...]) -> str:
    # the tuple's repr without spaces, and without the comma of a 1-tuple
    return repr(composition).replace(" ", "").replace(",)", ")")


def count_rsc(ram: Ramification) -> int:
    """Number of isomorphism classes with ramification ram: the product over
    the support of C(γ_C + r_C - 1, r_C).  Empty support counts 1."""
    ensure_countable(ram.n)
    return _count_and_factors([(gamma(lam), mult) for lam, mult in ram.entries])[0]


def _count_and_factors(
    shapes: Sequence[tuple[int, int]],
) -> tuple[int, dict[tuple[int, int], int]]:
    """The count ∏ C(γ + r - 1, r) over shapes (γ, r), one per support
    class, and the factor C(γ + r - 1, r) of each distinct shape, computed
    once however many classes share it.  The factors are multiplied by a
    product tree: a running product is quadratic in the size of the result,
    so runs of 32 small factors are multiplied first and their products then
    pairwise in rounds, keeping operands of similar size.  (Grouping equal
    factors into powers first measured no faster, at S_45 all:1 or all:2.)"""
    factors = dict.fromkeys(shapes)
    for shape in factors:
        factors[shape] = multiset_coefficient(*shape)
    values = list(map(factors.__getitem__, shapes))
    products = [prod(values[i : i + 32]) for i in range(0, len(values), 32)]
    while len(products) > 1:
        products = [prod(products[i : i + 2]) for i in range(0, len(products), 2)]
    return prod(products), factors


def count_rsc_stirling(ram: Ramification) -> int:
    """Independent evaluation of the same count via Stirling numbers:
    the product over the support of (1/r_C!)·sum_k s(r_C, k)·γ_C^k.

    The division is exact; a remainder would mean a broken invariant and
    raises ArithmeticError.
    """
    ensure_countable(ram.n)
    total = 1
    for lam, mult in ram.entries:
        g = gamma(lam)
        acc = sum(stirling_first(mult, k) * g**k for k in range(1, mult + 1))
        quotient, remainder = divmod(acc, factorial(mult))
        if remainder:
            raise ArithmeticError(
                f"non-exact division for class {lam}: {acc} not divisible by {mult}!"
            )
        total *= quotient
    return total


# Most parts (compositions times γ_C) that the replay tees of one
# enumeration hold, over all their shapes.  On a 2-core Xeon VM, 600 requests
# of the benchmark's reps-stream workload took 356 ms with no replay, 295 ms
# at 2^12 parts and 288-289 ms from 2^16 to 2^20 (in-process, best of 5);
# about 2% of those requests have shapes past 2^16.  The tees then hold at
# most about 8 MB, at γ_C = 2, where a composition's tuple, text and pair
# outweigh its parts, and at most about 3 MB from γ_C = 4.
_REPLAY_PARTS = 2**16


def enumerate_types(ram: Ramification) -> Iterator[RSCTypeVector]:
    """All type vectors for ram, one per isomorphism class.

    The stream is the Cartesian product, over support classes in canonical
    order, of the weak compositions of r_C into γ_C parts, in the order of
    itertools.product (the last class varies fastest); its length equals
    count_rsc(ram) and it contains no duplicates.

    It is lazy: an odometer keeps one cursor per class.  Each line takes the
    next composition of the last class; when that class runs out, the
    rightmost class before it with another composition advances (the carry,
    a loop, so any number of classes works: S_22 has 1,002) and every class
    to its right restarts.  A (re)started class before the last holds its
    shape's first composition, (r_C, 0, ..., 0), whose text is made once per
    shape, and makes its cursor only when it first advances, so the first
    vector draws one composition, the last class's (drawing it at each
    restart took S_20 all:1's first vector from 2.4 to 11.4 ms in-process).
    Vectors are built without re-checking the compositions just generated.

    A restart replays.  Each distinct shape (γ_C, r_C) of a class that can
    restart (any but the first) gets one itertools.tee over its stream of
    (composition, text) pairs.  That tee is never advanced, and every cursor
    of the shape is a copy of it, which reads the pairs from the start: the
    copies share what any of them has drawn, so a composition is drawn and
    formatted once however often its classes restart, and a full drain
    draws each replayed shape's compositions once.  The tees hold at most
    _REPLAY_PARTS parts per enumeration, given out from the last class
    leftwards, since the right classes restart most often; a shape whose
    pairs, C(γ_C + r_C - 1, r_C)·γ_C parts, do not fit gives each cursor a
    stream of its own and formats each composition it draws.

    A carry joins the texts of the classes before the last once, into the
    line's prefix, and makes the tuple of their entries.  A line is then the
    prefix plus the last class's text, and its entries that tuple plus the
    last class's entry: one string and one tuple concatenation per line,
    however many classes the support has.
    """
    ensure_countable(ram.n)
    if not ram.entries:
        yield RSCTypeVector(())
        return
    entries = ram.entries
    shapes = [(gamma(lam), mult) for lam, mult in entries]
    replays: dict[tuple[int, int], Iterator] = {}
    room = _REPLAY_PARTS
    for g, r in dict.fromkeys(shapes[:0:-1]):  # distinct shapes, the last class's first
        # C(g + r - 1, r) is at least r and at least g once g >= 2, so the first
        # test keeps a huge shape's arguments away from multiset_coefficient
        if max(r, g) * g <= room:
            length = multiset_coefficient(g, r)
            if length * g <= room:
                replays[g, r] = tee(_cursor((g, r), {}), 1)[0]
                room -= length * g
    # the first composition, (r_C, 0, ..., 0), and its text of each shape
    # before the last class: what a class holds until it first advances,
    # when its cursor is made
    firsts = {}
    for g, r in dict.fromkeys(shapes[:-1]):
        first = (r,) + (0,) * (g - 1)
        firsts[g, r] = (first, _format_composition(first))
    new, last = object.__new__, len(shapes) - 1
    cursors, current, texts = [None] * last, [None] * last, [""] * last
    start = 0  # the classes from start to last - 1 (re)start
    while True:
        for k in range(start, last):
            cursors[k] = None
            composition, texts[k] = firsts[shapes[k]]
            current[k] = (entries[k][0], composition)
        head, prefix, lam = tuple(current), " ".join([*texts, ""]), entries[last][0]
        for composition, text in _cursor(shapes[last], replays):
            vector = new(RSCTypeVector)
            vector.__dict__["entries"] = head + ((lam, composition),)
            vector.__dict__["text"] = prefix + text
            yield vector
        for k in range(last - 1, -1, -1):
            if cursors[k] is None:
                cursors[k] = _cursor(shapes[k], replays)
                next(cursors[k])  # the first composition, which class k holds
            pair = next(cursors[k], None)
            if pair is not None:
                break
        else:
            return
        current[k], texts[k] = (entries[k][0], pair[0]), pair[1]
        start = k + 1


def _cursor(shape: tuple[int, int], replays: dict) -> Iterator[tuple[tuple[int, ...], str]]:
    """A class's (composition, text) pairs from its first composition on: a
    copy of the replay tee of its shape (γ, r), or else a stream of its own."""
    replay = replays.get(shape)
    if replay is not None:
        return replay.__copy__()
    return ((c, _format_composition(c)) for c in weak_compositions(shape[1], shape[0]))


def parse_ramification(text: str, n: int) -> Ramification:
    """Parse `entry (";" entry)*` where entry is `<cycle-type>:<count>`.

    `all:<count>` (sole entry only) assigns that count to every class of S_n.
    Unknown, malformed, or repeated cycle types are rejected; the error
    carries the offset of the offending entry.
    """
    spec = _parse_spec(text, n)
    if isinstance(spec, Ramification):
        return spec
    classes = enumerate_cycle_types(n) if spec else ()
    return _listed_ramification(n, classes, repeat(spec))


def _parse_spec(text: str, n: int) -> Ramification | int:
    """parse_ramification up to the class list of `all:<count>`: the count
    of an `all` spec, or the Ramification of any other spec.  Every refusal
    of the text is made here; the caller lists an `all` spec's classes,
    which walk_cycle_types refuses past MAX_CLASS_LIST_N."""
    ensure_countable(n)
    if not text.strip():
        raise RamificationParseError("empty ramification spec", 0)
    entries: dict[CycleType, int] = {}
    offset = 0
    for raw in text.split(";"):
        entry = raw.strip()
        position = offset + len(raw) - len(raw.lstrip())
        offset += len(raw) + 1
        if not entry:
            raise RamificationParseError("empty entry", position)
        type_text, sep, count_text = entry.rpartition(":")
        if not sep:
            raise RamificationParseError(f"entry {entry!r} is missing ':'", position)
        try:
            count = int(count_text.strip())
        except ValueError:
            raise RamificationParseError(
                f"bad count {count_text.strip()!r}", position
            ) from None
        if count < 0:
            raise RamificationParseError(f"negative count {count}", position)
        if type_text.strip() == "all":
            if ";" in text:
                raise RamificationParseError(
                    "'all' cannot be combined with other entries", position
                )
            return count
        try:
            lam = CycleType.parse(type_text)
        except ValueError as exc:
            raise RamificationParseError(str(exc), position) from None
        if lam.n != n:
            raise RamificationParseError(
                f"class {lam} has parts summing to {decimal_string(lam.n)}, expected {n}", position
            )
        if lam in entries:
            raise RamificationParseError(f"class {lam} listed twice", position)
        entries[lam] = count
    # each entry is checked above, so only the sort of __post_init__ is left
    classes = sorted(entries, reverse=True)
    return _listed_ramification(n, classes, map(entries.__getitem__, classes))


# Digits per piece that decimal_string hands to str(): below 640, the smallest
# int-to-str limit sys.set_int_max_str_digits accepts, so it works under any.
_CHUNK_DIGITS = 512
_CHUNK = 10**_CHUNK_DIGITS


def decimal_string(value: int) -> str:
    """str(value) at any size.

    Python 3.11+ refuses str() on an int with more digits than
    sys.get_int_max_str_digits() (4,300 by default).  Raising that limit would
    change the whole process, so instead value is split, divide and conquer,
    by the powers 10^(512·2^k) and only pieces below 10^512 go through str().
    Below 10^512 this is str(value).
    """
    if value < 0:
        return "-" + decimal_string(-value)
    if value < _CHUNK:
        return str(value)
    powers = [_CHUNK]  # powers[k] == 10 ** (_CHUNK_DIGITS * 2**k)
    while powers[-1] <= value:
        powers.append(powers[-1] * powers[-1])
    return _decimal_digits(value, powers, len(powers) - 2)


def _decimal_digits(value: int, powers: list[int], k: int) -> str:
    """Digits of 0 <= value < powers[k + 1] (for k = -1: value < _CHUNK),
    without leading zeros."""
    if k < 0:
        return str(value)
    high, low = divmod(value, powers[k])
    low_text = _decimal_digits(low, powers, k - 1)
    if not high:
        return low_text
    return _decimal_digits(high, powers, k - 1) + low_text.zfill(_CHUNK_DIGITS << k)


# Most decimal digits a printed count may have.  decimal_string took 0.7 s on
# 250,000 digits, 2.9 s on 500,000, 11 s on 1,000,000 and 43 s on 2,000,000
# on a 2-core Xeon VM (the time grows with the square of the length), so
# 10^6 digits keep a count near ten seconds.  S_45 all:2 (641,479 digits,
# bounded by 668,340) prints; S_45 all:3 (933,151, bounded by 1,002,599)
# does not.
MAX_COUNT_DIGITS = 10**6


class CountTooLargeError(InputError, ValueError):
    """The count of a ramification may have more than MAX_COUNT_DIGITS digits."""


def _refuse_long_count(n: int, shapes: Iterable[tuple[int, int]]) -> None:
    """CountTooLargeError, before any factor is built, if the count of the
    shapes (γ, r), one per support class in class order, may have more than
    MAX_COUNT_DIGITS decimal digits.  C(γ + r - 1, r) is at most
    (γ + r - 1)^min(r, γ - 1), so the count has at most
    ⌊Σ min(r, γ - 1)·log10(γ + r - 1)⌋ + 1 digits, one term per class;
    math.log10 takes an int of any size."""
    # (r if r < g else g - 1) is min(r, g - 1) at well under half the cost of the call
    bound = sum([(r if r < g else g - 1) * log10(g + r - 1) for g, r in shapes])
    digits = int(bound) + 1
    if digits > MAX_COUNT_DIGITS:
        raise CountTooLargeError(
            f"the count of S_{n} with this ramification may have up to {digits} digits, "
            f"over the limit of {MAX_COUNT_DIGITS}"
        )


def count_report(ram: Ramification) -> dict:
    """JSON-ready report: n, the support with γ per class, and the count as a
    decimal string (exact; CountTooLargeError past MAX_COUNT_DIGITS digits)."""
    shapes = [(gamma(lam), mult) for lam, mult in ram.entries]
    _refuse_long_count(ram.n, shapes)
    return {
        "n": ram.n,
        "ramification": [
            {"class": str(lam), "r": mult, "gamma": g}
            for (lam, mult), (g, _) in zip(ram.entries, shapes)
        ],
        "count": decimal_string(count_rsc(ram)),
    }
