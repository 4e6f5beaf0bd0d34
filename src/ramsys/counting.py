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
from itertools import repeat
from math import factorial, log10, prod
from typing import Iterable, Iterator, Mapping

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

    @classmethod
    def from_mapping(cls, n: int, multiplicities: Mapping[CycleType, int]) -> "Ramification":
        return cls(n, tuple(multiplicities.items()))

    @classmethod
    def all_ones(cls, n: int) -> "Ramification":
        """r_C = 1 for every class of S_n."""
        return _listed_ramification(n, enumerate_cycle_types(n), repeat(1))

    def multiplicity(self, lam: CycleType) -> int:
        for entry_lam, mult in self.entries:
            if entry_lam == lam:
                return mult
        return 0

    def spec_string(self) -> str:
        """Round-trippable text form, `class:count` entries joined by `;`."""
        return ";".join(f"{lam}:{mult}" for lam, mult in self.entries)

    def __str__(self) -> str:
        return self.spec_string() or "(empty)"


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
    factors = [multiset_coefficient(gamma(lam), mult) for lam, mult in ram.entries]
    # a product tree: a running product is quadratic in the size of the
    # result, so runs of 32 small factors are multiplied first and their
    # products then pairwise in rounds, keeping operands of similar size
    products = [prod(factors[i : i + 32]) for i in range(0, len(factors), 32)]
    while len(products) > 1:
        products = [prod(products[i : i + 2]) for i in range(0, len(products), 2)]
    return prod(products)


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


def enumerate_types(ram: Ramification) -> Iterator[RSCTypeVector]:
    """All type vectors for ram, one per isomorphism class.

    The stream is the Cartesian product, over support classes in canonical
    order, of the weak compositions of r_C into γ_C parts, in the order of
    itertools.product (the last class varies fastest); its length equals
    count_rsc(ram) and it contains no duplicates.

    It is lazy: an odometer keeps one weak_compositions stream per class.
    To advance, it draws from the last class's stream; when a stream is
    exhausted it draws from the class to its left instead (the carry), then
    restarts the exhausted streams to the right.  The first vector costs one
    composition per class; each further one costs one plus its restarts,
    fewer than two on average because for n >= 2 every class in a support
    has at least two compositions.  The work is thus linear in the number of
    vectors drawn.  The carry is a loop, not a recursion, so any number of
    classes works (S_22 has 1,002).  Vectors are built without re-checking
    the compositions just generated.

    The odometer also writes each vector's text (its str): it keeps the text
    of each class, a carry at class i rewrites only the texts from i on, and
    a line is their join.  A restarted stream starts at the same composition
    every time, so the text of that start is made once per (r_C, γ_C).
    """
    ensure_countable(ram.n)
    shapes = [(mult, gamma(lam)) for lam, mult in ram.entries]
    streams, current = [None] * len(shapes), [None] * len(shapes)
    texts = [""] * len(shapes)
    starts: dict[tuple[int, int], str] = {}
    i = -1  # the class the last carry reached: the streams past it (re)start
    while True:
        for k in range(i + 1, len(shapes)):
            streams[k] = weak_compositions(*shapes[k])
            current[k] = (ram.entries[k][0], next(streams[k]))
            if shapes[k] not in starts:
                starts[shapes[k]] = _format_composition(current[k][1])
            texts[k] = starts[shapes[k]]
        vector = object.__new__(RSCTypeVector)
        vector.__dict__.update(entries=tuple(current), text=" ".join(texts))
        yield vector
        for i in range(len(shapes) - 1, -1, -1):
            composition = next(streams[i], None)
            if composition is not None:
                break
        else:
            return
        current[i] = (current[i][0], composition)
        texts[i] = _format_composition(composition)


def parse_ramification(text: str, n: int) -> Ramification:
    """Parse `entry (";" entry)*` where entry is `<cycle-type>:<count>`.

    `all:<count>` (sole entry only) assigns that count to every class of S_n.
    Unknown, malformed, or repeated cycle types are rejected; the error
    carries the offset of the offending entry.
    """
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
            classes = enumerate_cycle_types(n) if count else ()
            return _listed_ramification(n, classes, repeat(count))
        try:
            lam = CycleType.parse(type_text)
        except ValueError as exc:
            raise RamificationParseError(str(exc), position) from None
        if lam.n != n:
            raise RamificationParseError(
                f"class {lam} has parts summing to {lam.n}, expected {n}", position
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


def printable_gammas(ram: Ramification) -> list[int]:
    """γ of each support class, in order, once the count of ram is known to
    have at most MAX_COUNT_DIGITS decimal digits; CountTooLargeError, before
    any factor is built, otherwise.  C(γ + r - 1, r) is at most
    (γ + r - 1)^min(r, γ - 1), so the count has at most
    ⌊Σ min(r, γ - 1)·log10(γ + r - 1)⌋ + 1 digits, one term per support
    class; math.log10 takes an int of any size."""
    gammas = [gamma(lam) for lam, _ in ram.entries]
    # (r if r < g else g - 1) is min(r, g - 1) at well under half the cost of the call
    bound = sum([(r if r < g else g - 1) * log10(g + r - 1) for (_, r), g in zip(ram.entries, gammas)])
    digits = int(bound) + 1
    if digits > MAX_COUNT_DIGITS:
        raise CountTooLargeError(
            f"the count of S_{ram.n} with this ramification may have up to {digits} digits, "
            f"over the limit of {MAX_COUNT_DIGITS}"
        )
    return gammas


def count_report(ram: Ramification) -> dict:
    """JSON-ready report: n, the support with γ per class, and the count as a
    decimal string (exact; CountTooLargeError past MAX_COUNT_DIGITS digits)."""
    return {
        "n": ram.n,
        "ramification": [
            {"class": str(lam), "r": mult, "gamma": g}
            for (lam, mult), g in zip(ram.entries, printable_gammas(ram))
        ],
        "count": decimal_string(count_rsc(ram)),
    }
