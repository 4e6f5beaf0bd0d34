"""Independent checks of request outputs, run after each timed request.

Every check returns an ``Outcome``.  A request that exits non-zero only
because its count has more decimal digits than Python's int-to-str limit is
a ``known_defect``: it counts as failed, but not as a wrong answer.  Any
other non-zero exit is an ``error`` and any output that disagrees with the
reference is ``wrong``; either makes the run incorrect.

Big integers are converted in chunks, so nothing here needs
``sys.set_int_max_str_digits``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from math import comb, factorial, prod

# Python's default limit on int <-> decimal string conversion (3.11+).
DIGIT_LIMIT = 4300
_CHUNK = 4000
_LIMIT_MESSAGE = "Exceeds the limit"

OK, WRONG, ERROR, KNOWN_DEFECT = "ok", "wrong", "error", "known_defect"


@dataclass(frozen=True)
class Outcome:
    status: str
    items: int = 0
    reason: str = ""


def _wrong(reason: str) -> Outcome:
    return Outcome(WRONG, 0, reason)


def big_int(text: str) -> int:
    """Decimal string to int at any length, parsing at most _CHUNK digits at a time."""
    text = text.strip()
    if not text.isdigit():
        raise ValueError(f"not a decimal numeral: {text[:40]!r}")
    value = 0
    for start in range(0, len(text), _CHUNK):
        chunk = text[start:start + _CHUNK]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def exceeds_digit_limit(value: int) -> bool:
    return value >= 10**DIGIT_LIMIT


def parse_class(text: str) -> dict[int, int]:
    """Cycle length -> multiplicity, from `i^m` tokens or a `[p,q,...]` part list."""
    text = text.strip()
    mults: dict[int, int] = {}
    if text.startswith("["):
        for part in text[1:-1].split(","):
            mults[int(part)] = mults.get(int(part), 0) + 1
        return mults
    for token in text.split():
        length, mult = token.split("^")
        mults[int(length)] = int(mult)
    return mults


def class_degree(mults: dict[int, int]) -> int:
    return sum(i * m for i, m in mults.items())


def gamma_rule(mults: dict[int, int]) -> int:
    """README rule: product of i over lengths with λ_i = 1, of 2i over λ_i >= 2."""
    return prod(i if m == 1 else 2 * i for i, m in mults.items() if m)


def class_size(mults: dict[int, int]) -> int:
    """n! / prod(λ_i! · i^λ_i)."""
    return factorial(class_degree(mults)) // prod(factorial(m) * i**m for i, m in mults.items())


def partition_count(n: int) -> int:
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def _descending_parts(mults: dict[int, int]) -> tuple[int, ...]:
    return tuple(sorted((i for i, m in mults.items() for _ in range(m)), reverse=True))


def _failure(code: int, err: str, reference: int | None) -> Outcome:
    if reference is not None and exceeds_digit_limit(reference) and _LIMIT_MESSAGE in err:
        return Outcome(KNOWN_DEFECT, 0, "count exceeds the int-to-str digit limit")
    return Outcome(ERROR, 0, f"exit {code}: {err.strip()[:200]}")


def check_classes(n: int, code: int, out: str, err: str) -> Outcome:
    """Rows: size·centralizer = n!, sizes sum to n!, gamma by the README rule,
    cyclic factors multiply to gamma, one row per partition in canonical order."""
    if code != 0:
        return _failure(code, err, None)
    lines = out.splitlines()
    if not lines or lines[0].split() != ["type", "size", "centralizer", "gamma", "factors"]:
        return _wrong("bad header")
    n_fact = factorial(n)
    total = 0
    previous: tuple[int, ...] | None = None
    for line in lines[1:]:
        cells = re.split(r"\s{2,}", line.strip())
        if len(cells) != 5:
            return _wrong(f"bad row {line!r}")
        mults = parse_class(cells[0])
        if class_degree(mults) != n:
            return _wrong(f"class {cells[0]} is not a class of S_{n}")
        parts = _descending_parts(mults)
        if previous is not None and not parts < previous:
            return _wrong(f"class {cells[0]} out of canonical order")
        previous = parts
        size, centralizer, gamma = int(cells[1]), int(cells[2]), int(cells[3])
        if size * centralizer != n_fact:
            return _wrong(f"size·centralizer != {n}! for {cells[0]}")
        if gamma != gamma_rule(mults):
            return _wrong(f"gamma {gamma} for {cells[0]} breaks the README rule")
        factors = [] if cells[4] == "1" else [int(f) for f in cells[4].split("x")]
        if prod(factors) != gamma:
            return _wrong(f"factors {cells[4]} do not multiply to gamma for {cells[0]}")
        total += size
    rows = len(lines) - 1
    if rows != partition_count(n):
        return _wrong(f"{rows} rows, expected {partition_count(n)}")
    if total != n_fact:
        return _wrong(f"class sizes sum to {total}, expected {n}!")
    return Outcome(OK, rows)


def check_count(entries: list[tuple[str, int]], reference: int, fmt: str,
                code: int, out: str, err: str) -> Outcome:
    """``entries`` is the support as (class string, r) in canonical order and
    ``reference`` the count from an independent derivation."""
    if code != 0:
        return _failure(code, err, reference)
    try:
        if fmt == "json":
            report = json.loads(out)
            rows = [(row["class"], row["r"], row["gamma"], None) for row in report["ramification"]]
            observed = big_int(report["count"])
        else:
            lines = out.splitlines()
            if lines[0].split() != ["class", "r", "gamma", "factor"]:
                return _wrong("bad header")
            rows = []
            for line in lines[1:-1]:
                cells = re.split(r"\s{2,}", line.strip())
                rows.append((cells[0], int(cells[1]), int(cells[2]), big_int(cells[3])))
            if not lines[-1].startswith("count = "):
                return _wrong("missing count line")
            observed = big_int(lines[-1][len("count = "):])
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return _wrong(f"unparseable output: {exc}")
    if [(row[0], row[1]) for row in rows] != entries:
        return _wrong("support rows differ from the ramification")
    for cls, r, gamma, factor in rows:
        if gamma != gamma_rule(parse_class(cls)):
            return _wrong(f"gamma {gamma} for {cls} breaks the README rule")
        if factor is not None and factor != comb(gamma + r - 1, r):
            return _wrong(f"factor for {cls} is not C(gamma + r - 1, r)")
    if observed != reference:
        return _wrong("count differs from the Stirling-sum reference")
    return Outcome(OK, len(rows))


def _parse_vector(line: str) -> tuple[tuple[int, ...], ...]:
    if not (line.startswith("(") and line.endswith(")")):
        raise ValueError(f"bad vector line {line[:60]!r}")
    return tuple(tuple(map(int, token.split(","))) for token in line[1:-1].split(") ("))


def check_reps(entries: list[tuple[str, int]], reference: int, limit: int,
               code: int, out: str, err: str) -> Outcome:
    """min(limit, count) vector lines after the three header lines; each vector
    has one weak composition of r_C into gamma_C parts per support class; the
    lines are strictly descending, hence distinct."""
    if code != 0:
        return _failure(code, err, reference)
    lines = out.splitlines()
    if len(lines) < 3 or not all(line.startswith("# ") for line in lines[:3]):
        return _wrong("missing header")
    if not lines[2].startswith("# count = "):
        return _wrong("missing count header")
    try:
        if big_int(lines[2][len("# count = "):]) != reference:
            return _wrong("header count differs from the Stirling-sum reference")
    except ValueError as exc:
        return _wrong(str(exc))
    expected = min(limit, reference)
    if len(lines) - 3 != expected:
        return _wrong(f"{len(lines) - 3} vectors, expected {expected}")
    shape = [(gamma_rule(parse_class(cls)), r) for cls, r in entries]
    previous = None
    for line in lines[3:]:
        try:
            vector = _parse_vector(line)
        except ValueError as exc:
            return _wrong(str(exc))
        if len(vector) != len(shape):
            return _wrong("vector has the wrong number of classes")
        for part, (gamma, r) in zip(vector, shape):
            if len(part) != gamma or sum(part) != r or min(part) < 0:
                return _wrong(f"composition {part} is not a weak composition of {r} into {gamma}")
        if previous is not None and not vector < previous:
            return _wrong("vectors not in strictly descending order")
        previous = vector
    return Outcome(OK, expected)


def check_oracle(observed: int, formula: int, points: int) -> Outcome:
    if observed != formula:
        return _wrong(f"oracle {observed} != formula {formula}")
    return Outcome(OK, points)
