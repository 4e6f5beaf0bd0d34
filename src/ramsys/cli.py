"""Command-line surface: class tables, counts, representatives, verification."""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from math import factorial, prod
from typing import Iterator, Sequence

from .centralizer import abelianization_invariants, gamma
from .counting import (
    _count_and_factors,
    _listed_ramification,
    _parse_spec,
    _refuse_long_count,
    count_rsc,
    decimal_string,
    enumerate_types,
    parse_ramification,
)
from .perm import (
    InputError,
    NumberTooLongError,
    _echo,
    _natural,
    _trusted_cycle_type,
    canonical_cycle_pieces,
    centralizer_order,
    enumerate_cycle_types,
    walk_cycle_types,
)


def _positive_int(text: str) -> int:
    return _cli_natural(text, 1, "a positive")


def _non_negative_int(text: str) -> int:
    return _cli_natural(text, 0, "a non-negative")


def _cli_natural(text: str, least: int, kind: str) -> int:
    # the spec numbers' rule, ASCII digits alone, so int()'s signs, blanks,
    # underscores and other scripts' digits are usage errors here too
    try:
        value = _natural(text)
    except NumberTooLongError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError:
        value = -1
    if value < least:
        raise argparse.ArgumentTypeError(f"expected {kind} integer, got {_echo(text)!r}")
    return value


def _print_table(headers: tuple[str, ...], rows: Sequence[tuple[str, ...]]) -> None:
    # the last column is not padded, so no line ends in a space; a line is
    # one write, looked up each time, as a stdout that is swapped mid-run
    # (the benchmark's first-line probe) expects
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    line = "  ".join([f"%-{w}s" for w in widths[:-1]] + ["%s\n"])
    sys.stdout.write(line % headers)
    for row in rows:
        sys.stdout.write(line % row)


def _class_walk(n: int, centralizers: bool = False) -> Iterator[tuple[str, int, int, str]]:
    """Each class of S_n in canonical order as (type text, γ, z_λ, factor
    text), for `classes` and for `count` on an `all` spec.  z_λ and the
    factor text are worked out only when ``centralizers`` is set; else they
    read 1 and "" (carrying them always made the benchmark's count-sweep
    8-10% slower at the median).

    The centralizer is a direct product over the cycle lengths present, so
    γ and z_λ multiply and the texts concatenate pair by pair, each pair's
    part computed once, from an unchecked CycleType of that pair alone:
    Algorithm P makes only valid pairs.  A class keeps the first `kept`
    pairs of the one before it: prefix[k] holds the values of its first k
    pairs, and only the pairs after `kept` are pushed.  Both texts run
    shortest cycle first, so a pair's text goes in front, with a trailing
    separator that the yield drops."""
    prefix = [("", 1, 1, "")]
    of_pair: dict[tuple[int, int], tuple[str, int, int, str]] = {}
    for kept, pairs in walk_cycle_types(n):
        del prefix[kept + 1:]
        text, g, z, factor_text = prefix[-1]
        for pair in pairs[kept:]:
            part = of_pair.get(pair)
            if part is None:
                lam = _trusted_cycle_type(pair[0] * pair[1], (pair,))
                invariants = abelianization_invariants(lam)
                part = (f"{lam} ", prod(invariants), 1, "")
                if centralizers:
                    part = part[:2] + (centralizer_order(lam), "".join([f"{f}x" for f in invariants]))
                of_pair[pair] = part
            text, g, z, factor_text = part[0] + text, g * part[1], z * part[2], part[3] + factor_text
            prefix.append((text, g, z, factor_text))
        yield text[:-1], g, z, factor_text[:-1]


def cmd_classes(args: argparse.Namespace) -> int:
    rows = list(_class_walk(args.n, centralizers=True))  # refuses a long list before n!
    n_factorial = factorial(args.n)
    for i, (text, g, z, factor_text) in enumerate(rows):  # in place, so one list is held
        rows[i] = (text, str(n_factorial // z), str(z), str(g), factor_text or "1")
    _print_table(("type", "size", "centralizer", "gamma", "factors"), rows)
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    # rows of (class text, r, γ), then one path for both kinds of spec
    spec = _parse_spec(args.ramification, args.n)
    if isinstance(spec, int):  # all:r reads its rows off the class walk
        rows = [(text, spec, g) for text, g, _, _ in _class_walk(args.n)] if spec else []
    else:
        rows = [(str(lam), r, gamma(lam)) for lam, r in spec.entries]
    shapes = [(g, r) for _, r, g in rows]
    _refuse_long_count(args.n, shapes)
    count, factors = _count_and_factors(shapes)
    if args.format == "json":
        # the bytes of json.dumps(count_report(ram), indent=2), laid out by
        # hand: an indent sends json.dumps to its pure-Python encoder, which
        # is several times slower.  Class texts (digits, ^, spaces) need no escaping.
        tails = {
            (g, r): f',\n      "r": {r},\n      "gamma": {decimal_string(g)}\n    }}'
            for g, r in factors
        }
        entries = ",\n".join(
            [f'    {{\n      "class": "{text}"{tails[g, r]}' for text, r, g in rows]
        )
        ramification = f"[\n{entries}\n  ]" if entries else "[]"
        print(
            f'{{\n  "n": {args.n},\n  "ramification": {ramification},\n'
            f'  "count": "{decimal_string(count)}"\n}}'
        )
        return 0
    texts = {(g, r): (str(r), decimal_string(g), decimal_string(f)) for (g, r), f in factors.items()}
    _print_table(("class", "r", "gamma", "factor"), [(text, *texts[g, r]) for text, r, g in rows])
    sys.stdout.write(f"count = {decimal_string(count)}\n")
    return 0


# Most numbers one reps line may print: Σ γ_C parts on a type-vector line and
# Σ (n - fixed points) u0 points on the `# classes:` header, over the support.
# On a 2-core Xeon VM a line took about 0.15 µs and 23 bytes per part (1.9 s
# and 297 MB at S_32 all:1, 12.9 M parts); a header at the bound, written as
# its pieces are made, took 0.8 s and 17 MB for u0 of [4194304], 0.5 s and
# 17 MB for u0 of 2^2097152 (peak RSS of the whole process).
# S_29 all:1 (4,047,081 parts) is the largest all:1 line that fits, and S_45
# all:1 (3,559,529 u0 points) the largest all:r header.
MAX_LINE_PARTS = 2**22

# Characters of u0 text that the `# classes:` header gathers into one write.
_HEADER_BATCH = 2**16


def cmd_reps(args: argparse.Namespace) -> int:
    ram = parse_ramification(args.ramification, args.n)
    # (γ, r) per support class in class order, as cmd_count builds them
    shapes = [(gamma(lam), r) for lam, r in ram.entries]
    _refuse_long_count(ram.n, shapes)
    parts = sum([g for g, _ in shapes])
    if args.limit != 0 and parts > MAX_LINE_PARTS:
        raise InputError(
            f"a reps line of S_{ram.n} with this ramification has {decimal_string(parts)} parts "
            f"(gamma summed over the support), over the limit of {MAX_LINE_PARTS}"
        )
    moved = sum([i * m for lam, _ in ram.entries for i, m in lam.cycles if i > 1])
    if moved > MAX_LINE_PARTS:
        raise InputError(
            f"the classes header of S_{ram.n} with this ramification has {decimal_string(moved)} "
            f"u0 points (moved points summed over the support), over the limit of {MAX_LINE_PARTS}"
        )
    print(f"# n = {ram.n}, ramification: {ram}")
    # u0's pieces are written as they are made, joined each time
    # _HEADER_BATCH characters of them have gathered, so a u0 of millions of
    # points is never held whole; a shorter header is one write
    pieces, size, separator = ["# classes: "], 0, ""
    for (lam, _), (g, _) in zip(ram.entries, shapes):
        pieces.append(f"{separator}{lam} (gamma={decimal_string(g)}, u0=")
        for piece in canonical_cycle_pieces(lam):
            pieces.append(piece)
            size += len(piece)
            if size >= _HEADER_BATCH:
                sys.stdout.write("".join(pieces))
                pieces, size = [], 0
        pieces.append(")")
        separator = "; "
    pieces.append("\n")
    sys.stdout.write("".join(pieces))
    print(f"# count = {decimal_string(_count_and_factors(shapes)[0])}")
    limit = args.limit if args.limit is None else min(args.limit, sys.maxsize)  # islice refuses more
    for type_vector in itertools.islice(enumerate_types(ram), limit):
        sys.stdout.write(str(type_vector) + "\n")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    # the only command that needs the oracle, so the others never load it
    from .oracle import ORACLE_MAX_N, oracle_count, orbit_count_class

    if not 2 <= args.n <= ORACLE_MAX_N:
        raise InputError(f"verify needs 2 <= n <= {ORACLE_MAX_N}, got n = {args.n}")
    classes = enumerate_cycle_types(args.n)
    # a class's point count grows with r, so a case over the point budget
    # shows at max_r: refuse it before the first line
    for lam in classes:
        orbit_count_class(lam, args.max_r)
    cases = failures = 0
    for multiplicities in itertools.product(range(args.max_r + 1), repeat=len(classes)):
        ram = _listed_ramification(args.n, classes, multiplicities)
        expected = count_rsc(ram)
        observed = oracle_count(ram)
        cases += 1
        if expected == observed:
            print(f"PASS  {ram}  formula={expected} oracle={observed}")
        else:
            failures += 1
            print(f"FAIL  {ram}  formula={expected} oracle={observed}")
    print(
        f"S_{args.n}, r_C <= {args.max_r}: {cases} cases, "
        f"{cases - failures} passed, {failures} failed"
    )
    return 1 if failures else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramsys",
        description=(
            "Exact counting and enumeration of isomorphism classes of "
            "ramification systems with characters over S_n (n != 6)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classes = sub.add_parser(
        "classes", help="table of cycle types with sizes, centralizer orders and gamma"
    )
    p_classes.add_argument("n", type=_positive_int)
    p_classes.set_defaults(handler=cmd_classes)

    p_count = sub.add_parser("count", help="count isomorphism classes for a ramification")
    p_count.add_argument("n", type=_positive_int)
    p_count.add_argument("--ramification", required=True, metavar="SPEC")
    p_count.add_argument("--format", choices=("table", "json"), default="table")
    p_count.set_defaults(handler=cmd_count)

    p_reps = sub.add_parser("reps", help="stream one representative type vector per class")
    p_reps.add_argument("n", type=_positive_int)
    p_reps.add_argument("--ramification", required=True, metavar="SPEC")
    p_reps.add_argument("--limit", type=_non_negative_int, default=None)
    p_reps.set_defaults(handler=cmd_reps)

    p_verify = sub.add_parser(
        "verify", help="brute-force orbit counts against the closed form"
    )
    p_verify.add_argument("n", type=_positive_int)
    p_verify.add_argument("--max-r", type=_positive_int, default=1, dest="max_r")
    p_verify.set_defaults(handler=cmd_verify)
    return parser


# built once per process: main is also called in-process, many times over
_PARSER = _build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # in the try: a closed pipe may first show here
        return code
    except InputError as exc:
        # input errors exit 2; an internal failure keeps its traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed the pipe (`| head`): the exit-time flush goes to
        # devnull, and the status is a shell's for a writer killed by SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141

