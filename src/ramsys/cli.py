"""Command-line surface: class tables, counts, representatives, verification."""

from __future__ import annotations

import argparse
import itertools
import sys
from json.encoder import encode_basestring_ascii as _json_string
from math import factorial, prod
from typing import Sequence

from .centralizer import abelianization_invariants
from .combinat import multiset_coefficient
from .counting import (
    _listed_ramification,
    count_report,
    count_rsc,
    decimal_string,
    enumerate_types,
    parse_ramification,
    printable_gammas,
)
from .perm import (
    CycleType,
    InputError,
    canonical_cycle_string,
    centralizer_order,
    enumerate_cycle_types,
    walk_cycle_types,
)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _print_table(headers: list[str], rows: Sequence[Sequence[str]]) -> None:
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    line = "  ".join([f"{{:<{w}}}" for w in widths]).format
    print(line(*headers).rstrip())
    for row in rows:
        print(line(*row).rstrip())


def cmd_classes(args: argparse.Namespace) -> int:
    # The centralizer is a direct product over the cycle lengths present, so
    # z_λ and γ multiply and the texts concatenate pair by pair, each pair's
    # part computed once.  A class keeps the first `kept` pairs of the one
    # before it: prefix[k] holds (type text, z, factor text, γ) of its first
    # k pairs, and only the pairs after `kept` are pushed.  Both texts run
    # shortest cycle first, so a pair's text goes in front, with a trailing
    # separator that the row drops.
    n_factorial = factorial(args.n)
    rows = []
    prefix = [("", 1, "", 1)]
    of_pair: dict[tuple[int, int], tuple[str, int, str, int]] = {}
    for kept, pairs in walk_cycle_types(args.n):
        del prefix[kept + 1:]
        text, z, factor_text, g = prefix[-1]
        for pair in pairs[kept:]:
            if pair not in of_pair:
                lam = CycleType(pair[0] * pair[1], (pair,))
                invariants = abelianization_invariants(lam)
                factors = "".join([f"{f}x" for f in invariants])
                of_pair[pair] = (f"{lam} ", centralizer_order(lam), factors, prod(invariants))
            pair_text, pair_z, pair_factors, pair_g = of_pair[pair]
            text, z, factor_text, g = pair_text + text, z * pair_z, pair_factors + factor_text, g * pair_g
            prefix.append((text, z, factor_text, g))
        rows.append((text[:-1], str(n_factorial // z), str(z), str(g), factor_text[:-1] or "1"))
    _print_table(["type", "size", "centralizer", "gamma", "factors"], rows)
    return 0


def _report_json(report: dict) -> str:
    """The bytes of json.dumps(report, indent=2) for a count_report, laid out
    by hand: an indent sends json.dumps to its pure-Python encoder, which is
    several times slower.  Strings go through json's C string encoder."""
    entries = ",\n".join(
        f'    {{\n      "class": {_json_string(entry["class"])},\n'
        f'      "r": {entry["r"]},\n      "gamma": {decimal_string(entry["gamma"])}\n    }}'
        for entry in report["ramification"]
    )
    ramification = f"[\n{entries}\n  ]" if entries else "[]"
    return (
        f'{{\n  "n": {report["n"]},\n  "ramification": {ramification},\n'
        f'  "count": {_json_string(report["count"])}\n}}'
    )


def cmd_count(args: argparse.Namespace) -> int:
    ram = parse_ramification(args.ramification, args.n)
    if args.format == "json":
        print(_report_json(count_report(ram)))
        return 0
    rows = []
    for (lam, mult), g in zip(ram.entries, printable_gammas(ram)):
        rows.append([str(lam), str(mult), decimal_string(g), decimal_string(multiset_coefficient(g, mult))])
    _print_table(["class", "r", "gamma", "factor"], rows)
    print(f"count = {decimal_string(count_rsc(ram))}")
    return 0


# Most numbers one reps line may print: Σ γ_C parts on a type-vector line and
# Σ (n - fixed points) u0 points on the `# classes:` header, over the support.
# On a 2-core Xeon VM a line took about 0.15 µs and 23 bytes per part (1.9 s
# and 297 MB at S_32 all:1, 12.9 M parts); a header at the bound took 0.8 s
# and 108 MB for u0 of [4194304], 0.6 s and 89 MB for u0 of 2^2097152.
# S_29 all:1 (4,047,081 parts) is the largest all:1 line that fits, and S_45
# all:1 (3,559,529 u0 points) the largest all:r header.
MAX_LINE_PARTS = 2**22


def cmd_reps(args: argparse.Namespace) -> int:
    ram = parse_ramification(args.ramification, args.n)
    gammas = printable_gammas(ram)
    parts = sum(gammas)
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
    print(
        "# classes: "
        + "; ".join(
            f"{lam} (gamma={decimal_string(g)}, u0={canonical_cycle_string(lam)})"
            for (lam, _), g in zip(ram.entries, gammas)
        )
    )
    print(f"# count = {decimal_string(count_rsc(ram))}")
    for type_vector in itertools.islice(enumerate_types(ram), args.limit):
        sys.stdout.write(f"{type_vector}\n")
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
        return args.handler(args)
    except InputError as exc:
        # input errors exit 2; an internal failure keeps its traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
