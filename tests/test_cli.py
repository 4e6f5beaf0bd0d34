import hashlib
import importlib
import itertools
import json
import os
import pkgutil
import shlex
import subprocess
import sys
import time
from array import array
from math import factorial
from pathlib import Path

import pytest

import ramsys
import ramsys.cli
import ramsys.counting
import ramsys.oracle
import ramsys.perm
from ramsys.centralizer import gamma
from ramsys.cli import main
from ramsys.combinat import multiset_coefficient
from ramsys.counting import (
    CountTooLargeError,
    Ramification,
    RamificationParseError,
    RSCTypeVector,
    UnsupportedGroupError,
    count_report,
    count_rsc,
    enumerate_types,
    parse_ramification,
)
from ramsys.oracle import OracleBudgetError
from ramsys.perm import ClassListTooLargeError, CycleType, InputError, enumerate_cycle_types
from reference import parse_decimal, partition_counts


def digit_limit():
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClasses:
    def test_s3_table(self, capsys):
        code, out, err = run(capsys, "classes", "3")
        assert code == 0 and not err
        lines = out.strip().splitlines()
        assert lines[0].split() == ["type", "size", "centralizer", "gamma", "factors"]
        rows = [line.split("  ") for line in lines[1:]]
        assert len(rows) == 3
        # canonical order: 3^1, 1^1 2^1, 1^3 with gamma 3, 2, 2
        assert [row[0].strip() for row in rows] == ["3^1", "1^1 2^1", "1^3"]
        gammas = [line.split()[-2] for line in lines[1:]]
        assert gammas == ["3", "2", "2"]

    def test_s4_gamma_column(self, capsys):
        code, out, _ = run(capsys, "classes", "4")
        assert code == 0
        lines = out.strip().splitlines()[1:]
        assert len(lines) == 5
        gammas = sorted(int(line.split()[-2]) for line in lines)
        assert gammas == [2, 3, 4, 4, 4]

    def test_trivial_group(self, capsys):
        code, out, _ = run(capsys, "classes", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].split() == ["1^1", "1", "1", "1", "1"]

    def test_rejects_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["classes", "0"])
        assert info.value.code == 2

    def test_oversized_n_is_refused_before_n_factorial(self, capsys, monkeypatch):
        # n! of n = 10^6 alone took seconds; the walk's class-list bound comes first
        def refused(n):
            assert n <= ramsys.perm.MAX_CLASS_LIST_N, f"took {n}! past the class-list bound"
            return factorial(n)

        monkeypatch.setattr(ramsys.cli, "factorial", refused)
        code, out, err = run(capsys, "classes", "1000000000")
        assert code == 2 and out == ""
        assert err == "error: S_1000000000 has too many classes to list (n <= 45)\n"


class TestCount:
    def test_s5_all_ones(self, capsys):
        code, out, _ = run(capsys, "count", "5", "--ramification", "all:1")
        assert code == 0
        assert out.strip().endswith("count = 23040")

    def test_all_r_takes_no_centralizer_order(self, capsys, monkeypatch):
        # count's class walk leaves z_λ out; carrying it measured 8-10% slower
        def refused(lam):
            raise AssertionError(f"took the centralizer order of {lam}")

        monkeypatch.setattr(ramsys.cli, "centralizer_order", refused)
        for fmt in ("table", "json"):
            code, out, err = run(capsys, "count", "12", "--ramification", "all:1", "--format", fmt)
            assert code == 0 and err == "" and out

    def test_identity_class_squared(self, capsys):
        code, out, _ = run(capsys, "count", "3", "--ramification", "1^3:2")
        assert code == 0
        assert out.strip().endswith("count = 3")

    def test_s6_rejected(self, capsys):
        code, out, err = run(capsys, "count", "6", "--ramification", "all:1")
        assert code != 0
        assert "n != 6" in err

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_prints_counts_past_the_digit_limit(self, capsys, fmt):
        limit = digit_limit()
        code, out, err = run(capsys, "count", "25", "--ramification", "all:1", "--format", fmt)
        assert code == 0 and not err
        if fmt == "json":
            text = json.loads(out)["count"]
        else:
            text = out.splitlines()[-1].removeprefix("count = ")
        assert len(text) > 4300
        assert parse_decimal(text) == count_rsc(parse_ramification("all:1", 25))
        assert digit_limit() == limit

    @pytest.mark.parametrize("argv", [
        ["classes", "90"],
        ["count", "90", "--ramification", "all:1"],
        ["reps", "90", "--ramification", "all:1", "--limit", "1"],
    ])
    def test_class_list_bound_exits_2(self, capsys, no_class_built, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and not out
        assert "S_90" in err and "n <= 45" in err

    @pytest.mark.parametrize("argv", [
        ["count", "40", "--ramification", "all:100000"],
        ["count", "40", "--ramification", "all:100000", "--format", "json"],
        ["reps", "28", "--ramification", "all:100000", "--limit", "1"],
    ], ids=["count-table", "count-json", "reps"])
    def test_count_past_the_digit_limit_exits_2(self, capsys, argv):
        # about 3.3·10^8 and 6.4·10^6 digits: refused before the first line,
        # and before any factor is built
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith("digits, over the limit of 1000000\n")

    def test_sparse_spec_at_large_n(self, capsys):
        code, out, _ = run(capsys, "count", "90", "--ramification", "1^90:3")
        assert code == 0
        assert out.strip().endswith("count = 4")

    def test_parse_error_carries_position(self, capsys):
        code, out, err = run(capsys, "count", "3", "--ramification", "1^3:1;2^1:1")
        assert code != 0
        assert "position 6" in err

    # a spec number is ASCII digits alone; int() would also read each of these
    @pytest.mark.parametrize("spec, error", [
        ("3^1:1;1^3:1_0", "bad count '1_0' (at position 6)"),
        ("3^1:1; 1_0^1:1", "bad cycle-type token: '1_0^1' (at position 7)"),
        ("3^1:1;1^3:+1", "bad count '+1' (at position 6)"),
        ("3^1:1;[+3]:1", "bad part list: '[+3]' (at position 6)"),
        ("3^1:1;１^３:1", "bad cycle-type token: '１^３' (at position 6)"),
        ("3^1:1;[2,１]:1", "bad part list: '[2,１]' (at position 6)"),
        ("3^1:1;1^3:-1", "negative count -1 (at position 6)"),
    ], ids=["underscore-count", "underscore-token", "sign-count", "sign-part", "fullwidth-token",
            "fullwidth-part", "minus-count"])
    def test_spec_numbers_are_ascii_digits(self, capsys, spec, error):
        assert run(capsys, "count", "3", "--ramification", spec) == (2, "", f"error: {error}\n")

    # n, --limit and --max-r follow the same rule; int() would read each of these
    @pytest.mark.parametrize("argv, error", [
        (["count", "1_0", "--ramification", "all:1"],
         "argument n: expected a positive integer, got '1_0'"),
        (["count", "３", "--ramification", "all:1"],
         "argument n: expected a positive integer, got '３'"),
        (["count", " 5", "--ramification", "all:1"],
         "argument n: expected a positive integer, got ' 5'"),
        (["reps", "3", "--ramification", "all:1", "--limit", "+1_0"],
         "argument --limit: expected a non-negative integer, got '+1_0'"),
        (["verify", "3", "--max-r", "0x1"],
         "argument --max-r: expected a positive integer, got '0x1'"),
    ], ids=["underscore-n", "fullwidth-n", "blank-n", "signed-limit", "hex-max-r"])
    def test_cli_integers_are_ascii_digits(self, capsys, argv, error):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        usage = {"count": "ramsys count [-h] --ramification SPEC [--format {table,json}] n",
                 "reps": "ramsys reps [-h] --ramification SPEC [--limit LIMIT] n",
                 "verify": "ramsys verify [-h] [--max-r MAX_R] n"}[argv[0]]
        assert (captured.out, captured.err) == (
            "", f"usage: {usage}\nramsys {argv[0]}: error: {error}\n",
        )

    # past int()'s digit limit a spec number is refused by its length, before
    # int(), and the message quotes its first 40 characters only
    @pytest.mark.parametrize("spec", ["{}^1:1", "1^5:{}", "[{}]:1", "1^5:-{}"],
                             ids=["cycle-length", "count", "bracketed-part", "negative-count"])
    @pytest.mark.skipif(digit_limit() is None, reason="int() has no digit limit")
    def test_over_long_spec_numbers_are_refused_by_length(self, capsys, spec):
        limit = digit_limit()
        number = "7" * (limit + 700)
        error = (f"error: number too long: '{'7' * 40}…' has {limit + 700} digits, "
                 f"over the limit of {limit} (at position 0)\n")
        assert run(capsys, "count", "5", "--ramification", spec.format(number)) == (2, "", error)

    def test_echoed_tokens_are_cut_to_a_prefix(self, capsys):
        token = "x" * 5000 + "^1"
        error = f"error: bad cycle-type token: '{'x' * 40}…' (at position 0)\n"
        assert run(capsys, "count", "5", "--ramification", f"{token}:1") == (2, "", error)
        code, _, err = run(capsys, "count", "5", "--ramification", "1^5 " + "y" * 5000)
        assert code == 2 and len(err) < 200

    def test_blanks_around_bracket_parts_are_kept(self, capsys):
        spaced = run(capsys, "count", "3", "--ramification", "[ 2 , 1 ] : 1")
        assert spaced == run(capsys, "count", "3", "--ramification", "1^1 2^1:1")

    def test_json_output_schema(self, capsys):
        code, out, _ = run(capsys, "count", "3", "--ramification", "all:1", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["n"] == 3
        assert report["count"] == "12"
        assert {entry["class"] for entry in report["ramification"]} == {
            "3^1",
            "1^1 2^1",
            "1^3",
        }

    def test_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "count", "4", "--ramification", "1^4:2;2^2:1", "--format", "json")
        assert code == 0
        report = json.loads(out)
        rebuilt = Ramification(
            report["n"], tuple((CycleType.parse(e["class"]), e["r"]) for e in report["ramification"])
        )
        assert str(count_rsc(rebuilt)) == report["count"]
        # feeding the entries back through the spec grammar gives the same count
        spec = ";".join(f"{e['class']}:{e['r']}" for e in report["ramification"])
        code2, out2, _ = run(capsys, "count", "4", "--ramification", spec, "--format", "json")
        assert code2 == 0
        assert json.loads(out2)["count"] == report["count"]


class TestAllRows:
    """`count n --ramification all:r` reads its rows off the class walk that
    `classes` reads, not off a Ramification of CycleTypes."""

    def test_walk_rows_are_the_classes_and_their_gammas(self, class_walks):
        # every n up to the class-list bound, against the classes of the
        # shared walk of S_1..S_45
        for n, walk in class_walks.items():
            rows = list(ramsys.cli._class_walk(n))
            assert "\n".join([text for text, _, _, _ in rows]) == walk.texts, n
            assert array("Q", [g for _, g, _, _ in rows]) == walk.gammas, n

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_s20_all1_is_the_count_report(self, capsys, fmt):
        report = count_report(parse_ramification("all:1", 20))
        code, out, err = run(capsys, "count", "20", "--ramification", "all:1", "--format", fmt)
        assert code == 0 and err == ""
        if fmt == "json":
            assert out == json.dumps(report, indent=2) + "\n"
            return
        rows = [("class", "r", "gamma", "factor")] + [
            (e["class"], str(e["r"]), str(e["gamma"]), str(multiset_coefficient(e["gamma"], e["r"])))
            for e in report["ramification"]
        ]
        widths = [max(map(len, column)) for column in zip(*rows)]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
        assert out == "\n".join(lines) + f"\ncount = {report['count']}\n"

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_s45_all3_is_refused_before_any_factor(self, capsys, monkeypatch, fmt):
        def refused(*args):
            raise AssertionError("a factor was built")

        monkeypatch.setattr(ramsys.counting, "multiset_coefficient", refused)
        code, out, err = run(capsys, "count", "45", "--ramification", "all:3", "--format", fmt)
        assert code == 2 and out == ""
        assert err == "error: the count of S_45 with this ramification may have up to 1002599 digits, over the limit of 1000000\n"

    def test_digit_bound_sums_the_same_terms_in_class_order(self, capsys, monkeypatch):
        # the same float terms in the same order give a bit-identical bound
        bounded = []
        refuse_long_count = ramsys.counting._refuse_long_count

        def spy(n, shapes):
            bounded.append(list(shapes))
            refuse_long_count(n, shapes)

        monkeypatch.setattr(ramsys.cli, "_refuse_long_count", spy)
        monkeypatch.setattr(ramsys.counting, "_refuse_long_count", spy)
        for n, r in ((7, 1), (20, 2), (24, 3)):
            bounded.clear()
            assert run(capsys, "count", str(n), "--ramification", f"all:{r}")[0] == 0
            assert run(capsys, "reps", str(n), "--ramification", f"all:{r}", "--limit", "0")[0] == 0
            count_report(parse_ramification(f"all:{r}", n))
            expected = [(gamma(lam), r) for lam in enumerate_cycle_types(n)]
            assert bounded == [expected] * 3


class TestReps:
    def test_s3_all_ones_streams_12_vectors(self, capsys):
        code, out, _ = run(capsys, "reps", "3", "--ramification", "all:1")
        assert code == 0
        lines = out.strip().splitlines()
        header = [line for line in lines if line.startswith("#")]
        vectors = [line for line in lines if not line.startswith("#")]
        assert len(vectors) == 12
        assert vectors[0] == "(1,0,0) (1,0) (1,0)"
        assert any("u0=(1 2 3)" in line for line in header)

    def test_limit(self, capsys):
        code, out, _ = run(capsys, "reps", "3", "--ramification", "all:1", "--limit", "1")
        assert code == 0
        vectors = [line for line in out.strip().splitlines() if not line.startswith("#")]
        assert len(vectors) == 1

    def test_limit_must_be_non_negative(self, capsys):
        code, out, _ = run(capsys, "reps", "3", "--ramification", "all:1", "--limit", "0")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3 and all(line.startswith("#") for line in lines)
        with pytest.raises(SystemExit) as info:
            main(["reps", "3", "--ramification", "all:1", "--limit", "-1"])
        assert info.value.code == 2

    def test_limit_past_sys_maxsize_is_every_line(self, capsys):
        # islice refuses a limit past sys.maxsize; no stream reaches it
        expected = run(capsys, "reps", "3", "--ramification", "all:1")
        limit = "99999999999999999999"
        assert int(limit) > sys.maxsize
        assert run(capsys, "reps", "3", "--ramification", "all:1", "--limit", limit) == expected
        assert expected[0] == 0 and expected[2] == ""

    def test_limit_does_bounded_work_on_many_classes(self, capsys):
        # S_22 has 1,002 classes; only the two vectors asked for are built
        code, out, _ = run(capsys, "reps", "22", "--ramification", "all:1", "--limit", "2")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert all(line.startswith("#") for line in lines[:3])
        for line in lines[3:]:
            compositions = line.split(" ")
            assert len(compositions) == 1002
            assert all(c.startswith("(") and c.endswith(")") for c in compositions)

    def test_count_header_past_the_digit_limit(self, capsys):
        limit = digit_limit()
        code, out, err = run(capsys, "reps", "25", "--ramification", "all:1", "--limit", "1")
        assert code == 0 and not err
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[2].startswith("# count = ")
        count = parse_decimal(lines[2].removeprefix("# count = "))
        assert count == count_rsc(parse_ramification("all:1", 25))
        assert digit_limit() == limit

    def test_line_past_the_bound_is_refused(self, capsys):
        # S_40 all:1 has 242,145,032 parts per line, about 5 GB to print one
        code, out, err = run(capsys, "reps", "40", "--ramification", "all:1", "--limit", "1")
        assert code == 2 and out == ""
        assert err == (
            "error: a reps line of S_40 with this ramification has 242145032 parts "
            "(gamma summed over the support), over the limit of 4194304\n"
        )

    @pytest.mark.parametrize(
        "bound, limit, code, lines",
        [(7, "1", 0, 4), (6, "1", 2, 0), (6, "0", 0, 3), (4, "0", 2, 0)],
    )
    def test_line_bound_counts_every_part(self, capsys, monkeypatch, bound, limit, code, lines):
        # S_3 all:1 has 3 + 2 + 2 = 7 parts per line; --limit 0 prints no
        # line, but the header still writes the u0 points, 0 + 2 + 3 = 5
        monkeypatch.setattr(ramsys.cli, "MAX_LINE_PARTS", bound)
        result, out, err = run(capsys, "reps", "3", "--ramification", "all:1", "--limit", limit)
        assert result == code
        assert len(out.splitlines()) == lines
        refusal = "5 u0 points" if limit == "0" else "7 parts"
        assert (refusal in err) == (code == 2)

    def test_header_of_s45_all1_is_under_the_bound(self, capsys, monkeypatch):
        # a partition of n with at least k fixed points is one of n - k plus
        # k of them, so the fixed points of S_n sum to p(n-1) + ... + p(0)
        p = partition_counts(45)
        moved = 45 * p[45] - sum(p[:45])
        assert moved == 3_559_529 < ramsys.cli.MAX_LINE_PARTS
        # the CLI counts the same points: one fewer allowed refuses, unprinted
        monkeypatch.setattr(ramsys.cli, "MAX_LINE_PARTS", moved - 1)
        code, out, err = run(capsys, "reps", "45", "--ramification", "all:1", "--limit", "0")
        assert code == 2 and out == ""
        assert err == (
            f"error: the classes header of S_45 with this ramification has {moved} u0 points "
            f"(moved points summed over the support), over the limit of {moved - 1}\n"
        )

    def test_vectors_match_library_order(self, capsys):
        from ramsys.counting import enumerate_types

        code, out, _ = run(capsys, "reps", "4", "--ramification", "2^2:2")
        assert code == 0
        vectors = [line for line in out.strip().splitlines() if not line.startswith("#")]
        expected = [str(v) for v in enumerate_types(parse_ramification("2^2:2", 4))]
        assert vectors == expected


class TestVerify:
    def test_s3_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "3", "--max-r", "2")
        assert code == 0
        lines = out.strip().splitlines()
        case_lines = [line for line in lines if line.startswith(("PASS", "FAIL"))]
        assert len(case_lines) == 27
        assert all(line.startswith("PASS") for line in case_lines)
        assert lines[-1] == "S_3, r_C <= 2: 27 cases, 27 passed, 0 failed"

    def test_s4_includes_all_ones(self, capsys):
        code, out, _ = run(capsys, "verify", "4")
        assert code == 0
        assert "formula=384 oracle=384" in out

    def test_s6_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "6")
        assert code == 2
        assert "2 <= n <= 5" in err

    def test_s1_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "1")
        assert code == 2

    def test_mismatch_fails_the_case_and_exits_1(self, capsys, monkeypatch):
        # a closed form one too high on one case fails that case alone
        def off_by_one(ram):
            return count_rsc(ram) + (str(ram) == "3^1:1;1^1 2^1:1;1^3:1")

        monkeypatch.setattr(ramsys.cli, "count_rsc", off_by_one)
        code, out, _ = run(capsys, "verify", "3")
        assert code == 1
        assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
            "FAIL  3^1:1;1^1 2^1:1;1^3:1  formula=13 oracle=12"
        ]
        assert out.endswith("S_3, r_C <= 1: 8 cases, 7 passed, 1 failed\n")

    def test_oracle_budget_exits_2(self, capsys, monkeypatch):
        for value in vars(ramsys.oracle).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
        monkeypatch.setattr(ramsys.oracle, "ORBIT_POINT_BUDGET", 10)
        code, out, err = run(capsys, "verify", "3", "--max-r", "2")
        assert code == 2
        assert err == "error: class 3^1 with r = 2 needs 18 points, over the budget of 10\n"
        # every class is checked at max_r before the first case is printed
        assert out == ""

    @pytest.mark.parametrize(
        "n, max_r, refused",
        [("3", "11", "class 3^1 with r = 11 needs 354294"), ("5", "6", "class 5^1 with r = 6 needs 375000")],
        ids=["S3-r11", "S5-r6"],
    )
    def test_real_budget_refuses_before_the_first_line(self, capsys, n, max_r, refused):
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", n, "--max-r", max_r)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == f"error: {refused} points, over the budget of 250000\n"

    @pytest.mark.parametrize(
        "argv, prefix",
        [
            (("verify", "4", "--max-r", "3"), "8e5820ab6167c884"),
            (("verify", "5", "--max-r", "2"), "4e6f451126bbbbdd"),
        ],
    )
    def test_stdout_bytes_are_pinned(self, capsys, argv, prefix):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == prefix


class TestClosedFormBytes:
    @pytest.mark.parametrize(
        "argvs, prefix",
        [
            ([("classes", str(n)) for n in range(1, 33)], "dbde7bc13daeb6b4"),
            (
                [
                    ("count", str(n), "--ramification", f"all:{r}", "--format", fmt)
                    for n in range(1, 21)
                    if n != 6
                    for r in range(4)
                    for fmt in ("table", "json")
                ],
                "853d6e186a276472",
            ),
            (
                [
                    ("count", str(n), "--ramification", f"all:{r}", "--format", fmt)
                    for n in range(21, 31)
                    for r in range(4)
                    for fmt in ("table", "json")
                ],
                "2ec0d8e930bed08b",
            ),
            ([("count", "24", "--ramification", "all:3", "--format", "json")], "835059e91723b823"),
            (
                [
                    ("reps", str(n), "--ramification", f"all:{r}", "--limit", "50")
                    for n in range(1, 11)
                    if n != 6
                    for r in range(3)
                ],
                "1bf0b19676c9fcaa",
            ),
        ],
        ids=["classes", "count", "count-21-30", "count-24-json", "reps"],
    )
    def test_stdout_bytes_are_pinned(self, capsys, argvs, prefix):
        digest = hashlib.sha256()
        for argv in argvs:
            code, out, _ = run(capsys, *argv)
            assert code == 0
            digest.update(out.encode())
        assert digest.hexdigest()[:16] == prefix


    def test_s45_classes_bytes_are_pinned(self, capsys):
        # past the pin above: the rows of S_45's 89,134 classes, built pair by pair
        code, out, _ = run(capsys, "classes", "45")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == "a5ca1911e5e14210"


class WriteOnlySink:
    """A stdout with only write and flush, like a pipe wrapper or the
    benchmark's first-item probe: no writelines, no buffer."""

    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)
        return len(text)

    def flush(self):
        pass


class TestWriteOnlyStdout:
    @pytest.mark.parametrize("argv", [
        ("classes", "7"),
        ("count", "5", "--ramification", "all:2"),
        ("count", "5", "--ramification", "all:2", "--format", "json"),
        ("reps", "4", "--ramification", "all:1", "--limit", "20"),
    ], ids=["classes", "count-table", "count-json", "reps"])
    def test_same_bytes_as_captured(self, capsys, monkeypatch, argv):
        code, expected, _ = run(capsys, *argv)
        assert code == 0 and expected
        sink = WriteOnlySink()
        monkeypatch.setattr(sys, "stdout", sink)
        assert main(list(argv)) == 0
        monkeypatch.undo()
        assert "".join(sink.chunks) == expected

    def test_long_header_goes_out_in_bounded_writes(self, capsys, monkeypatch):
        # the u0 of [1048576] is about 7.3 MB of text: it is written in
        # batches of about cli._HEADER_BATCH characters, never as one string,
        # and the first type vector still comes in its own write after the
        # third newline, where the benchmark's first-item probe looks for it
        argv = ["reps", "1048576", "--ramification", "[1048576]:1", "--limit", "1"]
        code, expected, _ = run(capsys, *argv)
        assert code == 0 and len(expected) > 100 * ramsys.cli._HEADER_BATCH
        sink = WriteOnlySink()
        monkeypatch.setattr(sys, "stdout", sink)
        assert main(argv) == 0
        monkeypatch.undo()
        assert "".join(sink.chunks) == expected
        # a 4,096-point piece of 7-digit points is under 8 * 4,096 characters;
        # the last write is the type-vector line
        assert max(map(len, sink.chunks[:-1])) < ramsys.cli._HEADER_BATCH + 8 * 4096
        newlines = list(itertools.accumulate(chunk.count("\n") for chunk in sink.chunks))
        third = newlines.index(3)
        assert sink.chunks[third].endswith("\n")
        # gamma of the 2^20-cycle is 2^20: the one line has that many parts
        assert sink.chunks[third + 1 :] == ["(1" + ",0" * (2**20 - 1) + ")\n"]

    def test_header_is_written_while_its_pieces_are_made(self, monkeypatch):
        # S_25 all:1 has 1,958 classes and a header of 188,597 characters:
        # its first write goes out before the last class's u0 pieces are
        # made, so the pieces of every class are never held at once
        pieces = ramsys.cli.canonical_cycle_pieces
        sink, written = WriteOnlySink(), []

        def spy(lam):
            written.append(any(chunk.startswith("# classes: ") for chunk in sink.chunks))
            return pieces(lam)

        monkeypatch.setattr(ramsys.cli, "canonical_cycle_pieces", spy)
        monkeypatch.setattr(sys, "stdout", sink)
        assert main(["reps", "25", "--ramification", "all:1", "--limit", "0"]) == 0
        monkeypatch.undo()
        assert len(written) == 1958 and written[-1] and not written[0]

    def test_short_header_is_one_write(self, capsys, monkeypatch):
        # S_10 all:1: 42 classes, 323 u0 points, a header of 1,887 characters
        argv = ["reps", "10", "--ramification", "all:1", "--limit", "0"]
        code, out, _ = run(capsys, *argv)
        header = out.splitlines(keepends=True)[1]
        assert code == 0 and header.startswith("# classes: ")
        assert len(header) < ramsys.cli._HEADER_BATCH
        sink = WriteOnlySink()
        monkeypatch.setattr(sys, "stdout", sink)
        assert main(argv) == 0
        monkeypatch.undo()
        assert header in sink.chunks


class TestParserReuse:
    S3_CLASSES = (
        "type     size  centralizer  gamma  factors\n"
        "3^1      2     3            3      3\n"
        "1^1 2^1  3     2            2      2\n"
        "1^3      1     6            2      2\n"
    )
    S3_COUNT_JSON = (
        '{\n  "n": 3,\n  "ramification": [\n'
        '    {\n      "class": "3^1",\n      "r": 1,\n      "gamma": 3\n    },\n'
        '    {\n      "class": "1^1 2^1",\n      "r": 1,\n      "gamma": 2\n    },\n'
        '    {\n      "class": "1^3",\n      "r": 1,\n      "gamma": 2\n    }\n'
        '  ],\n  "count": "12"\n}\n'
    )
    S3_REPS = (
        "# n = 3, ramification: 1^1 2^1:2\n"
        "# classes: 1^1 2^1 (gamma=2, u0=(2 3))\n"
        "# count = 3\n"
        "(2,0)\n(1,1)\n"
    )
    S3_VERIFY = (
        "PASS  (empty)  formula=1 oracle=1\n"
        "PASS  1^3:1  formula=2 oracle=2\n"
        "PASS  1^1 2^1:1  formula=2 oracle=2\n"
        "PASS  1^1 2^1:1;1^3:1  formula=4 oracle=4\n"
        "PASS  3^1:1  formula=3 oracle=3\n"
        "PASS  3^1:1;1^3:1  formula=6 oracle=6\n"
        "PASS  3^1:1;1^1 2^1:1  formula=6 oracle=6\n"
        "PASS  3^1:1;1^1 2^1:1;1^3:1  formula=12 oracle=12\n"
        "S_3, r_C <= 1: 8 cases, 8 passed, 0 failed\n"
    )

    def test_one_parser_serves_every_call(self, capsys, monkeypatch):
        # main must not build a parser per call; a rejected argv or a bad spec
        # must leave the shared parser as it was for the calls after it
        def refuse():
            raise AssertionError("main built a parser")

        monkeypatch.setattr(ramsys.cli, "_build_parser", refuse)
        assert run(capsys, "classes", "3") == (0, self.S3_CLASSES, "")
        assert run(capsys, "count", "3", "--ramification", "all:1", "--format", "json") == (
            0, self.S3_COUNT_JSON, "",
        )
        reps_argv = ("reps", "3", "--ramification", "1^1 2^1:2", "--limit", "2")
        assert run(capsys, *reps_argv) == (0, self.S3_REPS, "")
        assert run(capsys, "verify", "3") == (0, self.S3_VERIFY, "")
        with pytest.raises(SystemExit) as info:
            main(["reps", "3"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith("error: the following arguments are required: --ramification\n")
        assert run(capsys, "count", "3", "--ramification", "3^1:x") == (
            2, "", "error: bad count 'x' (at position 0)\n",
        )
        assert run(capsys, *reps_argv) == (0, self.S3_REPS, "")


class TestReadme:
    def test_command_line_examples_match(self, capsys):
        # every `$ ramsys ...` example in README's "Command line" section,
        # with the output shown under it; `| tail -k` keeps its last k lines
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
        block = section.split("```text\n", 1)[1].split("```", 1)[0]
        examples = block.split("$ ramsys ")[1:]
        assert len(examples) == 5
        for example in examples:
            command, _, shown = example.partition("\n")
            command, _, pipe = command.partition(" | tail -")
            code, out, err = run(capsys, *shlex.split(command))
            assert code == 0 and err == "", command
            if pipe:
                out = "".join(out.splitlines(keepends=True)[-int(pipe):])
            assert out == shown.rstrip("\n") + "\n", command


class TestErrors:
    @pytest.mark.parametrize(
        "error, base",
        [
            (ClassListTooLargeError, ValueError),
            (CountTooLargeError, ValueError),
            (UnsupportedGroupError, ValueError),
            (RamificationParseError, ValueError),
            (OracleBudgetError, RuntimeError),
        ],
    )
    def test_refusals_are_input_errors(self, error, base):
        assert issubclass(error, InputError)
        assert issubclass(error, base)
        assert issubclass(error, ValueError) == (base is ValueError)

    def test_internal_value_error_is_not_a_usage_error(self, monkeypatch):
        def broken(shapes):
            raise ValueError("internal failure")

        monkeypatch.setattr(ramsys.cli, "_count_and_factors", broken)
        with pytest.raises(ValueError, match="internal failure"):
            main(["count", "3", "--ramification", "all:1"])


def checkout_env():
    """The environment of a new interpreter that imports this checkout's ramsys."""
    return {**os.environ, "PYTHONPATH": str(Path(ramsys.__file__).resolve().parents[1])}


def fresh_python(*args, timeout=60):
    """Run a new interpreter that imports this checkout's ramsys."""
    return subprocess.run(
        [sys.executable, *args], env=checkout_env(), capture_output=True, text=True, timeout=timeout
    )


class TestFreshProcess:
    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
    def test_million_point_header_peaks_under_25_mb(self):
        # u0 of [4194304] is 32 MB of text; written as its pieces are made,
        # the whole process peaks at about 17 MB, where a header whose
        # pieces were all gathered first peaked at 47 MB, and one joined
        # whole at more.  The peak is the process's own VmHWM: a child's
        # ru_maxrss starts from the RSS of the process that forked it, here
        # the test runner's
        script = (
            "import sys\n"
            "from ramsys.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "sys.stdout.flush()\n"
            "with open('/proc/self/status') as status:\n"
            "    print(*[line.split()[1] for line in status if line.startswith('VmHWM:')], file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        argv = ["reps", "4194304", "--ramification", "[4194304]:1", "--limit", "0"]
        with subprocess.Popen(
            [sys.executable, "-c", script, *argv], env=checkout_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ) as process:
            digest = hashlib.sha256()
            while chunk := process.stdout.read(2**20):
                digest.update(chunk)
            peak_kb = int(process.stderr.read())
        assert process.returncode == 0
        assert digest.hexdigest()[:16] == "ca5416c82bcaf545"
        assert peak_kb <= 25 * 1024

    def test_only_verify_loads_the_oracle(self):
        script = (
            "import sys\n"
            "from ramsys.cli import main\n"
            "for argv in (['classes', '3'], ['count', '3', '--ramification', 'all:1'],\n"
            "             ['reps', '3', '--ramification', 'all:1', '--limit', '1']):\n"
            "    assert main(argv) == 0\n"
            "print('ramsys.oracle' in sys.modules, file=sys.stderr)\n"
        )
        result = fresh_python("-c", script)
        assert result.returncode == 0
        assert result.stderr == "False\n"
        assert result.stdout.endswith("# count = 12\n(1,0,0) (1,0) (1,0)\n")

    def test_closed_form_commands_load_no_json(self):
        # `count --format json` lays its bytes out by hand, and its class
        # texts need no escaping, so the closed-form commands never import json
        script = (
            "import sys\n"
            "from ramsys.cli import main\n"
            "for argv in (['classes', '3'], ['count', '3', '--ramification', 'all:1'],\n"
            "             ['count', '3', '--ramification', 'all:1', '--format', 'json'],\n"
            "             ['count', '3', '--ramification', '1^1 2^1:2', '--format', 'json'],\n"
            "             ['reps', '3', '--ramification', 'all:1', '--limit', '1']):\n"
            "    assert main(argv) == 0\n"
            "print('json' in sys.modules, file=sys.stderr)\n"
        )
        result = fresh_python("-c", script)
        assert result.returncode == 0
        assert result.stderr == "False\n"
        assert '"class": "1^1 2^1"' in result.stdout

    @pytest.mark.parametrize("argv", [
        ("reps", "10", "--ramification", "all:2"),
        ("classes", "40"),
    ], ids=["reps", "classes"])
    def test_closed_pipe_ends_the_run_quietly(self, argv):
        # `ramsys ... | head -1`: the reader takes one line and leaves while
        # more than a pipe's worth is still to come; the run stops with a
        # shell's SIGPIPE status, 141, and no traceback
        with subprocess.Popen(
            [sys.executable, "-m", "ramsys", *argv], env=checkout_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ) as process:
            assert process.stdout.readline()
            process.stdout.close()
            err = process.stderr.read()
        assert process.returncode == 141
        assert err == b""

    def test_verify_range_exits_2(self):
        result = fresh_python("-m", "ramsys", "verify", "6")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == "error: verify needs 2 <= n <= 5, got n = 6\n"

    @pytest.mark.parametrize(
        "n, max_r", [("3", "9000"), ("3", "10000"), ("3", "10000000"), ("2", "1000000000000")]
    )
    def test_verify_past_the_budget_by_r_alone_exits_2_at_once(self, n, max_r):
        # γ^r is past the budget long before it is past str()'s digit limit
        # or the memory, so it is never built
        start = time.perf_counter()
        result = fresh_python("-m", "ramsys", "verify", n, "--max-r", max_r, timeout=5)
        assert time.perf_counter() - start < 1
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr == (
            f"error: class {n}^1 with r = {max_r} needs more than 250000 points, "
            "over the budget of 250000\n"
        )

    def test_cycle_type_of_another_degree_exits_2(self):
        spec = "[2000000]:1"
        result = fresh_python("-m", "ramsys", "count", "5", "--ramification", spec, timeout=5)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (
            "error: class 2000000^1 has parts summing to 2000000, expected 5 (at position 0)\n"
        )

    def test_degree_past_the_str_digit_limit_exits_2(self):
        # the degree of A^B has about 8,000 digits, past the 4,300 that str()
        # writes by default; the refusal still names it
        length, mult = int("7" * 4000), int("3" * 4000)
        spec = f"{length}^{mult}:1"
        result = fresh_python("-m", "ramsys", "count", "5", "--ramification", spec, timeout=5)
        assert result.returncode == 2 and result.stdout == ""
        prefix = f"error: class {length}^{mult} has parts summing to "
        assert result.stderr.startswith(prefix)
        degree = result.stderr.removeprefix(prefix).removesuffix(", expected 5 (at position 0)\n")
        assert parse_decimal(degree) == length * mult

    def test_gamma_past_the_str_digit_limit_is_printed(self):
        # a^1 b^1 is a class of S_(a+b) with gamma a·b, about 6,000 digits
        a, b = int("5" * 3000), int("4" * 3000)
        argv = ("-m", "ramsys", "count", str(a + b), "--ramification", f"{a}^1 {b}^1:1")
        table = fresh_python(*argv, timeout=5)
        assert table.returncode == 0 and table.stderr == ""
        _, row, total = table.stdout.splitlines()
        gamma_text, factor_text = row.split()[3:]
        assert parse_decimal(gamma_text) == a * b
        assert factor_text == gamma_text and total == f"count = {gamma_text}"
        report = fresh_python(*argv, "--format", "json", timeout=5)
        assert report.returncode == 0 and report.stderr == ""
        assert f'"gamma": {gamma_text}\n' in report.stdout
        assert report.stdout.endswith(f'"count": "{gamma_text}"\n}}\n')
        argv = ("-m", "ramsys", "reps", *argv[3:], "--limit", "1")
        line = fresh_python(*argv, timeout=5)
        assert line.returncode == 2 and line.stdout == ""
        assert line.stderr == (
            f"error: a reps line of S_{a + b} with this ramification has {gamma_text} parts "
            "(gamma summed over the support), over the limit of 4194304\n"
        )

    def test_header_gamma_past_the_str_digit_limit_is_printed(self):
        # under 640 digits, the lowest limit CPython takes, one cycle of each
        # length 2..330 has gamma 330!, 690 digits, on 54,614 u0 points
        parts = range(330, 1, -1)
        spec = "[" + ",".join(map(str, parts)) + "]:1"
        argv = ("reps", str(sum(parts)), "--ramification", spec, "--limit", "0")
        result = fresh_python("-X", "int_max_str_digits=640", "-m", "ramsys", *argv, timeout=5)
        assert result.returncode == 0 and result.stderr == ""
        _, classes, count = result.stdout.splitlines()
        gamma_text = classes.partition("(gamma=")[2].partition(",")[0]
        assert parse_decimal(gamma_text) == factorial(330)
        assert count == f"# count = {gamma_text}"

    def test_header_refusal_past_the_str_digit_limit_exits_2(self):
        # n has 4,300 digits, the most the CLI reads; [n] and [n-k,k] for
        # k = 1..10 move 11n - 1 points, one digit more than str() writes
        n = int("9" * 4300)
        spec = ";".join([f"[{n}]:1"] + [f"[{n - k},{k}]:1" for k in range(1, 11)])
        argv = ("reps", str(n), "--ramification", spec, "--limit", "0")
        result = fresh_python("-m", "ramsys", *argv, timeout=5)
        assert result.returncode == 2 and result.stdout == ""
        prefix = f"error: the classes header of S_{n} with this ramification has "
        assert result.stderr.startswith(prefix)
        moved = result.stderr.removeprefix(prefix).partition(" u0 points ")[0]
        assert parse_decimal(moved) == 11 * n - 1

    def test_reps_of_degree_10_6_builds_no_u0(self):
        spec = "1^1000000:2"
        argv = ("-m", "ramsys", "reps", "1000000", "--ramification", spec, "--limit", "3")
        result = fresh_python(*argv, timeout=5)
        assert result.returncode == 0 and result.stderr == ""
        assert result.stdout == (
            "# n = 1000000, ramification: 1^1000000:2\n"
            "# classes: 1^1000000 (gamma=2, u0=())\n"
            "# count = 3\n(2,0)\n(1,1)\n(0,2)\n"
        )


class TestNoPermutation:
    def test_closed_form_commands_build_none(self, capsys):
        # no module of the library defines a permutation type or its helpers:
        # the commands write u0 as text, and only the tests make permutations
        names = {"Permutation", "_trusted_permutation", "canonical_representative", "cycle_type"}
        for info in pkgutil.iter_modules(ramsys.__path__):
            if info.name != "__main__":
                module = importlib.import_module(f"ramsys.{info.name}")
                assert not names & set(vars(module)), info.name
        for argv in (
            ["classes", "8"],
            ["count", "8", "--ramification", "all:2"],
            ["reps", "8", "--ramification", "all:1", "--limit", "3"],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 0 and err == "", argv
            assert out


class TestNoClassBuilt:
    def test_count_all_r_builds_no_cycle_type_per_class(self, capsys, monkeypatch):
        # `all:r` rows come from the walk's kept prefix, one CycleType per
        # distinct (length, multiplicity) pair and none per class
        calls = []
        trusted = ramsys.perm._trusted_cycle_type
        expected = sorted({(pair,) for lam in enumerate_cycle_types(20) for pair in lam.cycles})

        def counted(n, cycles):
            calls.append(cycles)
            return trusted(n, cycles)

        monkeypatch.setattr(ramsys.perm, "_trusted_cycle_type", counted)
        # the walk's own CycleTypes, one per distinct pair, built unchecked
        pairs = []

        def per_pair(n, cycles):
            pairs.append(cycles)
            return trusted(n, cycles)

        monkeypatch.setattr(ramsys.cli, "_trusted_cycle_type", per_pair)
        for fmt in ("table", "json"):
            pairs.clear()
            code, out, err = run(capsys, "count", "20", "--ramification", "all:1", "--format", fmt)
            assert code == 0 and err == "" and out
            assert sorted(pairs) == expected
        assert calls == []


class TestCheckedOnce:
    """Input is checked once, where it is parsed; what the library builds
    after that, or makes itself (the walk's classes, the odometer's
    vectors, verify's cases), is built without __post_init__.  Each case
    runs one entry point with the three __post_init__ methods made to raise,
    then unpatched, and the two runs must give the same bytes or value."""

    SPEC = "[4,3,2]:6;1^9:8"
    ENTRY_POINTS = {
        "classes-8": ("classes", "8"),
        "count-20-all1-table": ("count", "20", "--ramification", "all:1"),
        "count-20-all1-json": ("count", "20", "--ramification", "all:1", "--format", "json"),
        "count-9-spec": ("count", "9", "--ramification", SPEC),
        "reps-9-spec": ("reps", "9", "--ramification", SPEC, "--limit", "1"),
        "reps-8-all1": ("reps", "8", "--ramification", "all:1", "--limit", "3"),
        "reps-3-all0": ("reps", "3", "--ramification", "all:0"),
        "verify-4": ("verify", "4", "--max-r", "1"),
        "parse_ramification-all1": lambda: parse_ramification("all:1", 20),
        "parse_ramification-spec": lambda: parse_ramification(TestCheckedOnce.SPEC, 9),
        "enumerate_cycle_types": lambda: enumerate_cycle_types(20),
        "enumerate_types-spec": lambda: [
            (v.entries, str(v)) for v in enumerate_types(parse_ramification("[4,3,2]:2;1^9:1", 9))
        ],
        "enumerate_types-empty": lambda: [
            (v.entries, str(v)) for v in enumerate_types(parse_ramification("all:0", 3))
        ],
        "CycleType.parse-tokens": lambda: CycleType.parse("1^2 3^1"),
        "CycleType.parse-parts": lambda: CycleType.parse("[3, 1, 1]"),
        "CycleType.from_parts": lambda: CycleType.from_parts([1, 3, 1]),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_entry_point_runs_no_post_init(self, capsys, monkeypatch, entry):
        call = self.ENTRY_POINTS[entry]
        outcome = call if callable(call) else lambda: run(capsys, *call)

        def refuse(obj):
            raise AssertionError(f"{type(obj).__name__}.__post_init__ ran")

        with monkeypatch.context() as patch:
            for cls in (CycleType, Ramification, RSCTypeVector):
                patch.setattr(cls, "__post_init__", refuse)
            unchecked = outcome()
            # the control: direct construction still runs the (patched) check
            for cls, args in ((CycleType, (1, ((1, 1),))), (Ramification, (1, ())), (RSCTypeVector, ((),))):
                with pytest.raises(AssertionError, match=f"{cls.__name__}.__post_init__ ran"):
                    cls(*args)
        expected = outcome()
        assert unchecked == expected
        assert repr(unchecked) == repr(expected)
