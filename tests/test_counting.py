import collections
import itertools
import random
import sys
import tracemalloc
from math import prod

import pytest

import ramsys.counting
from ramsys.centralizer import gamma
from ramsys.combinat import multiset_coefficient, weak_compositions
from ramsys.counting import (
    MAX_COUNT_DIGITS,
    CountTooLargeError,
    Ramification,
    RamificationParseError,
    RSCTypeVector,
    UnsupportedGroupError,
    _listed_ramification,
    count_report,
    count_rsc,
    count_rsc_stirling,
    decimal_string,
    enumerate_types,
    parse_ramification,
)
from ramsys.perm import ClassListTooLargeError, CycleType, enumerate_cycle_types
from reference import all_ones, parse_decimal, parts


def identity_only(n, r):
    return Ramification(n, ((CycleType.from_parts([1] * n), r),))


def random_ramification(rng, n, max_r=5):
    entries = []
    for lam in enumerate_cycle_types(n):
        if rng.random() < 0.7:
            entries.append((lam, rng.randint(0, max_r)))
    return Ramification(n, tuple(entries))


class TestRamification:
    def test_all_ones(self):
        ram = all_ones(3)
        assert len(ram.entries) == 3
        assert all(mult == 1 for _, mult in ram.entries)

    def test_zero_entries_dropped(self):
        lam3 = CycleType.parse("3^1")
        lam111 = CycleType.parse("1^3")
        ram = Ramification(3, ((lam111, 0), (lam3, 2)))
        assert ram.entries == ((lam3, 2),)
        assert dict(ram.entries).get(lam3, 0) == 2
        assert dict(ram.entries).get(lam111, 0) == 0

    def test_entries_in_canonical_order(self):
        ram = all_ones(4)
        assert [str(lam) for lam, _ in ram.entries] == [
            "4^1",
            "1^1 3^1",
            "2^2",
            "1^2 2^1",
            "1^4",
        ]

    def test_rejects_foreign_class(self):
        with pytest.raises(ValueError):
            Ramification(3, ((CycleType.parse("2^2"), 1),))
        with pytest.raises(ValueError, match="n must be positive"):
            Ramification(0, ())

    def test_rejects_negative_and_duplicates(self):
        lam = CycleType.parse("3^1")
        with pytest.raises(ValueError):
            Ramification(3, ((lam, -1),))
        with pytest.raises(ValueError):
            Ramification(3, ((lam, 1), (lam, 2)))

    def test_spec_string_roundtrip(self):
        ram = all_ones(4)
        assert parse_ramification(str(ram), 4) == ram
        assert str(Ramification(3, ())) == "(empty)"


class TestCountRsc:
    def test_headline_counts(self):
        assert count_rsc(all_ones(3)) == 12
        assert count_rsc(all_ones(4)) == 384
        assert count_rsc(all_ones(5)) == 23040

    def test_identity_class_only(self):
        assert count_rsc(identity_only(2, 5)) == 6
        for n in (2, 3, 4, 5, 7):
            for r in range(0, 11):
                assert count_rsc(identity_only(n, r)) == r + 1
        for r in range(0, 11):
            assert count_rsc(identity_only(1, r)) == 1

    def test_empty_support(self):
        assert count_rsc(Ramification(4, ())) == 1

    def test_all_ones_is_product_of_gamma(self):
        for n in (1, 2, 3, 4, 5, 7, 8):
            expected = prod(gamma(lam) for lam in enumerate_cycle_types(n))
            assert count_rsc(all_ones(n)) == expected

    def test_rejects_s6(self):
        with pytest.raises(UnsupportedGroupError, match="n != 6"):
            count_rsc(all_ones(6))

    def test_balanced_product_matches_stirling_at_mid_size(self):
        # p(29) = 4,565 and p(30) = 5,604 factors: both end in a short run
        # of factors, and some round of the product tree carries an
        # unpaired partial product
        for n in (29, 30):
            ram = all_ones(n)
            assert count_rsc(ram) == count_rsc_stirling(ram)

    def test_adding_a_class_multiplies_the_count(self):
        rng = random.Random(41)
        for n in (3, 4, 5, 7):
            classes = enumerate_cycle_types(n)
            for _ in range(20):
                base = random_ramification(rng, n, max_r=3)
                absent = [lam for lam in classes if dict(base.entries).get(lam, 0) == 0]
                if not absent:
                    continue
                lam = rng.choice(absent)
                r = rng.randint(1, 4)
                grown = Ramification(n, base.entries + ((lam, r),))
                assert count_rsc(grown) == count_rsc(base) * multiset_coefficient(
                    gamma(lam), r
                )


class TestCountRscStirling:
    def test_headline(self):
        assert count_rsc_stirling(all_ones(3)) == 12

    def test_all_ones_matches_gamma_product(self):
        for n in (1, 2, 3, 4, 5, 7, 8):
            expected = prod(gamma(lam) for lam in enumerate_cycle_types(n))
            assert count_rsc_stirling(all_ones(n)) == expected

    def test_agrees_with_count_rsc_random(self):
        rng = random.Random(97)
        for _ in range(500):
            n = rng.choice((2, 3, 4, 5, 7))
            ram = random_ramification(rng, n)
            assert count_rsc_stirling(ram) == count_rsc(ram)

    def test_rejects_s6(self):
        with pytest.raises(UnsupportedGroupError):
            count_rsc_stirling(all_ones(6))


# the twelve type families of S_3 with every multiplicity 1, keyed by class
S3_ALL_ONES_FAMILIES = {
    (t3, t21, t111)
    for t3 in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for t21 in ((1, 0), (0, 1))
    for t111 in ((1, 0), (0, 1))
}


class TestEnumerateTypes:
    def test_s3_all_ones_families(self):
        ram = all_ones(3)
        vectors = list(enumerate_types(ram))
        assert len(vectors) == 12
        observed = set()
        for vector in vectors:
            by_class = {str(lam): comp for lam, comp in vector.entries}
            observed.add((by_class["3^1"], by_class["1^1 2^1"], by_class["1^3"]))
        assert observed == S3_ALL_ONES_FAMILIES

    def test_documented_order(self):
        # Cartesian product over support classes in canonical order, each
        # class running through its weak compositions in descending lex order
        ram = all_ones(3)
        first = next(enumerate_types(ram))
        assert str(first) == "(1,0,0) (1,0) (1,0)"
        vectors = [str(v) for v in enumerate_types(ram)]
        assert vectors[0:2] == ["(1,0,0) (1,0) (1,0)", "(1,0,0) (1,0) (0,1)"]
        assert vectors[-1] == "(0,0,1) (0,1) (0,1)"

    def test_empty_support(self):
        vectors = list(enumerate_types(Ramification(4, ())))
        assert vectors == [RSCTypeVector(())]

    def test_single_class_compositions(self):
        ram = identity_only(4, 2)
        assert [comp for v in enumerate_types(ram) for _, comp in v.entries] == [
            (2, 0),
            (1, 1),
            (0, 2),
        ]

    def test_stream_length_equals_count(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.choice((2, 3, 4))
            ram = random_ramification(rng, n, max_r=3)
            assert sum(1 for _ in enumerate_types(ram)) == count_rsc(ram)

    def test_no_duplicates(self):
        ram = all_ones(4)
        vectors = list(enumerate_types(ram))
        assert len(vectors) == len(set(vectors)) == 384

    def test_rejects_s6(self):
        with pytest.raises(UnsupportedGroupError):
            next(enumerate_types(all_ones(6)))

    def test_trusted_vectors_equal_validated(self):
        # the stream builds vectors without __post_init__; they must be the
        # vectors the public constructor gives for the itertools.product order
        rng = random.Random(29)
        checked = 0
        while checked < 40:
            ram = random_ramification(rng, rng.randint(1, 5), max_r=3)
            if count_rsc(ram) > 3000:
                continue
            classes = [lam for lam, _ in ram.entries]
            compositions = [list(weak_compositions(r, gamma(lam))) for lam, r in ram.entries]
            expected = [
                RSCTypeVector(tuple(zip(classes, combo)))
                for combo in itertools.product(*compositions)
            ]
            observed = list(enumerate_types(ram))
            assert observed == expected, str(ram)
            assert [hash(v) for v in observed] == [hash(v) for v in expected]
            assert [str(v) for v in observed] == [str(v) for v in expected]
            checked += 1

    def test_carried_text_matches_a_fresh_join(self):
        # the odometer rewrites only the texts a carry changed; every line must
        # still be the whole join, and the vector must be the one the public
        # constructor builds; 2,000 lines of S_8 all:1 carry into the last 5
        # of its 22 classes, restarting up to 4 streams at once
        rng = random.Random(41)
        rams = [Ramification(4, ()), all_ones(1), identity_only(1, 3)]
        for _ in range(30):
            n = rng.choice((1, 2, 3, 4, 5, 7, 8))
            classes = enumerate_cycle_types(n)
            picked = rng.sample(classes, rng.randint(0, min(4, len(classes))))
            rams.append(Ramification(n, tuple((lam, rng.randint(1, 4)) for lam in picked)))
        streams = [itertools.islice(enumerate_types(ram), 300) for ram in rams]
        streams.append(itertools.islice(enumerate_types(all_ones(8)), 2000))
        lines = 0
        for vector in itertools.chain(*streams):
            expected = " ".join(
                "(" + ",".join(str(part) for part in composition) + ")"
                for _, composition in vector.entries
            )
            assert str(vector) == expected
            rebuilt = RSCTypeVector(vector.entries)
            assert vector == rebuilt and hash(vector) == hash(rebuilt)
            assert str(rebuilt) == expected
            assert "text" not in repr(vector)
            lines += 1
        assert lines > 2000

    def test_prefix_work_is_bounded(self, monkeypatch):
        # the first vector draws one composition, the last class's: the
        # classes before it hold their shape's first composition without a
        # cursor (drawing it at each restart drew 410 here); each further
        # vector draws at most two.  At S_20 all:1 k = 1, 2, 7, 64 draw 1, 2, 6, 14
        import ramsys.counting

        drawn = 0

        def counting_compositions(total, parts):
            nonlocal drawn
            for composition in weak_compositions(total, parts):
                drawn += 1
                yield composition

        monkeypatch.setattr(ramsys.counting, "weak_compositions", counting_compositions)
        ram = all_ones(20)
        for k in (1, 2, 7, 64):
            drawn = 0
            vectors = list(itertools.islice(enumerate_types(ram), k))
            assert len(vectors) == k
            assert drawn <= 1 + 2 * (k - 1)

    @staticmethod
    def count_draws(monkeypatch):
        # compositions drawn from weak_compositions by enumerate_types, per
        # shape (r, gamma)
        drawn = collections.Counter()

        def counting_compositions(total, parts):
            for composition in weak_compositions(total, parts):
                drawn[total, parts] += 1
                yield composition

        monkeypatch.setattr(ramsys.counting, "weak_compositions", counting_compositions)
        return drawn

    @pytest.mark.parametrize("n, spec", [(5, "all:1"), (4, "all:2"), (3, "1^1 2^1:2;1^3:2")])
    def test_full_drain_draws_each_shape_once(self, monkeypatch, n, spec):
        # restarted classes read copies of their shape's one tee; a shape
        # shared by several classes, the first among them, is drawn once in all
        drawn = self.count_draws(monkeypatch)
        ram = parse_ramification(spec, n)
        assert sum(1 for _ in enumerate_types(ram)) == count_rsc(ram)
        shapes = {(r, gamma(lam)) for lam, r in ram.entries}
        assert dict(drawn) == {(r, g): multiset_coefficient(g, r) for r, g in shapes}

    def test_long_prefix_draws_each_shape_at_most_once(self, monkeypatch):
        # S_7 all:2 has about 5.2e21 vectors; 20,000 of them run its last
        # classes through many restarts without drawing any composition twice
        drawn = self.count_draws(monkeypatch)
        ram = parse_ramification("all:2", 7)
        assert len(list(itertools.islice(enumerate_types(ram), 20000))) == 20000
        for (r, g), k in drawn.items():
            assert k <= multiset_coefficient(g, r)
        last_r, last_lam = ram.entries[-1][1], ram.entries[-1][0]
        assert drawn[last_r, gamma(last_lam)] == multiset_coefficient(gamma(last_lam), last_r)

    def test_shape_over_the_budget_restarts_its_own_stream(self, monkeypatch):
        # 1^2 3^1 5^1 at r = 3 has 4,960 compositions of 30 parts, over the
        # replay budget: it is drawn afresh after each of the 10 carries
        drawn = self.count_draws(monkeypatch)
        ram = parse_ramification("[10]:1;1^2 3^1 5^1:3", 10)
        assert ramsys.counting._REPLAY_PARTS < 4960 * 30
        assert sum(1 for _ in enumerate_types(ram)) == 49600
        assert dict(drawn) == {(1, 10): 10, (3, 30): 10 * 4960}

    def test_any_budget_gives_the_product_order(self, monkeypatch):
        # with a small budget some shapes replay and others restart their
        # own streams; either way the vectors are the itertools.product ones.
        # Over these supports a budget of 40 parts takes both branches of
        # each room test in enumerate_types, and reaches every line of it and
        # of _cursor that the budgets 0, 12, 150 and 10**9 reach (a line trace)
        monkeypatch.setattr(ramsys.counting, "_REPLAY_PARTS", 40)
        rng = random.Random(53)
        rams = [
            parse_ramification(spec, n)
            for n, spec in [
                (5, "all:1"),  # (1, 4) shared by classes 1, 4, 5 and (1, 6) by 2, 3
                (4, "4^1:2;1^1 3^1:1;1^2 2^1:2"),  # the last class's shape is the first's
                (3, "1^1 2^1:2;1^3:2"),  # ... and it is the only shape
                (5, "1^1 4^1:1;1^3 2^1:3;1^5:4"),
            ]
        ] + [random_ramification(rng, rng.choice((3, 4)), max_r=2) for _ in range(4)]
        for ram in rams:
            classes = [lam for lam, _ in ram.entries]
            compositions = [list(weak_compositions(r, gamma(lam))) for lam, r in ram.entries]
            expected = [
                RSCTypeVector(tuple(zip(classes, combo)))
                for combo in itertools.product(*compositions)
            ]
            observed = list(enumerate_types(ram))
            assert observed == expected, str(ram)
            assert [str(v) for v in observed] == [str(v) for v in expected], str(ram)

    def test_drain_memory_is_bounded(self):
        # the replay tees hold at most _REPLAY_PARTS parts, and the first
        # class, which never restarts, keeps none: draining 22,880 vectors
        # whose first class has 11,440 compositions holds a few KB
        ram = parse_ramification("1^10:1;[10]:7", 10)
        tracemalloc.start()
        try:
            drained = sum(1 for _ in enumerate_types(ram))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert drained == 22880
        assert peak < 2**20

    def test_block_makes_no_cursor_after_its_first_walk(self, monkeypatch):
        # S_8 all:1 ends in 1^6 2^1 and 1^8 (γ 4 and 2): the block of those two
        # is 8 lines.  Once the stream has walked it, every restart copies its
        # tee, so a cursor is made only at a block boundary, where a class
        # before the block carries; walking it afresh makes cursors inside it
        made, line = [], 0
        real = ramsys.counting._cursor

        def counting_cursor(shape, replays):
            made.append(line)
            return real(shape, replays)

        monkeypatch.setattr(ramsys.counting, "_cursor", counting_cursor)
        ram = all_ones(8)
        block = prod(gamma(lam) for lam, _ in ram.entries[-2:])
        assert block == 8
        stream = enumerate_types(ram)
        for line in range(1000):
            next(stream)
        assert any(0 < k < block for k in made)  # the first walk makes the block's cursors
        assert [k for k in made if k >= block and k % block] == []
        assert len([k for k in made if k >= block]) < 1000 // block

    @pytest.mark.parametrize("budget", [0, 40, 300, 10**9])
    def test_block_or_none_gives_the_product_order(self, monkeypatch, budget):
        # the odometer runs once per enumeration without a block and twice
        # with one (the block's classes, then the classes before it); at a
        # budget of 300 parts both happen over these supports, and the
        # vectors and texts are the itertools.product ones either way
        monkeypatch.setattr(ramsys.counting, "_REPLAY_PARTS", budget)
        runs = []
        real = ramsys.counting._lines

        def counting_lines(*args):
            runs.append(len(args[0]))
            return real(*args)

        monkeypatch.setattr(ramsys.counting, "_lines", counting_lines)
        specs = [(4, "all:1"), (4, "4^1:2;1^1 3^1:1;1^2 2^1:2"), (3, "1^1 2^1:2;1^3:2"),
                 (5, "1^1 4^1:1;1^3 2^1:3;1^5:4"), (4, "4^1:1")]
        kinds = set()
        for n, spec in specs:
            ram = parse_ramification(spec, n)
            runs.clear()
            classes = [lam for lam, _ in ram.entries]
            compositions = [list(weak_compositions(r, gamma(lam))) for lam, r in ram.entries]
            expected = [
                RSCTypeVector(tuple(zip(classes, combo)))
                for combo in itertools.product(*compositions)
            ]
            observed = list(enumerate_types(ram))
            assert observed == expected, spec
            assert [str(v) for v in observed] == [str(v) for v in expected], spec
            blocked = len(runs) == 2
            kinds.add(blocked)
            assert runs == ([1, len(classes) - 2] if blocked else [len(classes) - 1]), spec
            if budget == 0:
                assert not blocked
            if budget == 10**9:
                assert blocked == (len(classes) > 2)
        if budget == 300:
            assert kinds == {True, False}

    def test_block_memory_is_bounded(self):
        # the last two classes have 816 and 5 compositions: their product,
        # 4,080 lines of 18 parts, is over the room, so no block is recorded,
        # and a drain holds a few hundred KB
        ram = parse_ramification("[10]:1;1^2 8^1:3;1^10:4", 10)
        assert [gamma(lam) for lam, _ in ram.entries] == [10, 16, 2]
        assert 816 * 5 * 18 > ramsys.counting._REPLAY_PARTS
        tracemalloc.start()
        try:
            drained = sum(1 for _ in enumerate_types(ram))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert drained == 10 * 816 * 5
        assert peak < 2**20

    def test_vector_validation(self):
        lam = CycleType.parse("3^1")
        with pytest.raises(ValueError):
            RSCTypeVector(((lam, (1, 0)),))  # gamma is 3, tuple too short
        with pytest.raises(ValueError):
            RSCTypeVector(((lam, (1, -1, 1)),))


class TestParseRamification:
    def test_all_ones(self):
        assert parse_ramification("all:1", 3) == all_ones(3)

    def test_two_entries(self):
        ram = parse_ramification("1^3:2;3^1:1", 3)
        assert dict(ram.entries) == {CycleType.parse("1^3"): 2, CycleType.parse("3^1"): 1}

    def test_bracket_form_and_spaces(self):
        ram = parse_ramification(" [3] : 1 ; 1^3 : 2 ", 3)
        assert dict(ram.entries) == {CycleType.parse("3^1"): 1, CycleType.parse("1^3"): 2}

    def test_all_k(self):
        ram = parse_ramification("all:3", 4)
        assert all(mult == 3 for _, mult in ram.entries)
        assert len(ram.entries) == 5

    def test_wrong_sum_rejected(self):
        with pytest.raises(RamificationParseError):
            parse_ramification("2^1:1", 3)

    def test_malformed_entries(self):
        for text in ("", ";", "1^3", "1^3:x", "1^3:-1", "bogus:1", "1^3:1;1^3:2"):
            with pytest.raises(RamificationParseError):
                parse_ramification(text, 3)

    def test_all_cannot_mix(self):
        with pytest.raises(RamificationParseError):
            parse_ramification("all:1;1^3:1", 3)

    def test_error_position(self):
        with pytest.raises(RamificationParseError) as info:
            parse_ramification("1^3:1;2^1:1", 3)
        assert info.value.position == 6
        assert "position 6" in str(info.value)

    @pytest.mark.parametrize(
        "spec, position",
        [
            ("3^1:1; ;1^3:1", 7),
            ("3^1:1;  1^3", 8),
            ("3^1:1; 1^3:x", 7),
            ("3^1:1;1^3:-1", 6),
            ("3^1:1; all:1", 7),
            ("all:1;3^1:1", 0),
            ("3^1:1;  4^1:1", 8),
            ("3^1:1; 1^1 1^2:1", 7),
            ("3^1:1;1^3:1; [3]:2", 13),
            ("3^1:1;", 6),
        ],
    )
    def test_error_positions_point_past_leading_blanks(self, spec, position):
        with pytest.raises(RamificationParseError) as info:
            parse_ramification(spec, 3)
        assert info.value.position == position

    def test_zero_counts_allowed(self):
        ram = parse_ramification("1^3:0;3^1:2", 3)
        assert ram.entries == ((CycleType.parse("3^1"), 2),)

    def test_rejects_s6(self):
        with pytest.raises(UnsupportedGroupError):
            parse_ramification("all:1", 6)
        with pytest.raises(ValueError, match="n must be positive"):
            parse_ramification("1^1:1", 0)

    def test_all_r_equals_validated_ramification(self):
        def same(ram, expected):
            assert ram == expected
            assert ram.entries == expected.entries
            assert hash(ram) == hash(expected)
            assert str(ram) == str(expected)

        for n in (1, 2, 3, 4, 5, 7, 8):
            for r in (0, 1, 3):
                expected = Ramification(n, tuple((lam, r) for lam in enumerate_cycle_types(n)))
                same(parse_ramification(f"all:{r}", n), expected)
            assert parse_ramification("all:0", n).entries == ()
            assert all_ones(n) == parse_ramification("all:1", n)
        # the cases verify builds: one count per listed class, zeros included
        rng = random.Random(11)
        for n in range(1, 6):
            classes = enumerate_cycle_types(n)
            for _ in range(30):
                counts = tuple(rng.choice((0, 0, 1, 2, 4)) for _ in classes)
                expected = Ramification(n, tuple(zip(classes, counts)))
                same(_listed_ramification(n, classes, counts), expected)
        # explicit specs, in any entry order and either class notation
        for n in (1, 2, 3, 4, 5, 7, 8):
            classes = enumerate_cycle_types(n)
            for _ in range(20):
                counts = [(lam, rng.choice((0, 1, 3))) for lam in classes]
                entries = rng.sample(counts, rng.randint(1, len(classes)))
                spec = ";".join(f"{rng.choice((lam, list(parts(lam))))}:{r}" for lam, r in entries)
                same(parse_ramification(spec, n), Ramification(n, tuple(entries)))

    def test_all_r_is_bounded(self, no_class_built):
        with pytest.raises(ClassListTooLargeError):
            parse_ramification("all:1", 90)
        with pytest.raises(ClassListTooLargeError):
            all_ones(90)
        assert parse_ramification("all:0", 90).entries == ()
        ram = parse_ramification("1^90:3", 90)
        assert count_rsc(ram) == multiset_coefficient(2, 3)


class TestCountReport:
    def test_schema(self):
        report = count_report(parse_ramification("all:1", 3))
        assert report["n"] == 3
        assert report["count"] == "12"
        assert report["ramification"] == [
            {"class": "3^1", "r": 1, "gamma": 3},
            {"class": "1^1 2^1", "r": 1, "gamma": 2},
            {"class": "1^3", "r": 1, "gamma": 2},
        ]

    def test_roundtrip(self):
        rng = random.Random(55)
        for _ in range(25):
            n = rng.choice((2, 3, 4, 5, 7))
            ram = random_ramification(rng, n)
            report = count_report(ram)
            rebuilt = Ramification(
                n, tuple((CycleType.parse(entry["class"]), entry["r"]) for entry in report["ramification"])
            )
            assert count_rsc(rebuilt) == int(report["count"])


    def test_refuses_a_count_past_the_digit_limit(self, monkeypatch):
        monkeypatch.setattr(ramsys.counting, "MAX_COUNT_DIGITS", 1)
        with pytest.raises(CountTooLargeError, match="up to 2 digits, over the limit of 1"):
            count_report(parse_ramification("all:1", 3))


class TestDecimalString:
    def test_equals_str_below_the_limit(self):
        rng = random.Random(7)
        values = [0, 1, 9, 10, 10**511, 10**512 - 1, 10**512, 10**512 + 1, 10**4000 - 1]
        values += [rng.randrange(10 ** rng.randint(1, 4000)) for _ in range(200)]
        for value in values:
            assert decimal_string(value) == str(value)
            assert decimal_string(-value) == str(-value)

    def test_round_trips_past_the_limit(self):
        rng = random.Random(8)
        for digits in (4301, 5000, 12_345, 40_000):
            value = rng.randrange(10 ** (digits - 1), 10**digits)
            for probe in (value, 10 ** (digits - 1), 10**digits - 1, value * 10**1024):
                text = decimal_string(probe)
                assert text.isdigit() and text[0] != "0"
                assert parse_decimal(text) == probe

    def test_leaves_the_digit_limit_alone(self):
        before = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        decimal_string(7**20_000)
        after = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        assert after == before


class TestPrintableGammas:
    """The gammas that count_report (and `count` and `reps`) print once the
    digit bound on the count admits them."""

    def test_bound_covers_the_count(self, monkeypatch):
        # with the limit one below the count's true length, every count is
        # refused: the bound never falls short
        rng = random.Random(61)
        for _ in range(60):
            n = rng.choice((2, 3, 4, 5, 7, 8, 10))
            ram = random_ramification(rng, n, max_r=rng.choice((1, 5, 40)))
            digits = len(str(count_rsc(ram)))
            monkeypatch.setattr(ramsys.counting, "MAX_COUNT_DIGITS", digits - 1)
            with pytest.raises(CountTooLargeError):
                count_report(ram)

    def test_bound_is_exact_at_r1(self, monkeypatch):
        # C(γ, 1) = γ = (γ + 1 - 1)^min(1, γ - 1) for γ >= 2
        for n in (5, 10, 20):
            ram = parse_ramification("all:1", n)
            monkeypatch.setattr(ramsys.counting, "MAX_COUNT_DIGITS", len(str(count_rsc(ram))))
            report = count_report(ram)
            assert [entry["gamma"] for entry in report["ramification"]] == [gamma(lam) for lam, _ in ram.entries]

    def test_bound_is_exact_at_gamma_2(self, monkeypatch):
        # C(2 + r - 1, r) = r + 1 = (2 + r - 1)^min(r, 2 - 1), on 1^n's γ = 2
        for r in (1, 9, 10, 99, 12_345):
            monkeypatch.setattr(ramsys.counting, "MAX_COUNT_DIGITS", len(str(r + 1)))
            assert count_report(parse_ramification(f"1^5:{r}", 5))["count"] == str(r + 1)

    def test_s45_all2_is_printable_and_all3_is_not(self, monkeypatch):
        # bounded by 668,340 and 1,002,599 digits; the count past the bound,
        # 641,479 digits, is not worked out here
        class Admitted(Exception):
            pass

        def admitted(ram):
            raise Admitted

        def refused(*args):
            raise AssertionError("a factor was built")

        ram = parse_ramification("all:2", 45)
        monkeypatch.setattr(ramsys.counting, "count_rsc", admitted)
        with pytest.raises(Admitted):
            count_report(ram)
        monkeypatch.setattr(ramsys.counting, "multiset_coefficient", refused)
        classes = [lam for lam, _ in ram.entries]
        refusal = f"up to 1002599 digits, over the limit of {MAX_COUNT_DIGITS}"
        with pytest.raises(CountTooLargeError, match=refusal):
            count_report(_listed_ramification(45, classes, itertools.repeat(3)))
