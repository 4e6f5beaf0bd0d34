import itertools
import random
import time
import tracemalloc
from collections import Counter
from math import factorial

import pytest

import ramsys.perm
from ramsys.perm import (
    MAX_CLASS_LIST_N,
    ClassListTooLargeError,
    CycleType,
    Permutation,
    canonical_representative,
    centralizer_order,
    class_size,
    cycle_decomposition,
    cycle_string,
    cycle_type,
    enumerate_cycle_types,
)
from reference import compose, conjugate, cycle_count, inverse, parts, symmetric_group


def reference_partitions(n, largest=None):
    """Partitions of n as descending part tuples, in descending lexicographic order."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in reference_partitions(n - part, part):
            yield (part, *rest)


def partition_counts(limit):
    """p(0), ..., p(limit) by the coin-change recurrence."""
    ways = [1] + [0] * limit
    for part in range(1, limit + 1):
        for total in range(part, limit + 1):
            ways[total] += ways[total - part]
    return ways


def perm(*images):
    return Permutation(tuple(images))


def reference_cycle_type(p):
    """The cycle type from each point's orbit length, found by iterating p:
    the l points on an l-cycle each have orbit length l."""
    lengths = []
    for x in range(1, p.n + 1):
        length, y = 1, p(x)
        while y != x:
            length, y = length + 1, p(y)
        lengths.append(length)
    cycles = sorted(((i, points // i) for i, points in Counter(lengths).items()), reverse=True)
    return CycleType(p.n, tuple(cycles))


def assert_same_permutation(result, images):
    """result equals, and hashes like, the validated Permutation(images)."""
    checked = Permutation(tuple(images))
    assert type(result) is Permutation
    assert result == checked and hash(result) == hash(checked)


class TestPermutation:
    def test_rejects_non_bijections(self):
        with pytest.raises(ValueError):
            perm(1, 1, 3)
        with pytest.raises(ValueError):
            perm(0, 1)
        with pytest.raises(ValueError):
            perm(2, 3)

    def test_identity_and_call(self):
        e = Permutation.identity(4)
        assert e.images == (1, 2, 3, 4)
        assert e(3) == 3

    def test_from_cycles(self):
        p = Permutation.from_cycles(5, [(1, 2), (3, 4, 5)])
        assert p.images == (2, 1, 4, 5, 3)
        with pytest.raises(ValueError):
            Permutation.from_cycles(3, [(1, 2), (2, 3)])
        with pytest.raises(ValueError):
            Permutation.from_cycles(3, [(1, 4)])
        with pytest.raises(ValueError, match="non-empty"):
            Permutation.from_cycles(3, [()])
        with pytest.raises(ValueError, match="non-empty"):
            Permutation.from_cycles(3, [(1, 2), ()])


class TestCycleDecomposition:
    def test_identity(self):
        cycles = cycle_decomposition(Permutation.identity(3))
        assert cycles == [(1,), (2,), (3,)]

    def test_single_three_cycle(self):
        assert cycle_decomposition(perm(2, 3, 1)) == [(1, 2, 3)]

    def test_disjoint_cycles(self):
        # 1->2, 2->1, 3->4, 4->5, 5->3
        assert cycle_decomposition(perm(2, 1, 4, 5, 3)) == [(1, 2), (3, 4, 5)]

    def test_partitions_all_points_and_is_anchored(self):
        rng = random.Random(11)
        every = [p for n in range(1, 7) for p in symmetric_group(n)]
        sampled = [Permutation(tuple(rng.sample(range(1, 8), 7))) for _ in range(100)]
        for p in every + sampled:
            cycles = cycle_decomposition(p)
            assert all(type(c) is tuple for c in cycles)
            points = [x for c in cycles for x in c]
            assert sorted(points) == list(range(1, p.n + 1))
            anchors = [c[0] for c in cycles]
            assert anchors == sorted(anchors)
            for c in cycles:
                assert c[0] == min(c)
                for src, dst in zip(c, c[1:] + c[:1]):
                    assert p(src) == dst
            assert Permutation.from_cycles(p.n, cycles) == p


class TestCycleType:
    def test_examples(self):
        assert str(cycle_type(Permutation.identity(3))) == "1^3"
        assert str(cycle_type(perm(2, 3, 1))) == "3^1"
        assert str(cycle_type(Permutation.from_cycles(5, [(1, 2), (3, 4, 5)]))) == "2^1 3^1"

    def test_validation(self):
        refused = [
            (3, ((1, 1), (2, 1))),  # lengths rise
            (4, ((2, 1), (2, 1))),  # a repeated length
            (3, ((3, 1), (0, 2))),  # a length of 0
            (3, ((3, 1), (1, 0))),  # a multiplicity of 0
            (3, ((3, 1), (1, -1))),  # a negative multiplicity
            (3, ((3, 1), (1, 1))),  # parts sum to 4, not 3
            (3, ((2, 1),)),  # parts sum to 2, not 3
            (0, ()),  # n = 0
        ]
        for n, cycles in refused:
            with pytest.raises(ValueError):
                CycleType(n, cycles)
        with pytest.raises(ValueError, match="positive"):
            CycleType.from_parts([2, 0])
        assert CycleType(3, ((2, 1), (1, 1))) == CycleType.parse("1^1 2^1")

    def test_parse_token_form(self):
        lam = CycleType.parse("1^1 2^2")
        assert lam.n == 5
        assert lam.cycles == ((2, 2), (1, 1))
        assert str(lam) == "1^1 2^2"

    def test_stores_only_the_lengths_present(self):
        tracemalloc.start()
        try:
            lam = CycleType.parse("1^999998 2^1")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert lam.cycles == ((2, 1), (1, 999998))

    def test_parse_bracket_form(self):
        assert CycleType.parse("[2,2,1]") == CycleType.parse("1^1 2^2")

    def test_parse_rejects_garbage(self):
        for text in ("", "2^", "^2", "1^0", "0^1", "x", "[1,2", "[]", "[2,x]", "1^1 1^2"):
            with pytest.raises(ValueError):
                CycleType.parse(text)

    def test_degree_limit(self, monkeypatch):
        monkeypatch.setattr(ramsys.perm, "MAX_CYCLE_TYPE_N", 100)
        assert CycleType.parse("1^1 3^33").n == 100
        assert CycleType.parse("[100]").n == 100
        assert CycleType.from_parts([50, 50]).n == 100
        refusals = [
            lambda: CycleType.parse("1^101"),
            lambda: CycleType.parse("1^2 3^33"),
            lambda: CycleType.parse("[101]"),
            lambda: CycleType.parse("[50,50,1]"),
            lambda: CycleType.from_parts([50, 51]),
            # refused before anything of that size is built: a vector of
            # 10^12 multiplicities could not be allocated at all
            lambda: CycleType.parse(f"1^{10**12}"),
            lambda: CycleType.parse(f"[{10**12}]"),
        ]
        for refusal in refusals:
            with pytest.raises(ValueError, match="over the limit of 100$"):
                refusal()

    def test_parts_roundtrip(self):
        lam = CycleType.from_parts([1, 3, 1])
        assert lam.cycles == ((3, 1), (1, 2))
        assert parts(lam) == (3, 1, 1)
        assert str(lam) == "1^2 3^1"


class TestOfCycleCount:
    def test_examples(self):
        assert cycle_count(Permutation.identity(3)) == 3
        assert cycle_count(perm(2, 3, 1)) == 1
        assert cycle_count(Permutation.from_cycles(5, [(1, 2), (4, 5)])) == 3


class TestComposeInverse:
    def test_identity_neutral(self):
        q = perm(3, 1, 2)
        assert compose(Permutation.identity(3), q) == q
        assert compose(q, Permutation.identity(3)) == q

    def test_inverse_of_three_cycle(self):
        assert inverse(perm(2, 3, 1)) == perm(3, 1, 2)

    def test_involution(self):
        t = perm(2, 1)
        assert compose(t, t) == Permutation.identity(2)

    def test_composition_order(self):
        # compose(p, q)(x) = p(q(x))
        p = Permutation.from_cycles(3, [(1, 2)])
        q = Permutation.from_cycles(3, [(2, 3)])
        assert compose(p, q)(2) == p(q(2)) == p(3) == 3

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            compose(Permutation.identity(2), Permutation.identity(3))

    def test_inverse_roundtrip_random(self):
        rng = random.Random(5)
        for _ in range(100):
            p = Permutation(tuple(rng.sample(range(1, 7), 6)))
            assert compose(p, inverse(p)) == Permutation.identity(6)
            assert compose(inverse(p), p) == Permutation.identity(6)


class TestTrustedProducts:
    def test_products_equal_validated_permutations_s4(self):
        # compose, inverse and conjugate skip the bijection check; their
        # results must be the permutations a validated build gives
        points = range(1, 5)
        group = symmetric_group(4)
        for p in group:
            assert_same_permutation(inverse(p), [p.images.index(x) + 1 for x in points])
            for q in group:
                assert_same_permutation(compose(p, q), [p(q(x)) for x in points])
                # g·x·g⁻¹ sends g(i) to g(x(i))
                conjugated = dict((p(i), p(q(i))) for i in points)
                assert_same_permutation(conjugate(p, q), [conjugated[x] for x in points])

    def test_size_mismatches_still_raise(self):
        small, large = Permutation.identity(2), Permutation.identity(3)
        for product in (compose, conjugate):
            with pytest.raises(ValueError, match="size mismatch"):
                product(small, large)
            with pytest.raises(ValueError, match="size mismatch"):
                product(large, small)

    def test_cycle_type_matches_cycle_decomposition(self):
        for n in range(1, 7):
            for p in symmetric_group(n):
                lam = cycle_type(p)
                expected = reference_cycle_type(p)
                assert lam == expected and hash(lam) == hash(expected)
                assert str(lam) == str(expected)

    def test_cycle_type_of_the_empty_permutation_raises(self):
        with pytest.raises(ValueError):
            cycle_type(Permutation(()))


class TestConjugate:
    def test_identity(self):
        x = perm(2, 3, 1)
        assert conjugate(Permutation.identity(3), x) == x

    def test_relabelling(self):
        g = Permutation.from_cycles(3, [(2, 3)])
        x = Permutation.from_cycles(3, [(1, 2)])
        assert conjugate(g, x) == Permutation.from_cycles(3, [(1, 3)])

    def test_preserves_cycle_type_random(self):
        rng = random.Random(17)
        for _ in range(1000):
            g = Permutation(tuple(rng.sample(range(1, 6), 5)))
            x = Permutation(tuple(rng.sample(range(1, 6), 5)))
            assert cycle_type(conjugate(g, x)) == cycle_type(x)

    def test_matches_product_formula(self):
        rng = random.Random(23)
        for _ in range(200):
            g = Permutation(tuple(rng.sample(range(1, 6), 5)))
            x = Permutation(tuple(rng.sample(range(1, 6), 5)))
            assert conjugate(g, x) == compose(compose(g, x), inverse(g))


class TestClassSizes:
    def test_transpositions_of_s3(self):
        assert class_size(CycleType.parse("1^1 2^1")) == 3

    def test_three_cycles_of_s3(self):
        assert class_size(CycleType.parse("3^1")) == 2

    def test_four_cycles_of_s5_brute_force(self):
        lam = CycleType.parse("1^1 4^1")
        brute = sum(1 for p in symmetric_group(5) if cycle_type(p) == lam)
        assert brute == 30
        assert class_size(lam) == brute

    def test_centralizer_order_examples(self):
        assert centralizer_order(CycleType.parse("3^1")) == 3
        assert centralizer_order(CycleType.parse("1^3")) == 6

    def test_centralizer_order_brute_force_2_2(self):
        sigma = Permutation.from_cycles(4, [(1, 2), (3, 4)])
        brute = sum(
            1 for g in symmetric_group(4) if compose(g, sigma) == compose(sigma, g)
        )
        assert brute == 8
        assert centralizer_order(cycle_type(sigma)) == brute

    def test_class_sizes_partition_group(self):
        for n in range(1, 9):
            assert sum(class_size(lam) for lam in enumerate_cycle_types(n)) == factorial(n)

    def test_orbit_stabilizer(self):
        for n in range(1, 21):
            for lam in enumerate_cycle_types(n):
                assert class_size(lam) * centralizer_order(lam) == factorial(n)

    def test_centralizer_order_by_conjugation_count(self):
        # |{g : g x g^-1 = x}| agrees with the closed form for every x, n <= 5
        for n in range(1, 6):
            group = symmetric_group(n)
            for x in group:
                fixed = sum(1 for g in group if conjugate(g, x) == x)
                assert fixed == centralizer_order(cycle_type(x))


class TestEnumerateCycleTypes:
    def test_small_counts(self):
        assert {str(lam) for lam in enumerate_cycle_types(3)} == {"1^3", "1^1 2^1", "3^1"}
        assert len(enumerate_cycle_types(4)) == 5
        assert len(enumerate_cycle_types(5)) == 7

    def test_canonical_order_n4(self):
        assert [str(lam) for lam in enumerate_cycle_types(4)] == [
            "4^1",
            "1^1 3^1",
            "2^2",
            "1^2 2^1",
            "1^4",
        ]

    def test_type_order_is_canonical_order(self):
        rng = random.Random(20)
        for n in range(1, 13):
            types = enumerate_cycle_types(n)
            shuffled = rng.sample(types, len(types))
            assert sorted(shuffled, reverse=True) == types
        s8 = enumerate_cycle_types(8)
        for lam, mu in itertools.product(s8, repeat=2):
            assert (lam < mu) == (parts(lam) < parts(mu))
            assert (lam == mu) == (parts(lam) == parts(mu))

    def test_each_type_once(self):
        for n in range(1, 9):
            types = enumerate_cycle_types(n)
            assert len(types) == len(set(types))
            assert all(lam.n == n for lam in types)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            enumerate_cycle_types(0)

    def test_matches_recursive_reference(self):
        for n in range(1, 31):
            expected = [CycleType.from_parts(parts) for parts in reference_partitions(n)]
            types = enumerate_cycle_types(n)
            assert isinstance(types, list)
            assert types == expected
            assert [hash(lam) for lam in types] == [hash(lam) for lam in expected]
            assert [str(lam) for lam in types] == [str(lam) for lam in expected]

    def test_length_is_partition_count(self):
        counts = partition_counts(MAX_CLASS_LIST_N)
        for n in [*range(1, 41), MAX_CLASS_LIST_N]:
            assert len(enumerate_cycle_types(n)) == counts[n]

    def test_builds_no_validated_cycle_type(self, monkeypatch):
        calls = []
        original = CycleType.__post_init__

        def counting(self):
            calls.append(self)
            original(self)

        monkeypatch.setattr(CycleType, "__post_init__", counting)
        CycleType.parse("1^2 3^1")
        assert len(calls) == 1
        calls.clear()
        assert len(enumerate_cycle_types(20)) == 627
        assert calls == []

    def test_bound_on_n(self, no_class_built):
        start = time.perf_counter()
        with pytest.raises(ClassListTooLargeError, match=f"S_90 .*n <= {MAX_CLASS_LIST_N}"):
            enumerate_cycle_types(90)
        assert time.perf_counter() - start < 1
        assert issubclass(ClassListTooLargeError, ValueError)


class TestCanonicalRepresentative:
    def test_identity(self):
        assert canonical_representative(CycleType.parse("1^3")) == Permutation.identity(3)

    def test_three_cycle(self):
        assert canonical_representative(CycleType.parse("3^1")) == perm(2, 3, 1)

    def test_fixed_point_then_two_cycles(self):
        rep = canonical_representative(CycleType.parse("1^1 2^2"))
        assert rep == Permutation.from_cycles(5, [(2, 3), (4, 5)])

    def test_has_right_type(self):
        for n in range(1, 8):
            for lam in enumerate_cycle_types(n):
                assert cycle_type(canonical_representative(lam)) == lam

    def test_is_the_smallest_member_of_its_class(self):
        # the oracle walks each class from here and keeps it as base point 0
        # of the sorted class, which pins the character numbering
        for n in range(1, 8):
            smallest = {}
            for images in itertools.permutations(range(1, n + 1)):
                lam = cycle_type(Permutation(images))
                smallest[lam] = min(smallest.get(lam, images), images)
            for lam in enumerate_cycle_types(n):
                assert canonical_representative(lam).images == smallest[lam]


class TestCycleString:
    def test_formats(self):
        assert cycle_string(Permutation.identity(3)) == "()"
        assert cycle_string(Permutation.from_cycles(5, [(1, 2), (4, 5)])) == "(1 2)(4 5)"
        assert cycle_string(Permutation.from_cycles(4, [(3, 1, 4)])) == "(1 4 3)"
