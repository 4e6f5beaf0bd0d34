import itertools
import random
import time
import tracemalloc
from collections import Counter
from math import factorial

import pytest

from ramsys.perm import (
    _TEXT_BATCH,
    MAX_CLASS_LIST_N,
    ClassListTooLargeError,
    CycleType,
    canonical_cycle_pieces,
    centralizer_order,
    class_size,
    enumerate_cycle_types,
    walk_cycle_types,
)
from reference import (
    Permutation,
    canonical_representative,
    compose,
    conjugate,
    cycle_count,
    cycle_decomposition,
    cycle_type,
    identity,
    image,
    inverse,
    partition_counts,
    parts,
    symmetric_group,
)


def reference_partitions(n, largest=None):
    """Partitions of n as descending part tuples, in descending lexicographic order."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in reference_partitions(n - part, part):
            yield (part, *rest)


def perm(*images):
    return Permutation(tuple(images))


def reference_cycle_type(p):
    """The cycle type from each point's orbit length, found by iterating p:
    the l points on an l-cycle each have orbit length l."""
    lengths = []
    for x in range(1, p.n + 1):
        length, y = 1, image(p, x)
        while y != x:
            length, y = length + 1, image(p, y)
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
        e = identity(4)
        assert e.images == (1, 2, 3, 4)
        assert image(e, 3) == 3

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
        cycles = cycle_decomposition(identity(3))
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
                    assert image(p, src) == dst
            assert Permutation.from_cycles(p.n, cycles) == p


class TestCycleType:
    def test_examples(self):
        assert str(cycle_type(identity(3))) == "1^3"
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

    @pytest.mark.parametrize("text", ["1_0^1", "1^1_0", "+3^1", "3^+1", "３^1", "[1_0]", "[+3]", "[2,３]"])
    def test_parse_reads_ascii_digits_only(self, text):
        with pytest.raises(ValueError, match="bad"):
            CycleType.parse(text)

    def test_any_degree_stores_only_its_pairs(self):
        # no degree is refused, and none costs its size: a vector of 10^12
        # entries could not be allocated at all
        n = 10**12
        tracemalloc.start()
        try:
            built = [
                CycleType.parse(f"1^{n}"),
                CycleType.parse(f"[{n}]"),
                CycleType.from_parts([n]),
                CycleType.parse(f"1^{n - 2} 2^1"),
                CycleType.parse(f"[{n - 2},1,1]"),
                CycleType.from_parts([1, 1, n - 2]),
            ]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert [lam.n for lam in built] == [n] * 6
        assert built[0].cycles == ((1, n),)
        assert built[1] == built[2] and built[1].cycles == ((n, 1),)
        assert built[3].cycles == ((2, 1), (1, n - 2))
        assert built[4] == built[5] and built[4].cycles == ((n - 2, 1), (1, 2))

    def test_parts_roundtrip(self):
        lam = CycleType.from_parts([1, 3, 1])
        assert lam.cycles == ((3, 1), (1, 2))
        assert parts(lam) == (3, 1, 1)
        assert str(lam) == "1^2 3^1"


class TestOfCycleCount:
    def test_examples(self):
        assert cycle_count(identity(3)) == 3
        assert cycle_count(perm(2, 3, 1)) == 1
        assert cycle_count(Permutation.from_cycles(5, [(1, 2), (4, 5)])) == 3


class TestComposeInverse:
    def test_identity_neutral(self):
        q = perm(3, 1, 2)
        assert compose(identity(3), q) == q
        assert compose(q, identity(3)) == q

    def test_inverse_of_three_cycle(self):
        assert inverse(perm(2, 3, 1)) == perm(3, 1, 2)

    def test_involution(self):
        t = perm(2, 1)
        assert compose(t, t) == identity(2)

    def test_composition_order(self):
        # compose(p, q)(x) = p(q(x))
        p = Permutation.from_cycles(3, [(1, 2)])
        q = Permutation.from_cycles(3, [(2, 3)])
        assert image(compose(p, q), 2) == image(p, image(q, 2)) == image(p, 3) == 3

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            compose(identity(2), identity(3))

    def test_inverse_roundtrip_random(self):
        rng = random.Random(5)
        for _ in range(100):
            p = Permutation(tuple(rng.sample(range(1, 7), 6)))
            assert compose(p, inverse(p)) == identity(6)
            assert compose(inverse(p), p) == identity(6)


class TestTrustedProducts:
    def test_products_equal_validated_permutations_s4(self):
        # compose, inverse and conjugate skip the bijection check; their
        # results must be the permutations a validated build gives
        points = range(1, 5)
        group = symmetric_group(4)
        for p in group:
            assert_same_permutation(inverse(p), [p.images.index(x) + 1 for x in points])
            for q in group:
                assert_same_permutation(compose(p, q), [image(p, image(q, x)) for x in points])
                # g·x·g⁻¹ sends g(i) to g(x(i))
                conjugated = dict((image(p, i), image(p, image(q, i))) for i in points)
                assert_same_permutation(conjugate(p, q), [conjugated[x] for x in points])

    def test_size_mismatches_still_raise(self):
        small, large = identity(2), identity(3)
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
        assert conjugate(identity(3), x) == x

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

    def test_length_is_partition_count(self, class_walks):
        # every n up to the class-list bound, off the shared walk
        counts = partition_counts(MAX_CLASS_LIST_N)
        assert [walk.count for walk in class_walks.values()] == counts[1:]

    def test_bound_on_n(self, no_class_built):
        start = time.perf_counter()
        with pytest.raises(ClassListTooLargeError, match=f"S_90 .*n <= {MAX_CLASS_LIST_N}"):
            enumerate_cycle_types(90)
        assert time.perf_counter() - start < 1
        assert issubclass(ClassListTooLargeError, ValueError)


class TestWalkCycleTypes:
    def test_pairs_are_the_enumerated_classes(self, class_walks):
        # against the pairs of the shared walk's classes, by hash
        for n in range(1, 31):
            walked = tuple([pairs for _, pairs in walk_cycle_types(n)])
            assert hash(walked) == class_walks[n].cycles, n
            assert all(type(pairs) is tuple for pairs in walked)

    def test_kept_is_the_prefix_shared_with_the_previous_class(self):
        for n in range(1, 31):
            previous = ()
            for kept, pairs in walk_cycle_types(n):
                shared = 0
                while shared < min(len(previous), len(pairs)) and previous[shared] == pairs[shared]:
                    shared += 1
                assert kept == shared
                previous = pairs
        assert [kept for kept, _ in walk_cycle_types(7)][:6] == [0, 0, 0, 1, 0, 1]

    @pytest.mark.parametrize("n, error", [(0, ValueError), (MAX_CLASS_LIST_N + 1, ClassListTooLargeError)])
    def test_bounds_are_checked_at_the_call(self, no_class_built, n, error):
        # raised before any generator step, not at the first next()
        with pytest.raises(error):
            walk_cycle_types(n)


class TestCanonicalRepresentative:
    def test_identity(self):
        assert canonical_representative(CycleType.parse("1^3")) == identity(3)

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
        # the reference's u0 is the smallest member of the class, which the
        # oracle keeps as base point 0
        for n in range(1, 8):
            smallest = {}
            for images in itertools.permutations(range(1, n + 1)):
                lam = cycle_type(Permutation(images))
                smallest[lam] = min(smallest.get(lam, images), images)
            for lam in enumerate_cycle_types(n):
                assert canonical_representative(lam).images == smallest[lam]


def canonical_cycle_string(lam):
    """u0's text, joined from its pieces as the reps header joins them."""
    return "".join(canonical_cycle_pieces(lam))


class TestCanonicalCycleString:
    def test_matches_the_built_representative(self):
        # u0 laid out by the reference, apart from the runs the header
        # writes, is the reference
        classes = [lam for n in range(1, 15) for lam in enumerate_cycle_types(n)]
        assert len(classes) == 507
        for lam in classes:
            assert canonical_cycle_string(lam) == str(canonical_representative(lam))

    def test_builds_nothing_of_size_n(self):
        n = 10**12
        tracemalloc.start()
        try:
            texts = [
                canonical_cycle_string(CycleType.parse(f"1^{n}")),
                canonical_cycle_string(CycleType.parse(f"1^{n - 5} 2^1 3^1")),
            ]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert texts == ["()", f"({n - 4} {n - 3})({n - 2} {n - 1} {n})"]

    @pytest.mark.parametrize("text", ["[1048576]", "2^524288"])
    def test_a_text_of_a_million_points_is_joined_in_batches(self, text):
        # each text is about 7.5 MB; no piece holds more than _TEXT_BATCH of
        # its points, at most 7 digits and 2 marks each.  That the reps
        # header writes these pieces without holding them all is
        # test_cli's subprocess peak-RSS bound
        lam = CycleType.parse(text)
        pieces = list(canonical_cycle_pieces(lam))
        assert len(pieces) > 250
        assert max(map(len, pieces)) <= _TEXT_BATCH * 9
        if text == "[1048576]":
            expected = "(" + " ".join(map(str, range(1, 2**20 + 1))) + ")"
        else:
            expected = "".join([f"({k} {k + 1})" for k in range(1, 2**20, 2)])
        assert "".join(pieces) == expected


class TestCycleString:
    def test_formats(self):
        assert str(identity(3)) == "()"
        assert str(Permutation.from_cycles(5, [(1, 2), (4, 5)])) == "(1 2)(4 5)"
        assert str(Permutation.from_cycles(4, [(3, 1, 4)])) == "(1 4 3)"
