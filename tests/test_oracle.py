import ast
import hashlib
import importlib
import itertools
import random
import time
from collections import Counter
from math import factorial, gcd, prod
from operator import itemgetter
from pathlib import Path

import pytest

import ramsys.oracle
from ramsys.centralizer import abelianization_invariants, gamma
from ramsys.counting import Ramification, count_rsc, enumerate_types
from ramsys.oracle import (
    ORBIT_POINT_BUDGET,
    OracleBudgetError,
    _group,
    _partition,
    _point_count,
    class_action,
    index_moves,
    oracle_count,
    orbit_count_class,
    orbit_partition_class,
)
from ramsys.perm import (
    CycleType,
    InputError,
    UnsupportedGroupError,
    canonical_cycle_pieces,
    centralizer_order,
    class_size,
    enumerate_cycle_types,
)
from reference import (
    Character,
    Permutation,
    RSCPoint,
    act,
    all_ones,
    beta,
    canonical_representative,
    centralizer,
    character_basis,
    class_points,
    commutator_subgroup,
    compose,
    conjugacy_class,
    conjugate,
    cycle_count,
    cycle_type,
    cyclic_product_order_histogram,
    fixed_point_count,
    identity,
    is_even,
    joint_orbit_count,
    support_orbit_count,
    symmetric_group,
)


def is_closed(H):
    """Exhaustive closure check: H holds the identity and every product."""
    n = next(iter(H)).n
    return identity(n) in H and all(
        compose(a, b) in H for a in H for b in H
    )


def character_value(chi, h):
    """χ(h), read from the character's value table."""
    try:
        return chi.values[chi.domain.index(h)]
    except ValueError:
        raise ValueError(f"{h} is not in the character's domain") from None


def is_homomorphism(chi):
    """χ(ab) = χ(a) + χ(b) mod the modulus, for every pair of the domain."""

    def at(h):
        return character_value(chi, h)

    return all(
        (at(compose(a, b)) - at(a) - at(b)) % chi.modulus == 0
        for a in chi.domain
        for b in chi.domain
    )


def adjacent_transpositions(n):
    return [Permutation.from_cycles(n, [(i, i + 1)]) for i in range(1, n)]


def point_type(point):
    """How often each indexed character of Z_u occurs among the point's
    characters; the complete per-class isomorphism invariant at fixed u."""
    basis = character_basis(point.base_point)
    index = {chi: i for i, chi in enumerate(basis)}
    counts = [0] * len(basis)
    for chi in point.characters:
        counts[index[chi]] += 1
    return tuple(counts)


def find_orbits(points, moves):
    """Orbit partition of hashable points under the group the moves
    generate, by breadth-first search over sets; independent of the
    oracle's walk over positions."""
    orbits, seen = [], set()
    for start in points:
        if start in seen:
            continue
        seen.add(start)
        orbit, frontier = {start}, [start]
        while frontier:
            fresh = []
            for point in frontier:
                for move in moves:
                    image = move(point)
                    if image not in seen:
                        seen.add(image)
                        orbit.add(image)
                        fresh.append(image)
            frontier = fresh
        orbits.append(orbit)
    return orbits


def positions_cover(orbits, size):
    """Every position in range(size) lies in exactly one orbit."""
    flat = [x for orbit in orbits for x in orbit]
    return sorted(flat) == list(range(size))


def digit_counts(x, base, r):
    """How often each digit occurs among the r lowest base-``base`` digits
    of x: the multiset of character indices at position x, as a composition."""
    counts = [0] * base
    for _ in range(r):
        x, digit = divmod(x, base)
        counts[digit] += 1
    return tuple(counts)


class TestSymmetricGroup:
    def test_orders(self):
        # n! distinct padded image tuples, in sorted order
        for n in range(1, 6):
            group = list(_group(n))
            assert len(set(group)) == len(group) == factorial(n)
            assert group == sorted(group)

    def test_n1_is_trivial(self):
        assert list(_group(1)) == [(0, 1)]

    def test_out_of_range(self):
        with pytest.raises(UnsupportedGroupError):
            _group(0)
        with pytest.raises(UnsupportedGroupError):
            _group(6)

    def test_out_of_scale_class_is_an_input_error(self):
        # refused by the scale check that runs before S_n is enumerated
        with pytest.raises(InputError, match="got n = 7") as info:
            orbit_count_class(CycleType.parse("1^7"), 1)
        assert isinstance(info.value, ValueError)

    def test_closure(self):
        assert is_closed(frozenset(Permutation(x[1:]) for x in _group(3)))
        assert not is_closed(frozenset({Permutation.from_cycles(3, [(1, 2)])}))

    @pytest.mark.parametrize("text", ["2^1 4^1", "1^7"])
    def test_out_of_scale_input_is_refused_before_enumeration(self, monkeypatch, text):
        # every path to n!-sized work meets the scale check before the first
        # element of S_n is listed
        made = []
        true_permutations = itertools.permutations

        def counting_permutations(*args):
            for images in true_permutations(*args):
                made.append(images)
                yield images

        lam = CycleType.parse(text)
        u = canonical_representative(lam)
        class_action.cache_clear()
        monkeypatch.setattr(itertools, "permutations", counting_permutations)
        for call, arg in ((centralizer, u), (ramsys.oracle.character_basis, u.images)):
            with pytest.raises(UnsupportedGroupError, match=f"got n = {lam.n}"):
                call(arg)
        for call in (class_action, lambda lam: support_orbit_count([lam])):
            with pytest.raises(UnsupportedGroupError, match=f"got n = {lam.n}"):
                call(lam)
        assert made == []


class TestCentralizer:
    def test_identity_centralizer_is_whole_group(self):
        assert centralizer(identity(3)) == frozenset(symmetric_group(3))

    def test_three_cycle(self):
        sigma = Permutation.from_cycles(3, [(1, 2, 3)])
        expected = {
            identity(3),
            sigma,
            compose(sigma, sigma),
        }
        assert centralizer(sigma) == frozenset(expected)

    def test_double_transposition_order(self):
        sigma = Permutation.from_cycles(4, [(1, 2), (3, 4)])
        assert len(centralizer(sigma)) == 8

    def test_matches_closed_form_everywhere(self):
        for n in range(1, 6):
            for sigma in symmetric_group(n):
                assert len(centralizer(sigma)) == centralizer_order(cycle_type(sigma))


class TestCommutatorSubgroup:
    def test_s3_gives_a3(self):
        derived = commutator_subgroup(frozenset(symmetric_group(3)))
        assert len(derived) == 3
        assert all(is_even(p) for p in derived)

    def test_abelian_gives_trivial(self):
        sigma = Permutation.from_cycles(3, [(1, 2, 3)])
        derived = commutator_subgroup(centralizer(sigma))
        assert derived == frozenset({identity(3)})

    def test_dihedral_centralizer(self):
        sigma = Permutation.from_cycles(4, [(1, 2), (3, 4)])
        assert len(commutator_subgroup(centralizer(sigma))) == 2

    def test_alternating_groups(self):
        for n in range(1, 6):
            derived = commutator_subgroup(frozenset(symmetric_group(n)))
            evens = frozenset(p for p in symmetric_group(n) if is_even(p))
            assert derived == evens
            if n >= 2:
                assert len(derived) * 2 == factorial(n)

    def test_result_is_closed(self):
        for n in range(1, 5):
            assert is_closed(commutator_subgroup(frozenset(symmetric_group(n))))

class TestDualCharacters:
    def test_trivial_group(self):
        characters = character_basis(identity(1))
        assert len(characters) == 1
        assert set(characters[0].values) == {0}

    def test_sign_character_of_s3(self):
        # the centralizer of the identity is the whole of S_3
        characters = character_basis(identity(3))
        assert len(characters) == 2
        assert len(set(characters)) == 2
        # one is trivial, the other separates even from odd
        trivial = [c for c in characters if set(c.values) == {0}]
        sign = [c for c in characters if set(c.values) == {0, 1}]
        assert len(trivial) == 1 and len(sign) == 1
        for p in symmetric_group(3):
            assert character_value(sign[0], p) == (0 if is_even(p) else 1)

    def test_count_is_gamma_exhaustive_s4(self):
        for sigma in symmetric_group(4):
            characters = character_basis(sigma)
            assert len(characters) == gamma(cycle_type(sigma))
            assert len(set(characters)) == len(characters)

    def test_character_basis_makes_no_permutations(self):
        # the library defines no permutation type, and its basis is tuple
        # data: at u0 of every class of S_1..S_5, image tuples for the
        # domain, which is all of Z_u, and one value tuple per character
        for n in range(1, 6):
            for lam in enumerate_cycle_types(n):
                modulus, domain, tables = ramsys.oracle.character_basis(canonical_representative(lam).images)
                assert type(modulus) is int
                assert all(type(h) is tuple and sorted(h) == list(range(1, n + 1)) for h in domain)
                assert all(type(values) is tuple for values in tables)
                assert len(domain) == centralizer_order(lam)
                assert domain == tuple(sorted(domain))
                assert len(tables) == len(set(tables))
                assert all(len(values) == len(domain) for values in tables)
                assert all(0 <= value < modulus for values in tables for value in values)

    def test_one_walk_keeps_the_generators_and_records_the_edges(self, monkeypatch):
        # on the centralizer of every element of S_1..S_5, _characters makes
        # one product per edge a -> a·s_i, |H| for each generator s_i it
        # keeps, and d_i - 1 more to find the order d_i of s_i: the span is
        # walked once, not again each time a generator is kept
        kept, products = [], []

        def counting_itemgetter(*s):
            kept.append(s)
            times = itemgetter(*s)

            def counted(a):
                products.append(a)
                return times(a)

            return counted

        def order(s):
            power, d = s, 1
            while power != tuple(range(len(s))):
                power, d = tuple([power[i] for i in s]), d + 1
            return d

        monkeypatch.setattr(ramsys.oracle, "itemgetter", counting_itemgetter)
        total = 0
        for n in range(1, 6):
            for s in _group(n):
                elements = ramsys.oracle._centralizer(s)
                kept.clear()
                products.clear()
                ramsys.oracle._characters(elements)
                assert len(products) == len(elements) * len(kept) + sum(order(g) - 1 for g in kept)
                assert len(set(kept)) == len(kept)
                total += len(products)
        assert total == 2594

    def test_characters_are_homomorphisms(self):
        for lam in enumerate_cycle_types(4):
            for chi in character_basis(canonical_representative(lam)):
                assert is_homomorphism(chi)
                assert character_value(chi, identity(4)) == 0

    def test_characters_are_the_dual_of_the_abelianization(self):
        # the centralizer of every element of S_1..S_5: as many characters as
        # |Z/Z'| with Z' the tests' own commutator closure, and as many of
        # each order as the product of cyclic groups the closed form predicts
        for n in range(1, 6):
            for sigma in symmetric_group(n):
                modulus, _, tables = ramsys.oracle.character_basis(sigma.images)
                Z = centralizer(sigma)
                assert len(tables) == len(Z) // len(commutator_subgroup(Z))
                orders = Counter(modulus // gcd(modulus, *values) for values in tables)
                assert orders == cyclic_product_order_histogram(abelianization_invariants(cycle_type(sigma)))

    def test_derived_subgroup_in_kernel(self):
        sigma = Permutation.from_cycles(4, [(1, 2), (3, 4)])
        H = centralizer(sigma)
        derived = commutator_subgroup(H)
        for chi in character_basis(sigma):
            assert all(character_value(chi, d) == 0 for d in derived)

    def test_domain_errors(self):
        chi = character_basis(Permutation.from_cycles(3, [(1, 2, 3)]))[1]
        with pytest.raises(ValueError):
            character_value(chi, Permutation.from_cycles(3, [(1, 2)]))


class TestAct:
    def test_identity_acts_trivially(self):
        for point in class_points(CycleType.parse("1^1 2^1"), 2):
            assert act(identity(3), identity(2), point) == point

    def test_action_axiom_random_s4(self):
        rng = random.Random(71)
        group = symmetric_group(4)
        index_group = symmetric_group(2)
        points = class_points(CycleType.parse("1^2 2^1"), 2)
        for _ in range(1000):
            point = rng.choice(points)
            g1, g2 = rng.choice(group), rng.choice(group)
            p1, p2 = rng.choice(index_group), rng.choice(index_group)
            stepwise = act(g2, p2, act(g1, p1, point))
            combined = act(compose(g2, g1), compose(p2, p1), point)
            assert stepwise == combined

    def test_centralizing_g_with_trivial_character_is_fixed(self):
        lam = CycleType.parse("1^1 2^1")
        u = canonical_representative(lam)
        trivial = [chi for chi in character_basis(u) if set(chi.values) == {0}][0]
        point = RSCPoint(u, (trivial,))
        for g in centralizer(u):
            assert act(g, identity(1), point) == point

    def test_result_characters_live_on_conjugated_centralizer(self):
        lam = CycleType.parse("1^2 2^1")
        point = class_points(lam, 1)[0]
        g = Permutation.from_cycles(4, [(1, 3, 2)])
        moved = act(g, identity(1), point)
        assert set(moved.characters[0].domain) == set(
            centralizer(moved.base_point)
        )

    def test_size_mismatches(self):
        point = class_points(CycleType.parse("1^1 2^1"), 1)[0]
        with pytest.raises(ValueError):
            act(identity(4), identity(1), point)
        with pytest.raises(ValueError):
            act(identity(3), identity(2), point)


class TestClassAction:
    def test_transported_bases_match_character_basis(self):
        # S_1..S_5, every base point of every class; the walk's class is held
        # to a filter of S_n by cycle type, and each carried basis is read
        # off the r = 1 points
        for n in range(1, 6):
            for lam in enumerate_cycle_types(n):
                action = class_action(lam)
                members = (p.images for p in symmetric_group(n) if cycle_type(p) == lam)
                assert action.base_points == tuple(sorted(members))
                bases = {Permutation(u): [] for u in action.base_points}
                for point in class_points(lam, 1):
                    bases[point.base_point].append(point.characters[0])
                for u, basis in bases.items():
                    assert len(basis) == gamma(lam)
                    assert len(set(basis)) == len(basis)
                    assert set(basis) == set(character_basis(u))

    def test_walk_keeps_base_points_and_groups_as_image_tuples(self):
        # a cold walk over every class of S_1..S_5 keeps its base points in
        # the format of the carried domains, plain image tuples of 1..n,
        # and base point 0's domain is the one character_basis found there
        for n in range(1, 6):
            class_action.cache_clear()
            for lam in enumerate_cycle_types(n):
                action = class_action(lam)
                for u, domain in zip(action.base_points, action.domains):
                    for x in (u, *domain):
                        assert type(x) is tuple and sorted(x) == list(range(1, n + 1))
                assert action.domains[0] == ramsys.oracle.character_basis(action.base_points[0])[1]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_u0_text_is_the_oracle_base_point_zero(self, n):
        # two layouts of u0 hold each other: the reps header's text, from
        # perm's runs, is the cycle notation of the oracle's own u0, and
        # that u0 is the smallest member of its class of S_n
        smallest = {}
        for p in symmetric_group(n):
            smallest.setdefault(cycle_type(p), p)
        for lam in enumerate_cycle_types(n):
            u0 = class_action(lam).base_points[0]
            assert "".join(canonical_cycle_pieces(lam)) == str(Permutation(u0))
            assert u0 == smallest[lam].images

    def test_u0_out_of_the_class_is_caught(self, monkeypatch):
        # u0 is checked like every base point the walk reaches: a layout
        # that gives a 3-cycle for the class of transpositions fails
        lam = CycleType.parse("1^1 2^1")
        class_action.cache_clear()
        monkeypatch.setattr(ramsys.oracle, "_u0", lambda lam: (2, 3, 1))
        with pytest.raises(AssertionError, match=r"u0 = \(1 2 3\) is out of the class 1\^1 2\^1"):
            class_action(lam)
        class_action.cache_clear()

    def test_walk_conjugates_by_two_generators(self, monkeypatch):
        # a cold walk over every class of S_1..S_5 has one map per generator,
        # (1 2) and (1 2 ... n), and conjugates once per (base point,
        # generator) edge, min(n - 1, 2) of them per base point
        calls = []
        true_conjugates = ramsys.oracle._conjugate_images

        def counting(g, elements):
            calls.append(g)
            return true_conjugates(g, elements)

        monkeypatch.setattr(ramsys.oracle, "_conjugate_images", counting)
        for n in range(1, 6):
            for lam in enumerate_cycle_types(n):
                class_action.cache_clear()
                calls.clear()
                action = class_action(lam)
                assert len(action.base_maps) == len(action.character_maps) == min(n - 1, 2)
                assert len(calls) == len(action.base_points) * min(n - 1, 2)

    def test_observed_character_maps_are_identity(self):
        # conjugating around a loop in the class lands in the centralizer,
        # which fixes every character: the fact the closed form relies on
        for n in range(1, 6):
            for lam in enumerate_cycle_types(n):
                action = class_action(lam)
                identity = tuple(range(gamma(lam)))
                for maps in action.character_maps:
                    assert all(row == identity for row in maps)

    @pytest.mark.parametrize("r, n", [(1, 3), (1, 4), (2, 3), (2, 4), (1, 5)])
    def test_index_moves_agree_with_act(self, n, r):
        # maps run over S_n's generators (1 2) and (1 2 ... n), then the
        # slots' adjacent transpositions
        id_n, id_r = identity(n), identity(r)
        s_n = [Permutation.from_cycles(n, [c]) for c in [(1, 2), range(1, n + 1)][: n - 1]]
        generators = [(g, id_r) for g in s_n]
        generators += [(id_n, pi) for pi in adjacent_transpositions(r)]
        for lam in enumerate_cycle_types(n):
            points = class_points(lam, r)
            assert len(points) == class_size(lam) * gamma(lam) ** r
            moves = index_moves(lam, r)
            assert len(moves) == len(generators)
            for image, (g, pi) in zip(moves, generators):
                assert sorted(image) == list(range(len(points)))
                for x, y in enumerate(image):
                    assert points[y] == act(g, pi, points[x])

    def test_centralizer_carried_off_its_domain_is_caught(self, monkeypatch):
        # a "conjugation" that sends the identity to a 3-cycle does not carry
        # one centralizer onto another
        lam = CycleType.parse("1^1 2^1")
        identity, three_cycle = (1, 2, 3), (2, 3, 1)
        true_conjugates = ramsys.oracle._conjugate_images

        def wrong(swap, elements):
            return [
                three_cycle if x == identity else x
                for x in true_conjugates(swap, elements)
            ]

        class_action.cache_clear()
        monkeypatch.setattr(ramsys.oracle, "_conjugate_images", wrong)
        with pytest.raises(AssertionError, match="does not carry the centralizer"):
            class_action(lam)

    def test_base_point_moved_out_of_the_class_is_caught(self, monkeypatch):
        # a "conjugation" that sends the transposition (1 2), as a base point
        # only, to a 3-cycle leaves the class
        lam = CycleType.parse("1^1 2^1")
        transposition, three_cycle = (2, 1, 3), (2, 3, 1)
        true_conjugates = ramsys.oracle._conjugate_images

        def wrong(swap, elements):
            conjugates = true_conjugates(swap, elements)
            if conjugates[0] == transposition:
                conjugates[0] = three_cycle
            return conjugates

        class_action.cache_clear()
        monkeypatch.setattr(ramsys.oracle, "_conjugate_images", wrong)
        with pytest.raises(AssertionError, match="out of the class"):
            class_action(lam)

    def test_class_is_found_without_scanning_the_group(self, monkeypatch):
        # one cycle reading per base point the walk reaches, u0 included,
        # not one per element of S_n
        calls = []
        true_cycles = ramsys.oracle._cycles

        def counting(p):
            calls.append(p)
            return true_cycles(p)

        monkeypatch.setattr(ramsys.oracle, "_cycles", counting)
        for lam in enumerate_cycle_types(5):
            for value in vars(ramsys.oracle).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
            calls.clear()
            assert len(conjugacy_class(lam)) == class_size(lam)
            assert len(calls) <= class_size(lam)

    def test_character_moved_off_the_basis_is_caught(self, monkeypatch):
        # a "conjugation" that keeps S_3 as a set but swaps a transposition
        # with a 3-cycle moves the sign character off the basis
        lam = CycleType.parse("1^3")
        transposition, three_cycle = (2, 1, 3), (2, 3, 1)
        swapped = {transposition: three_cycle, three_cycle: transposition}
        true_conjugates = ramsys.oracle._conjugate_images

        def wrong(swap, elements):
            return [swapped.get(x, x) for x in true_conjugates(swap, elements)]

        class_action.cache_clear()
        monkeypatch.setattr(ramsys.oracle, "_conjugate_images", wrong)
        with pytest.raises(AssertionError, match="off the basis"):
            class_action(lam)

    def test_character_basis_built_once_per_class(self, monkeypatch):
        lam = CycleType.parse("1^2 3^1")
        calls = []
        true_basis = ramsys.oracle.character_basis

        def counting(u):
            calls.append(u)
            return true_basis(u)

        class_action.cache_clear()
        orbit_partition_class.cache_clear()
        monkeypatch.setattr(ramsys.oracle, "character_basis", counting)
        orbit_count_class(lam, 2)
        assert len(calls) == 1


class TestOrbitCounts:
    def test_three_cycles_r1(self):
        assert orbit_count_class(CycleType.parse("3^1"), 1) == 3

    def test_identity_class_r2(self):
        assert orbit_count_class(CycleType.parse("1^3"), 2) == 3

    def test_s4_transpositions_r1(self):
        assert orbit_count_class(CycleType.parse("1^2 2^1"), 1) == 4

    def test_oracle_count_examples(self):
        assert oracle_count(all_ones(3)) == 12
        assert oracle_count(all_ones(4)) == 384
        assert oracle_count(
            Ramification(2, ((CycleType.parse("1^2"), 3),))
        ) == 4

    def test_budget_error(self):
        lam = CycleType.parse("5^1")
        assert class_size(lam) * gamma(lam) ** 6 > ORBIT_POINT_BUDGET
        with pytest.raises(OracleBudgetError):
            class_points(lam, 6)
        with pytest.raises(OracleBudgetError):
            orbit_count_class(lam, 6)

    def test_budget_refuses_a_huge_r_without_its_power(self):
        # 3^10^12 has about 4.8·10^11 digits: built, it would not fit in memory
        start = time.perf_counter()
        with pytest.raises(OracleBudgetError, match=f"needs more than {ORBIT_POINT_BUDGET} points"):
            orbit_count_class(CycleType.parse("3^1"), 10**12)
        assert time.perf_counter() - start < 1

    def test_budget_refuses_a_huge_r_at_gamma_1(self):
        # 1^1 has one point at any r, so only r itself can pass the budget;
        # at r = 10^12 its r - 1 slot maps and r-tuples would never finish
        lam = CycleType.parse("1^1")
        for count in (orbit_count_class, class_points):
            start = time.perf_counter()
            with pytest.raises(OracleBudgetError, match=f"over the budget of {ORBIT_POINT_BUDGET}"):
                count(lam, 10**12)
            assert time.perf_counter() - start < 1
        assert orbit_count_class(lam, 1000) == 1

    def test_rejects_nonpositive_r(self):
        with pytest.raises(ValueError):
            orbit_count_class(CycleType.parse("3^1"), 0)
        with pytest.raises(ValueError, match="non-negative"):
            class_points(CycleType.parse("3^1"), -1)

    def test_orbits_partition_the_point_set(self):
        lam = CycleType.parse("1^1 2^1")
        points = class_points(lam, 2)
        orbits = orbit_partition_class(lam, 2)
        assert positions_cover(orbits, len(points))
        point_orbits = [{points[x] for x in orbit} for orbit in orbits]
        assert sum(len(orbit) for orbit in point_orbits) == len(points)
        assert set().union(*point_orbits) == set(points)

    def test_orbit_counts_build_no_points(self, monkeypatch):
        cases = [
            (lam, r) for n in range(2, 6) for lam in enumerate_cycle_types(n) for r in (1, 2)
        ]
        recorded = {case: orbit_count_class(*case) for case in cases}

        def refuse(lam, r):
            raise AssertionError("the orbit count built points")

        orbit_partition_class.cache_clear()
        monkeypatch.setattr(ramsys.oracle, "class_points", refuse)
        for case in cases:
            assert orbit_count_class(*case) == recorded[case]

    @pytest.mark.parametrize("size", [0, 1, 2, 7, 40, 300])
    def test_partition_matches_a_set_reference(self, size):
        # sparse random permutations (each moves a random subset of points
        # among themselves) leave many orbits; 0..3 maps, the empty list too
        rng = random.Random(size)
        for count in [0, 1, 2, 3] * 5:
            maps = []
            for _ in range(count):
                image = list(range(size))
                moved = rng.sample(range(size), rng.randrange(size + 1))
                for x, y in zip(moved, rng.sample(moved, len(moved))):
                    image[x] = y
                maps.append(image)
            moves = [image.__getitem__ for image in maps]
            reference = tuple(
                tuple(sorted(orbit)) for orbit in find_orbits(range(size), moves)
            )
            assert _partition(size, maps) == reference

    def test_s5_classes_at_r2_match_multiset_coefficients(self):
        from ramsys.combinat import multiset_coefficient

        for lam in enumerate_cycle_types(5):
            assert orbit_count_class(lam, 2) == multiset_coefficient(gamma(lam), 2)


class TestBeta:
    def test_identity_commutes_with_everything(self):
        for lam in enumerate_cycle_types(4):
            assert beta(identity(4), lam) == class_size(lam)

    def test_transposition_example(self):
        assert beta(Permutation.from_cycles(3, [(1, 2)]), CycleType.parse("1^1 2^1")) == 1

    def test_sums_to_group_order(self):
        for n in range(1, 5):
            for lam in enumerate_cycle_types(n):
                total = sum(beta(g, lam) for g in symmetric_group(n))
                assert total == factorial(n)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            beta(identity(3), CycleType.parse("1^4"))


class TestSupportOrbitCount:
    # four supports and their ω; the Burnside sums over S_n are 48, 600, 600 and 6
    SUPPORTS = [
        (("2^2", "1^2 2^1"), 2),
        (("1^2 3^1", "2^1 3^1"), 5),
        (("1^1 2^2", "1^1 4^1"), 5),
        (("1^3", "1^1 2^1", "3^1"), 1),
    ]

    @pytest.mark.parametrize("support, omega", SUPPORTS, ids=[" + ".join(s) for s, _ in SUPPORTS])
    def test_pinned_supports(self, support, omega):
        classes = [CycleType.parse(text) for text in support]
        assert support_orbit_count(classes) == omega
        n = classes[0].n
        # the Burnside sum with β from permutations, not from the oracle's domains
        total = sum(prod(beta(g, lam) for lam in classes) for g in symmetric_group(n))
        assert total == omega * factorial(n)
        # and ω as the orbits of simultaneous conjugation on the tuples themselves
        members = [conjugacy_class(lam) for lam in classes]
        moves = [
            lambda point, s=s: tuple(conjugate(s, h) for h in point) for s in adjacent_transpositions(n)
        ]
        assert len(find_orbits(itertools.product(*members), moves)) == omega

    def test_matches_the_reference_burnside_sum(self):
        # every support of one to three classes of S_1..S_5: 1 + 3 + 7 + 25 + 63
        supports = 0
        for n in range(1, 6):
            classes = enumerate_cycle_types(n)
            group = symmetric_group(n)
            tables = {lam: [beta(g, lam) for g in group] for lam in classes}
            for size in range(1, 4):
                for support in itertools.combinations(classes, size):
                    total = sum(map(prod, zip(*[tables[lam] for lam in support])))
                    assert total % factorial(n) == 0
                    assert support_orbit_count(support) == total // factorial(n), support
                    supports += 1
        assert supports == 99

    def test_makes_no_commutation_test(self, monkeypatch):
        supports = [[CycleType.parse(text) for text in support] for support, _ in self.SUPPORTS]
        for lam in itertools.chain.from_iterable(supports):
            class_action(lam)

        def refuse(a, b):
            raise AssertionError("support_orbit_count made a commutation test")

        monkeypatch.setattr(ramsys.oracle, "_commutes", refuse)
        assert [support_orbit_count(classes) for classes in supports] == [2, 5, 5, 1]

    def test_s7_support_takes_under_a_second(self, monkeypatch):
        # C_7 = Z_g for the 7-cycle g acts freely on the 630 members of
        # 1^1 2^1 4^1, so ω is 630 / 7; the time includes both class actions
        classes = [CycleType.parse("1^1 2^1 4^1"), CycleType.parse("7^1")]
        monkeypatch.setattr(ramsys.oracle, "ORACLE_MAX_N", 7)
        class_action.cache_clear()
        try:
            start = time.perf_counter()
            assert support_orbit_count(classes) == 90
            assert time.perf_counter() - start < 1
        finally:
            class_action.cache_clear()

    def test_indivisible_sum_is_caught(self, monkeypatch):
        # base point 0 of the transpositions of S_3 loses the identity from its
        # carried centralizer, so the β sum falls from 3! to 5
        lam = CycleType.parse("1^1 2^1")
        true_class_action = ramsys.oracle.class_action

        def faulty(mu):
            action = true_class_action(mu)
            if mu != lam:
                return action
            identity = tuple(range(1, mu.n + 1))
            first = tuple([h for h in action.domains[0] if h != identity])
            return action._replace(domains=(first, *action.domains[1:]))

        monkeypatch.setattr(ramsys.oracle, "class_action", faulty)
        with pytest.raises(AssertionError, match="not divisible"):
            support_orbit_count([lam])

    def test_rejects_empty_and_mixed_supports(self):
        with pytest.raises(ValueError):
            support_orbit_count([])
        with pytest.raises(ValueError):
            support_orbit_count([CycleType.parse("1^3"), CycleType.parse("1^4")])


class TestJointReading:
    """One conjugation acting on every class at once: the joint orbit count
    of a support, from the oracle's index maps alone, is count_rsc times ω
    (ROADMAP item 1's identity)."""

    @staticmethod
    def closed_form(entries):
        return count_rsc(Ramification(entries[0][0].n, tuple(entries))) * support_orbit_count(
            [lam for lam, _ in entries]
        )

    @staticmethod
    def cases(n):
        # every support of at most three classes of S_n, each class at r = 1 or 2
        classes = enumerate_cycle_types(n)
        for size in range(1, min(3, len(classes)) + 1):
            for support in itertools.combinations(classes, size):
                for rs in itertools.product((1, 2), repeat=size):
                    yield list(zip(support, rs))

    def test_every_support_of_s2_and_s3(self):
        cases = [entries for n in (2, 3) for entries in self.cases(n)]
        assert len(cases) == 34
        for entries in cases:
            assert joint_orbit_count(entries) == self.closed_form(entries), entries

    def test_seeded_sample_of_s4_and_s5(self):
        # the supports whose joint points fit the budget: 126 at S_4, 180 at S_5
        rng = random.Random(35)
        for n, draws in ((4, 12), (5, 3)):
            fitting = [
                entries for entries in self.cases(n)
                if prod(_point_count(lam, r) for lam, r in entries) <= ORBIT_POINT_BUDGET
            ]
            for entries in rng.sample(fitting, draws):
                assert joint_orbit_count(entries) == self.closed_form(entries), entries

    PINNED = [
        ((("2^2", 1), ("1^2 2^1", 1)), 32),
        ((("1^2 3^1", 1), ("2^1 3^1", 2)), 630),
        ((("1^1 2^2", 2), ("1^1 4^1", 2)), 500),
        ((("1^3", 2), ("1^1 2^1", 2), ("3^1", 2)), 54),
    ]

    @pytest.mark.parametrize("support, joint", PINNED, ids=["32", "630", "500", "54"])
    def test_pinned_supports(self, support, joint):
        entries = [(CycleType.parse(text), r) for text, r in support]
        assert joint_orbit_count(entries) == joint == self.closed_form(entries)

    def test_over_budget_support_is_refused_before_any_map(self, monkeypatch):
        # 600 · 480 · 720 · 720 points, about 1.5·10^11
        entries = [(CycleType.parse(text), 2) for text in ("5^1", "1^1 4^1", "2^1 3^1", "1^2 3^1")]

        def refuse(lam, r):
            raise AssertionError("built an index map of an over-budget support")

        monkeypatch.setattr(ramsys.oracle, "index_moves", refuse)
        start = time.perf_counter()
        with pytest.raises(OracleBudgetError, match="149299200000"):
            joint_orbit_count(entries)
        assert time.perf_counter() - start < 1


class TestFixedPointCount:
    def test_all_fixed_under_identity(self):
        lam = CycleType.parse("3^1")
        assert fixed_point_count(
            identity(3), identity(1), lam
        ) == 6  # gamma^1 * |C| = 3 * 2

    def test_transposition_on_transpositions(self):
        lam = CycleType.parse("1^1 2^1")
        count = fixed_point_count(
            Permutation.from_cycles(3, [(1, 2)]), identity(1), lam
        )
        assert count == 2  # gamma^1 * beta = 2 * 1

    def test_matches_closed_form_spot(self):
        lam = CycleType.parse("1^2 2^1")
        rng = random.Random(19)
        group = symmetric_group(4)
        index_group = symmetric_group(2)
        for _ in range(25):
            g = rng.choice(group)
            pi = rng.choice(index_group)
            expected = gamma(lam) ** cycle_count(pi) * beta(g, lam)
            assert fixed_point_count(g, pi, lam) == expected


class TestTypeVectorsVsOrbits:
    def exhaustive_check(self, lam, r):
        u0 = canonical_representative(lam)
        points = class_points(lam, r)
        orbits = orbit_partition_class(lam, r)
        assert positions_cover(orbits, len(points))
        orbit_of = {}
        for index, orbit in enumerate(orbits):
            for x in orbit:
                orbit_of[points[x]] = index
        anchored = [p for p in points if p.base_point == u0]
        assert len(anchored) == gamma(lam) ** r
        for p, q in itertools.combinations(anchored, 2):
            same_orbit = orbit_of[p] == orbit_of[q]
            same_type = point_type(p) == point_type(q)
            assert same_orbit == same_type

    def test_s3_exhaustive(self):
        for lam in enumerate_cycle_types(3):
            for r in (1, 2, 3):
                self.exhaustive_check(lam, r)

    def test_s4_spot_checks(self):
        self.exhaustive_check(CycleType.parse("1^2 2^1"), 2)
        self.exhaustive_check(CycleType.parse("2^2"), 2)

    def test_type_count_matches_orbit_count(self):
        # distinct types at fixed u0 = orbits = multiset coefficient
        for lam in enumerate_cycle_types(3):
            for r in (1, 2, 3):
                u0 = canonical_representative(lam)
                anchored = [p for p in class_points(lam, r) if p.base_point == u0]
                types = {point_type(p) for p in anchored}
                assert len(types) == orbit_count_class(lam, r)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_orbits_at_base_point_zero_are_the_type_vectors(self, n):
        # on positions, not points: base point 0 holds the positions below
        # γ^r, and position x carries the characters of its r base-γ digits.
        # Every orbit meets them in exactly one multiset of character
        # indices, different orbits in different ones, and those multisets,
        # read as compositions, are the type vectors enumerate_types writes
        for lam in enumerate_cycle_types(n):
            for r in (1, 2, 3):
                if class_size(lam) * gamma(lam) ** r > ORBIT_POINT_BUDGET:
                    continue
                gam = len(class_action(lam).tables[0])
                orbit_types = []
                for orbit in orbit_partition_class(lam, r):
                    met = {digit_counts(x, gam, r) for x in orbit if x < gam**r}
                    assert len(met) == 1, (str(lam), r, orbit)
                    orbit_types += met
                assert len(set(orbit_types)) == len(orbit_types)
                written = [v.entries[0][1] for v in enumerate_types(Ramification(n, ((lam, r),)))]
                assert sorted(orbit_types) == sorted(written), (str(lam), r)


class TestMonolithicOrbitCount:
    def test_s3_all_ones_without_per_class_factoring(self):
        # the acting group is a product over classes, each factor moving only
        # its own component; orbits of the combined action must agree with
        # the product of per-class counts
        classes = enumerate_cycle_types(3)
        per_class = [class_points(lam, 1) for lam in classes]
        space = list(itertools.product(*per_class))
        identity_index = identity(1)
        transpositions = [
            Permutation.from_cycles(3, [(1, 2)]),
            Permutation.from_cycles(3, [(2, 3)]),
        ]

        def component_move(slot, g):
            def move(state):
                return tuple(
                    act(g, identity_index, part) if i == slot else part
                    for i, part in enumerate(state)
                )

            return move

        moves = [
            component_move(slot, g)
            for slot in range(len(classes))
            for g in transpositions
        ]
        orbits = find_orbits(space, moves)
        assert len(space) == 72
        assert len(orbits) == 12


class TestCharacterRepresentation:
    def test_values_indexed_by_sorted_domain(self):
        u = Permutation.from_cycles(3, [(1, 2, 3)])
        for chi in character_basis(u):
            assert list(chi.domain) == sorted(chi.domain, key=lambda p: p.images)

    def test_construction_validates_lengths(self):
        with pytest.raises(ValueError):
            Character(2, (identity(2),), (0, 1))


class TestIndependenceFromTheClosedForm:
    MODULES = (
        "ramsys",
        "ramsys.perm",
        "ramsys.combinat",
        "ramsys.centralizer",
        "ramsys.counting",
        "ramsys.oracle",
        "ramsys.cli",
    )
    CLOSED_FORM = (
        "gamma",
        "abelianization_invariants",
        "class_size",
        "centralizer_order",
        "multiset_coefficient",
        "count_rsc",
    )

    def test_every_closed_form_name_exists(self):
        # the test below switches a name off only where a module has it, so
        # a stale entry would switch off nothing
        modules = list(map(importlib.import_module, self.MODULES))
        for name in self.CLOSED_FORM:
            assert any(hasattr(module, name) for module in modules), name

    def test_orbit_counts_with_the_closed_form_switched_off(self, monkeypatch):
        cases = [
            (lam, r) for n in range(2, 5) for lam in enumerate_cycle_types(n) for r in (1, 2)
        ]
        recorded = {case: orbit_count_class(*case) for case in cases}

        def switched_off(*args, **kwargs):
            raise AssertionError("the oracle called the closed form")

        for module in map(importlib.import_module, self.MODULES):
            for name in self.CLOSED_FORM:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, switched_off)
        for value in vars(ramsys.oracle).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
        for case in cases:
            assert orbit_count_class(*case) == recorded[case]

    def test_oracle_imports_only_perm_from_the_package(self):
        # exactly the class type and the two error classes: no closed-form
        # name, and no permutation helper either, since u0 is laid out here
        tree = ast.parse(Path(ramsys.oracle.__file__).read_text(encoding="utf-8"))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any(alias.name.split(".")[0] == "ramsys" for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("ramsys")):
                assert (node.level, node.module) in [(1, "perm"), (0, "ramsys.perm")]
                imported += [alias.name for alias in node.names]
        assert sorted(imported) == ["CycleType", "InputError", "UnsupportedGroupError"]
        assert not set(imported) & set(self.CLOSED_FORM)


class TestCharacterNumbering:
    def test_bases_maps_and_orbits_are_pinned(self):
        # sha256 over every class of S_2..S_5: the carried value tables, the
        # character maps and the orbit partitions for r <= 3 (r <= 2 at n = 5);
        # pins the character numbering that type vectors use
        digest = hashlib.sha256()
        for n in range(2, 6):
            for lam in enumerate_cycle_types(n):
                action = class_action(lam)
                digest.update(str(lam).encode())
                digest.update(repr([list(t) for t in action.tables]).encode())
                digest.update(repr(action.character_maps).encode())
                for r in range(1, (2 if n == 5 else 3) + 1):
                    digest.update(repr(orbit_partition_class(lam, r)).encode())
        assert digest.hexdigest()[:16] == "c7050ce6cabc7a0b"
