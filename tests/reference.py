"""Reference code for the test suite, and the one home of every helper that
more than one test file uses.

``Permutation``, a checked bijection of {1..n} in one-line image form, lives
here with everything made of it, because only the tests make permutation
objects: the closed form needs conjugacy classes, centralizer invariants and
multiset coefficients, and the oracle works on plain image tuples.  So do
``cycle_decomposition`` and ``cycle_type``, which read a permutation's
cycles; ``canonical_representative``, u0 built as a ``Permutation`` from
``lam.cycles`` here, apart from the code that writes u0's text; the products
(``compose``, ``inverse``, ``conjugate``); and ``identity``, ``image`` and
``cycle_count``.  ``all_ones``, r_C = 1 on every class of S_n, lives here
because three test files use it.  ``symmetric_group`` lists S_n by the tests
themselves, so they hold the oracle to a group it did not enumerate.

``ramsys.oracle`` works on image tuples end to end.  The tests hold it to
explicit objects instead: frozensets of ``Permutation``s for centralizers,
``Character``s over a domain of ``Permutation``s, and ``act``, the
relabelling action on one ``RSCPoint`` at a time.  ``centralizer``,
``character_basis``, ``conjugacy_class`` and ``class_points`` are thin
converters that wrap the oracle's tuples as these objects.
``commutator_subgroup`` and ``quotient_representatives`` are the
tests' own, by explicit products, so the character counts are held to a
Z/Z' that the oracle did not compute.  ``act`` and ``fixed_point_count``
move explicit points, one character at a time, and are the independent
reference that the oracle's index maps are checked against.  ``beta``
counts the class members that commute with g by multiplying
``Permutation``s, so the fixed-point law and the Burnside sums hold
``support_orbit_count``, which reads β off the centralizers the class walk
carried, to products it did not make; ω, the orbit count of a support
under simultaneous conjugation, lives here because only the tests read it.
So does ``joint_orbit_count``, the orbits of one conjugation of every
class at once together with each class's slot permutations, which the
tests hold to count_rsc · ω.
"""

import itertools
from collections import Counter
from dataclasses import dataclass
from math import factorial, gcd, lcm, prod
from typing import Iterable, Sequence

import ramsys.oracle
from ramsys.oracle import _centralizer, class_action
from ramsys.counting import Ramification
from ramsys.perm import CycleType, enumerate_cycle_types


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1..n}; ``images[i - 1]`` is the image of point ``i``."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"images {self.images!r} are not a bijection of 1..{n}")

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Iterable[int]]) -> "Permutation":
        """Build a permutation of {1..n} from disjoint cycles; omitted points stay fixed."""
        images = list(range(1, n + 1))
        seen: set[int] = set()
        for cycle in cycles:
            points = list(cycle)
            if not points:
                raise ValueError("cycles must be non-empty")
            for point in points:
                if not 1 <= point <= n:
                    raise ValueError(f"point {point} outside 1..{n}")
                if point in seen:
                    raise ValueError(f"point {point} appears in two cycles")
                seen.add(point)
            for src, dst in zip(points, points[1:] + points[:1]):
                images[src - 1] = dst
        return cls(tuple(images))

    @property
    def n(self) -> int:
        return len(self.images)

    def __str__(self) -> str:
        """Cycle notation without fixed points, e.g. ``(1 2)(4 5)``; the
        identity renders as ``()``."""
        cycles = [c for c in cycle_decomposition(self) if len(c) > 1]
        return "".join(["(" + " ".join(map(str, c)) + ")" for c in cycles]) or "()"


def _trusted_permutation(images: tuple[int, ...]) -> Permutation:
    """A Permutation built without __post_init__, for image tuples already
    known to be bijections: products of permutations and the oracle's
    tuples."""
    p = object.__new__(Permutation)
    object.__setattr__(p, "images", images)
    return p


def cycle_decomposition(p: Permutation) -> list[tuple[int, ...]]:
    """Disjoint cycles of p as point tuples, fixed points included as 1-cycles.

    One pass over the images: cycles are ordered by smallest contained point
    and start at it, so ``cycle[j]`` is the j-th forward image of its anchor.
    """
    images = p.images
    seen = [False] * (len(images) + 1)
    cycles = []
    for start in range(1, len(images) + 1):
        if seen[start]:
            continue
        cycle = [start]
        point = images[start - 1]
        while point != start:
            seen[point] = True
            cycle.append(point)
            point = images[point - 1]
        cycles.append(tuple(cycle))
    return cycles


def cycle_type(p: Permutation) -> CycleType:
    """The cycle lengths of p, counted over cycle_decomposition; the empty
    permutation has none and raises ``ValueError``."""
    return CycleType.from_parts(map(len, cycle_decomposition(p)))


def canonical_representative(lam: CycleType) -> Permutation:
    """The class's base point u0, its smallest member by image tuple, on all
    n points: its parts in ascending order as cycles on consecutive points
    from 1, each mapping p to p+1 cyclically."""
    cycles, first = [], 1
    for length in reversed(parts(lam)):
        cycles.append(range(first, first + length))
        first += length
    return Permutation.from_cycles(lam.n, cycles)


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def image(p: Permutation, point: int) -> int:
    """The image p(point) of one point of {1..n}."""
    return p.images[point - 1]


# The products of valid permutations are bijections by construction, so they
# skip the check that Permutation.__post_init__ makes.


def compose(p: Permutation, q: Permutation) -> Permutation:
    """The product p·q acting as x -> p(q(x))."""
    images = p.images
    if len(images) != len(q.images):
        raise ValueError(f"size mismatch: {p.n} vs {q.n}")
    return _trusted_permutation(tuple([images[j - 1] for j in q.images]))


def inverse(p: Permutation) -> Permutation:
    images = [0] * len(p.images)
    for i, j in enumerate(p.images, start=1):
        images[j - 1] = i
    return _trusted_permutation(tuple(images))


def conjugate(g: Permutation, x: Permutation) -> Permutation:
    """g·x·g⁻¹; preserves cycle type."""
    g_images = g.images
    if len(g_images) != len(x.images):
        raise ValueError(f"size mismatch: {g.n} vs {x.n}")
    images = [0] * len(g_images)
    for i, j in zip(g_images, x.images):
        images[i - 1] = g_images[j - 1]
    return _trusted_permutation(tuple(images))


def cycle_count(p: Permutation) -> int:
    """Number of cycles, counting fixed points as 1-cycles."""
    return len(cycle_decomposition(p))


def parts(lam: CycleType) -> tuple[int, ...]:
    """The parts of lam in descending order, e.g. (3, 1, 1) for 1^2 3^1,
    sorted here rather than read off the order ``lam.cycles`` is stored in."""
    return tuple(sorted((i for i, m in lam.cycles for _ in range(m)), reverse=True))


def all_ones(n: int) -> Ramification:
    """r_C = 1 for every class of S_n, built through Ramification's checks
    rather than the way parse_ramification("all:1", n) builds it."""
    return Ramification(n, tuple((lam, 1) for lam in enumerate_cycle_types(n)))


def partition_counts(limit):
    """p(0), ..., p(limit) by the coin-change recurrence."""
    ways = [1] + [0] * limit
    for part in range(1, limit + 1):
        for total in range(part, limit + 1):
            ways[total] += ways[total - part]
    return ways


def symmetric_group(n):
    """S_n listed by the tests themselves, not by the oracle, in sorted
    order, so seeded tests draw the same elements."""
    return [Permutation(images) for images in itertools.permutations(range(1, n + 1))]


def is_even(p):
    return (p.n - cycle_count(p)) % 2 == 0


def coset_order(rep, derived_elements):
    """The order of rep's coset in a quotient by derived_elements."""
    power, steps = rep, 1
    while power not in derived_elements:
        power = compose(power, rep)
        steps += 1
    return steps


def cyclic_product_order_histogram(factors):
    """How many elements of each order the product of the cyclic groups
    C_d (d in factors) has."""
    # lcm() of no arguments is 1, so the empty product contributes one
    # element of order 1
    counts = Counter()
    for combo in itertools.product(*(range(d) for d in factors)):
        counts[lcm(*(d // gcd(x, d) for x, d in zip(combo, factors)))] += 1
    return counts


def parse_decimal(text):
    """int(text) at any length, 1,000 digits at a time."""
    value = 0
    for start in range(0, len(text), 1000):
        chunk = text[start:start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def _permutation(x):
    return _trusted_permutation(x[1:])


def _padded(p: Permutation) -> tuple[int, ...]:
    return (0, *p.images)


def centralizer(sigma: Permutation) -> frozenset[Permutation]:
    """{g : g·sigma = sigma·g}, by exhaustive commutation test."""
    return frozenset(map(_permutation, _centralizer(_padded(sigma))))


def commutator_subgroup(H: frozenset[Permutation]) -> frozenset[Permutation]:
    """H' as the closure of every commutator a·b·a⁻¹·b⁻¹ with a, b in H, by
    explicit products of ``Permutation``s."""
    elements = {identity(next(iter(H)).n)} | {
        compose(compose(a, b), compose(inverse(a), inverse(b))) for a in H for b in H
    }
    frontier = list(elements)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(elements):
                product = compose(a, b)
                if product not in elements:
                    elements.add(product)
                    fresh.append(product)
        frontier = fresh
    return frozenset(elements)


def quotient_representatives(H, derived):
    """One member of each coset of ``derived`` in H, the smallest by images."""
    return {min((compose(h, d) for d in derived), key=lambda p: p.images) for h in H}


@dataclass(frozen=True)
class Character:
    """A one-dimensional character in additive form: values are residues mod
    ``modulus`` (the lcm of the orders of the generators the oracle's
    ``_characters`` keeps for the domain), and χ(xy) = χ(x) + χ(y) with
    χ(identity) = 0."""

    modulus: int
    domain: tuple[Permutation, ...]
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.domain) != len(self.values):
            raise ValueError("domain and values differ in length")


@dataclass(frozen=True)
class RSCPoint:
    """One per-class constituent of a ramification system: a base point u in
    the class together with r characters of the centralizer of u."""

    base_point: Permutation
    characters: tuple[Character, ...]


def character_basis(u: Permutation) -> tuple[Character, ...]:
    """``ramsys.oracle.character_basis(u.images)`` as ``Character``s whose
    shared domain is the sorted centralizer wrapped as ``Permutation``s."""
    modulus, domain, tables = ramsys.oracle.character_basis(u.images)
    wrapped = tuple(map(_trusted_permutation, domain))
    return tuple([Character(modulus, wrapped, values) for values in tables])


def conjugacy_class(lam: CycleType) -> tuple[Permutation, ...]:
    """All permutations of the given cycle type, sorted: the base points the
    walk of ``class_action`` reaches, checked as ``Permutation``s."""
    return tuple(map(Permutation, class_action(lam).base_points))


def class_points(lam: CycleType, r: int) -> tuple[RSCPoint, ...]:
    """``ramsys.oracle.class_points(lam, r)``, budget check included, as
    ``RSCPoint``s in its position order: each point's value tables become
    ``Character``s on its base point's domain in ``class_action(lam)``."""
    points = ramsys.oracle.class_points(lam, r)
    action = class_action(lam)
    domains = {
        u: tuple(map(_trusted_permutation, domain)) for u, domain in zip(action.base_points, action.domains)
    }
    return tuple(
        [
            RSCPoint(Permutation(u), tuple([Character(action.modulus, domains[u], values) for values in chars]))
            for u, chars in points
        ]
    )


def beta(g: Permutation, lam: CycleType) -> int:
    """|Z_g ∩ C|: how many members of the class commute with g, by explicit
    products of ``Permutation``s."""
    if g.n != lam.n:
        raise ValueError(f"size mismatch: {g.n} vs {lam.n}")
    return sum(1 for h in conjugacy_class(lam) if compose(g, h) == compose(h, g))


def support_orbit_count(classes: Sequence[CycleType]) -> int:
    """ω(supp) = (1/n!) Σ_{g ∈ S_n} Π_{C ∈ supp} β(g, C): by Burnside's lemma,
    the number of orbits of S_n on the tuples (one member of each class)
    under simultaneous conjugation.  β(g, C) = |Z_g ∩ C| counts the members
    v of C with g in Z_v, read off the centralizers ``class_action`` carried,
    so no commutation test is made; a sum that n! does not divide raises
    ``AssertionError``.  ``class_action`` is looked up on ``ramsys.oracle``
    at each call, so a test that patches it there reaches this count."""
    sizes = {lam.n for lam in classes}
    if len(sizes) != 1:
        raise ValueError(f"a support is one or more classes of one S_n, got sizes {sorted(sizes)}")
    betas = [Counter(itertools.chain.from_iterable(ramsys.oracle.class_action(lam).domains)) for lam in classes]
    total = sum(prod(beta[g] for beta in betas) for g in betas[0])
    order = factorial(sizes.pop())
    orbits, remainder = divmod(total, order)
    if remainder:
        raise AssertionError(f"the fixed-point sum {total} is not divisible by |S_n| = {order}")
    return orbits


def joint_orbit_count(entries: Sequence[tuple[CycleType, int]]) -> int:
    """Orbits of S_n × Π_C S_{r_C} on the product of the support's class
    points, one conjugation acting on every class at once: the joint
    reading, which Burnside's lemma and the fixed-point law put at
    count_rsc · ω.  A point is a mixed-radix number with one digit per
    (class, r) entry, that class's position in ``index_moves``; S_n's
    generators map every digit at once, each by its class's map k, and a
    class's slot swaps map its own digit alone.  The product of the
    ``_point_count``s is held to ``ORBIT_POINT_BUDGET`` before any map is
    built.  The oracle's functions are looked up on ``ramsys.oracle`` at
    each call, so a test that patches them there reaches this count."""
    oracle = ramsys.oracle
    sizes = [oracle._point_count(lam, r) for lam, r in entries]
    if prod(sizes) > oracle.ORBIT_POINT_BUDGET:
        raise oracle.OracleBudgetError(
            f"the joint points number {prod(sizes)}, over the budget of {oracle.ORBIT_POINT_BUDGET}"
        )
    moves = [oracle.index_moves(lam, r) for lam, r in entries]
    generators = len(oracle.class_action(entries[0][0]).base_maps)

    def lifted(digit_maps):
        image = [0]
        for size, digit_map in zip(sizes, digit_maps):
            image = [x * size + y for x in image for y in digit_map]
        return image

    maps = [lifted([class_moves[k] for class_moves in moves]) for k in range(generators)]
    for c, class_moves in enumerate(moves):
        identities = [range(size) for size in sizes]
        for swap in class_moves[generators:]:
            identities[c] = swap
            maps.append(lifted(identities))
    return len(oracle._partition(prod(sizes), maps))


def _transport(chi: Character, g: Permutation) -> Character:
    """Precompose chi with conjugation by g⁻¹; lives on g·Z·g⁻¹."""
    pairs = sorted(
        ((conjugate(g, h), value) for h, value in zip(chi.domain, chi.values)),
        key=lambda item: item[0].images,
    )
    return Character(
        chi.modulus,
        tuple(h for h, _ in pairs),
        tuple(value for _, value in pairs),
    )


def act(g: Permutation, pi: Permutation, point: RSCPoint) -> RSCPoint:
    """Relabelling action: the base point is conjugated by g and character
    slot i receives the old slot π⁻¹(i) precomposed with conjugation by g⁻¹.
    This is a left action: act(g2, p2, act(g1, p1, x)) = act(g2·g1, p2·p1, x).
    """
    if g.n != point.base_point.n:
        raise ValueError(f"size mismatch: g acts on 1..{g.n}, point lives in S_{point.base_point.n}")
    if pi.n != len(point.characters):
        raise ValueError(f"index permutation has degree {pi.n}, point has {len(point.characters)} characters")
    pi_inv = inverse(pi)
    new_chars = tuple(
        _transport(point.characters[image(pi_inv, i) - 1], g) for i in range(1, pi.n + 1)
    )
    return RSCPoint(conjugate(g, point.base_point), new_chars)


def fixed_point_count(g: Permutation, pi: Permutation, lam: CycleType) -> int:
    """Brute-force count of class points fixed by act(g, pi, ·).

    The closed form is γ^k(pi) · beta(g, lam) with k(pi) the number of cycles
    of pi; the test suite checks the two against each other.
    """
    points = class_points(lam, pi.n)
    return sum(1 for point in points if act(g, pi, point) == point)
