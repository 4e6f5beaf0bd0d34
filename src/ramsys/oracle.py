"""Brute-force verification engine over explicit small symmetric groups.

Everything here is computed from first principles at desk scale (n <= 5):
centralizers by exhaustive commutation test over S_n, and their full
character groups as the homomorphisms into Z/m that agree on every edge of
a breadth-first walk over the group by its generators (``_characters``).
That work runs on padded image tuples (0, p(1), ..., p(n)), which sort by
images and multiply in one C-level call, a·b = ``itemgetter(*b)(a)``.
``character_basis`` returns tuples too.  ``Permutation``s are made only by
``class_action`` (u0, the generators (1 2) and (1 2 ... n) of S_n it
conjugates by, and each base point it newly reaches) and by ``class_points``.

Orbits of the relabelling action are counted on integer-coded points.  Per
class, one breadth-first walk of conjugations by (1 2) and (1 2 ... n) finds
the class from its canonical representative u0 (the generators of a finite
group reach a whole orbit without their inverses, since each inverse is a
power) and carries the character basis, built once at u0, to the rest of it
as index maps (``class_action``); the orbits of the maps on
``range(|C|·γ^r)`` are found by a walk over positions.  The maps are
observed, never assumed: that moving a character around a loop of
conjugations brings it back to itself is what the closed form relies on.
The test suite holds the maps to ``act`` in ``tests/reference.py``, which
moves one point at a time on explicit objects; the frozenset views of the
group work live there too.  ``support_orbit_count`` counts the orbits of S_n
on a support's tuples of class members under simultaneous conjugation, by
Burnside's lemma over the centralizers the walk carried.  Nothing here uses
the closed form: the only import from the package is the permutation
primitives of ``perm``, and the point budget is the oracle's own class size
times its own basis size to the r, so agreement between the two paths is
evidence, not circularity.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, lcm, prod
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .perm import CycleType, InputError, Permutation, UnsupportedGroupError
from .perm import _trusted_permutation, canonical_representative, cycle_type

ORACLE_MAX_N = 5

# Largest per-class point set (|C| · γ^r) the orbit machinery will materialize.
ORBIT_POINT_BUDGET = 250_000

Images = tuple[int, ...]  # a padded image tuple (0, p(1), ..., p(n))


class OracleBudgetError(InputError, RuntimeError):
    """Raised when a brute-force orbit computation would exceed the point budget."""


def _ensure_scale(n: int) -> None:
    if not 1 <= n <= ORACLE_MAX_N:
        raise UnsupportedGroupError(f"oracle supports 1 <= n <= {ORACLE_MAX_N}, got n = {n}")


def _padded(p: Permutation) -> Images:
    return (0, *p.images)


def _commutes(a: Images, b: Images) -> bool:
    return itemgetter(*b)(a) == itemgetter(*a)(b)


def _group(n: int) -> Iterator[Images]:
    """S_n in sorted order.  The oracle's scale check runs here, before the
    first element, and every path to n!-sized work starts here."""
    _ensure_scale(n)
    return map((0,).__add__, itertools.permutations(range(1, n + 1)))


def _centralizer(s: Images) -> list[Images]:
    return [g for g in _group(len(s) - 1) if _commutes(g, s)]


def _generate(identity: Images, candidates: Iterable[Images]) -> list[Images]:
    """The candidates kept as generators of the subgroup they generate.  The
    span grows by breadth-first right multiplication with the generators; a
    candidate is kept only if it is not yet in the span."""
    span = {identity}
    generators: list[Images] = []
    times = []  # times[i](a) = a·generators[i]
    for candidate in candidates:
        if candidate in span:
            continue
        generators.append(candidate)
        times.append(itemgetter(*candidate))
        walk = list(span)
        for a in walk:
            for times_s in times:
                product = times_s(a)
                if product not in span:
                    span.add(product)
                    walk.append(product)
    return generators


def _characters(elements: list[Images]) -> tuple[int, list[tuple[int, ...]]]:
    """The modulus m and the value tables, on H given as its sorted elements,
    of every one-dimensional character of H.  With s_i of order d_i the
    generators ``_generate`` keeps and m = lcm(d_i), a character is a
    homomorphism H -> Z/m, fixed by its values on the s_i, each a multiple
    of m/d_i.  A choice of those values spreads over H in one pass over the
    breadth-first edges a -> a·s_i, χ(a·s_i) = χ(a) + χ(s_i): the first edge
    into an element sets it, and a later one that disagrees drops the choice.
    A kept choice agrees on every edge, so χ(a·w) = χ(a) + χ(w) for every word
    w in the s_i.  Characters come in lexicographic order of generator values."""
    identity = elements[0]
    generators = _generate(identity, elements)
    times = [itemgetter(*s) for s in generators]
    orders = []
    for s, times_s in zip(generators, times):
        power, order = s, 1
        while power != identity:
            power, order = times_s(power), order + 1
        orders.append(order)
    modulus = lcm(*orders)
    position = {h: i for i, h in enumerate(elements)}
    edges, walk, reached = [], [0], {0}  # (a, i, b): b = a·s_i, as positions
    for a in walk:
        for i, times_s in enumerate(times):
            b = position[times_s(elements[a])]
            edges.append((a, i, b))
            if b not in reached:
                reached.add(b)
                walk.append(b)
    tables = []
    for values in itertools.product(*[range(0, modulus, modulus // d) for d in orders]):
        chi = [0] + [None] * (len(elements) - 1)  # the identity, position 0, has value 0
        for a, i, b in edges:
            value = (chi[a] + values[i]) % modulus
            if chi[b] is None:
                chi[b] = value
            elif chi[b] != value:
                break
        else:
            tables.append(tuple(chi))
    return modulus, tables


@dataclass(frozen=True)
class Character:
    """A one-dimensional character in additive form: values are residues mod
    ``modulus`` (the lcm of the orders of the generators ``_generate`` keeps
    for the domain), and χ(xy) = χ(x) + χ(y) with χ(identity) = 0."""

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


def character_basis(u: Permutation) -> tuple[int, tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """The indexed character group of Z_u as tuple data ``(modulus, domain,
    tables)``: ``domain`` is Z_u as sorted unpadded image tuples, the format
    of ``ClassAction.domains``, and ``tables[c]`` is character c's values on
    it mod ``modulus``.  Characters are numbered in lexicographic order of
    their values on the generators of Z_u that ``_generate`` keeps from its
    sorted elements (see ``_characters``), which fixes the type vectors'
    character numbering.  No permutation is made."""
    elements = _centralizer(_padded(u))
    modulus, tables = _characters(elements)
    return modulus, tuple([x[1:] for x in elements]), tuple(tables)


@dataclass(frozen=True)
class ClassAction:
    """The generators g_0 = (1 2) and g_1 = (1 2 ... n) of S_n acting on one
    class's (base point, character) pairs, as index maps; one generator at
    n = 2, none at n = 1.

    base_points     the class, sorted; base point b is base_points[b]
    modulus         the modulus of every character's values
    domains         domains[b]: base point b's centralizer, sorted images
    tables          tables[b][c]: character c's values on domains[b], carried
                    from base point 0 by conjugation
    base_maps       base_maps[k][b]: index of g_k·u_b·g_k⁻¹
    character_maps  character_maps[k][b][c]: index, in the target's basis,
                    of the character that g_k moves character c of b to
    """

    base_points: tuple[Permutation, ...]
    modulus: int
    domains: tuple[tuple[tuple[int, ...], ...], ...]
    tables: tuple[tuple[tuple[int, ...], ...], ...]
    base_maps: tuple[tuple[int, ...], ...]
    character_maps: tuple[tuple[tuple[int, ...], ...], ...]


def _conjugate_images(g: tuple, elements: list) -> list[tuple[int, ...]]:
    """g·x·g⁻¹ for each image tuple x, where ``g = (pick, values)`` prepares
    the generator g: the conjugate sends point j to g(x(g⁻¹(j))), ``values``
    is g padded and ``pick(x)`` is x at the positions g⁻¹(j) - 1."""
    pick, values = g
    return [itemgetter(*picked)(values) for picked in map(pick, elements)]


@lru_cache(maxsize=None)
def class_action(lam: CycleType) -> ClassAction:
    """Find one class and build its index maps in one breadth-first walk of
    conjugations from u0 = ``canonical_representative(lam)``, the only base
    point ``character_basis`` runs at.  Base points are numbered as the walk
    reaches them, each new one checked for cycle type ``lam``, then sorted;
    u0, the smallest member of its class, stays base point 0.

    Along every (base point, g) edge, g one of ``ClassAction``'s generators,
    the base point and each element of its centralizer are conjugated by g
    once, as image tuples
    (``_conjugate_images``).  Sorting the conjugates gives the target's
    domain and one index map for the edge; every character of the basis is
    moved by permuting its value tuple through that map, as the test
    reference ``act`` moves it.  Along the first edge into a base point, the
    conjugates and the moved tables become its domain and basis, and only
    the base point is made a permutation.  Along every other edge, the
    conjugates must be exactly the target's domain, and along every edge,
    each moved character is looked up by its value table in the target's
    basis; a mismatch or a miss raises ``AssertionError``.  So the maps
    record what conjugation does; none is assumed to be the identity.
    """
    found = [canonical_representative(lam)]
    index = {found[0].images: 0}
    modulus, domain, table = character_basis(found[0])
    n = lam.n
    generators = [Permutation.from_cycles(n, [c]) for c in [(1, 2), range(1, n + 1)][: n - 1]]
    # g as a getter of the positions g⁻¹(j) - 1 and as padded images; for n >= 2
    # every domain has two or more elements, so each itemgetter returns a tuple
    prepared = [(itemgetter(*sorted(range(n), key=g.images.__getitem__)), _padded(g)) for g in generators]
    domains, tables = [domain], [table]
    lookups = [{values: c for c, values in enumerate(table)}]  # lookups[b][values]: c
    base_maps: list[list[int]] = [[] for _ in generators]
    character_maps: list[list[tuple[int, ...]]] = [[] for _ in generators]
    for b, u in enumerate(found):
        for k, g in enumerate(generators):
            conjugates = _conjugate_images(prepared[k], [u.images, *domains[b]])
            target = index.get(conjugates[0])
            moved = conjugates[1:]
            # the j-th index of reorder is the position, in b's domain, of the
            # element whose conjugate is the j-th of the target's sorted domain
            reorder = itemgetter(*sorted(range(len(moved)), key=moved.__getitem__))
            domain = reorder(moved)
            images = tuple(map(reorder, tables[b]))
            if target is None:
                w = _trusted_permutation(conjugates[0])
                if cycle_type(w) != lam:
                    raise AssertionError(f"{g} moves {u} out of the class {lam} to {w}")
                target = index[w.images] = len(found)
                found.append(w)
                domains.append(domain)
                tables.append(images)
                lookups.append({values: c for c, values in enumerate(images)})
            elif domain != domains[target]:
                raise AssertionError(
                    f"{g} does not carry the centralizer of {u} onto that of {found[target]}"
                )
            row = tuple(map(lookups[target].get, images))
            if None in row:
                raise AssertionError(f"{g} moves a character at {u} off the basis at {found[target]}")
            base_maps[k].append(target)
            character_maps[k].append(row)
    sort = sorted(range(len(found)), key=lambda b: found[b].images)  # sort[i]: walk number of base point i
    rank = {b: i for i, b in enumerate(sort)}
    return ClassAction(
        tuple([found[b] for b in sort]),
        modulus,
        tuple([domains[b] for b in sort]),
        tuple([tables[b] for b in sort]),
        tuple(tuple([rank[targets[b]] for b in sort]) for targets in base_maps),
        tuple(tuple([rows[b] for b in sort]) for rows in character_maps),
    )


def _point_count(lam: CycleType, r: int) -> int:
    """The oracle's own count of one class's points, base points times basis
    size to the r; OracleBudgetError past ORBIT_POINT_BUDGET.  The power is
    taken to at most the budget's bit length: with two or more characters,
    that much of it already passes the budget."""
    if r < 0:
        raise ValueError(f"r must be non-negative, got {r}")
    action = class_action(lam)
    capped = min(r, ORBIT_POINT_BUDGET.bit_length())
    points = len(action.base_points) * len(action.tables[0]) ** capped
    if points > ORBIT_POINT_BUDGET:
        needs = points if capped == r else f"more than {ORBIT_POINT_BUDGET}"
        raise OracleBudgetError(
            f"class {lam} with r = {r} needs {needs} points, over the budget of {ORBIT_POINT_BUDGET}"
        )
    return points


def class_points(lam: CycleType, r: int) -> tuple[RSCPoint, ...]:
    """Every (base point, r characters) pair for one class: the per-class
    factor of the full RSC space.  The point at position b·γ^r + Σ c_i·γ^(r-i)
    (i = 1..r) carries base point b and characters c_1..c_r of its basis in
    ``class_action(lam)``; ``index_moves`` works on these positions."""
    _point_count(lam, r)
    action = class_action(lam)
    points = []
    for u, domain, tables in zip(action.base_points, action.domains, action.tables):
        wrapped = tuple(map(_trusted_permutation, domain))
        basis = [Character(action.modulus, wrapped, values) for values in tables]
        points += [RSCPoint(u, chars) for chars in itertools.product(basis, repeat=r)]
    return tuple(points)


def index_moves(lam: CycleType, r: int) -> list[list[int]]:
    """The generators of S_n × S_r as maps on the positions of
    ``class_points(lam, r)``: first the generators of S_n that
    ``class_action`` conjugates by, (1 2) and (1 2 ... n), with the slots
    fixed, then the adjacent transpositions of the r slots."""
    action = class_action(lam)
    gam = len(action.tables[0])
    width = gam**r
    moves: list[list[int]] = []
    for targets, maps in zip(action.base_maps, action.character_maps):
        image: list[int] = []
        for target, chars in zip(targets, maps):
            # the images of base point b's positions, in order: the target
            # base point followed by every slot's relabelled digit
            digits = [target]
            for _ in range(r):
                digits = [x * gam + c for x in digits for c in chars]
            image.extend(digits)
        moves.append(image)
    for i in range(r - 1):
        high, low = gam ** (r - 1 - i), gam ** (r - 2 - i)
        swap = [x + (x // low % gam - x // high % gam) * (high - low) for x in range(width)]
        moves.append([b * width + x for b in range(len(action.base_points)) for x in swap])
    return moves


def _partition(size: int, maps: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Orbits of range(size) under the group the index maps generate; each
    map must be a permutation of range(size).  Then what the maps reach from
    a point is its whole orbit, so a walk from each point not yet seen, over
    an orbit list that grows as it goes, labels one orbit.  Each orbit is a
    tuple in ascending order; orbits are ordered by their smallest point."""
    seen = [False] * size
    orbits = []
    for start in range(size):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        for x in orbit:
            for image in maps:
                y = image[x]
                if not seen[y]:
                    seen[y] = True
                    orbit.append(y)
        orbit.sort()
        orbits.append(tuple(orbit))
    return tuple(orbits)


@lru_cache(maxsize=None)
def orbit_partition_class(lam: CycleType, r: int) -> tuple[tuple[int, ...], ...]:
    """Orbits of the relabelling action on one class's point set, as tuples
    of positions into ``class_points(lam, r)`` (see ``_partition``).  Only
    the point count is taken, never the points: the walk runs on the
    positions under ``index_moves``."""
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    return _partition(_point_count(lam, r), index_moves(lam, r))


def orbit_count_class(lam: CycleType, r: int) -> int:
    """Ground-truth per-class orbit count by explicit partition."""
    return len(orbit_partition_class(lam, r))


def oracle_count(ram) -> int:
    """Ground-truth count of isomorphism classes under independent per-class
    relabelling: each class in the support gets its own conjugation and slot
    permutation, so the count is the product of the per-class orbit counts.
    One conjugation applied to every class at once is a different, joint
    reading, which this count does not test."""
    _ensure_scale(ram.n)
    return prod(orbit_count_class(lam, mult) for lam, mult in ram.entries)


def support_orbit_count(classes: Sequence[CycleType]) -> int:
    """ω(supp) = (1/n!) Σ_{g ∈ S_n} Π_{C ∈ supp} β(g, C): by Burnside's lemma,
    the number of orbits of S_n on the tuples (one member of each class)
    under simultaneous conjugation.  β(g, C) = |Z_g ∩ C| counts the members
    v of C with g in Z_v, read off the centralizers ``class_action`` carried,
    so no commutation test is made; a sum that n! does not divide raises
    ``AssertionError``."""
    sizes = {lam.n for lam in classes}
    if len(sizes) != 1:
        raise ValueError(f"a support is one or more classes of one S_n, got sizes {sorted(sizes)}")
    betas = [Counter(itertools.chain.from_iterable(class_action(lam).domains)) for lam in classes]
    total = sum(prod(beta[g] for beta in betas) for g in betas[0])
    order = factorial(sizes.pop())
    orbits, remainder = divmod(total, order)
    if remainder:
        raise AssertionError(f"the fixed-point sum {total} is not divisible by |S_n| = {order}")
    return orbits
