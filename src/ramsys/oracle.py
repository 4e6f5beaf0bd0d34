"""Brute-force verification engine over explicit small symmetric groups.

Everything here is computed from first principles at desk scale (n <= 5):
centralizers by exhaustive commutation test over S_n, and their full
character groups as the homomorphisms into Z/m that agree on every edge of
the one walk that also keeps the group's generators (``_characters``).
That work runs on padded image tuples (0, p(1), ..., p(n)), which sort by
images and multiply in one C-level call, a·b = ``itemgetter(*b)(a)``.  u0
(laid out by ``_u0``), the generators, the base points and every result are
unpadded image tuples (p(1), ..., p(n)); no permutation object is made.

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
group work live there too.  Nothing here uses the closed form: the package
gives it only ``CycleType`` and the two error classes, and the point budget
is the oracle's own class size times its own basis size to the r, so
agreement between the two paths is evidence, not circularity.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache
from math import lcm, prod
from operator import itemgetter
from typing import Iterator, Sequence

from .perm import CycleType, InputError, UnsupportedGroupError

ORACLE_MAX_N = 5

# Largest per-class point set (|C| · γ^r) the orbit machinery will materialize.
ORBIT_POINT_BUDGET = 250_000

Images = tuple[int, ...]  # (p(1), ..., p(n)), padded as (0, p(1), ..., p(n)) in the group work


class OracleBudgetError(InputError, RuntimeError):
    """Raised when a brute-force orbit computation would exceed the point budget."""


def _ensure_scale(n: int) -> None:
    if not 1 <= n <= ORACLE_MAX_N:
        raise UnsupportedGroupError(f"oracle supports 1 <= n <= {ORACLE_MAX_N}, got n = {n}")


def _u0(lam: CycleType) -> Images:
    """The class's base point u0, its smallest member: cycles of ascending
    length on consecutive points from 1, each sending p to p + 1 cyclically."""
    images: list[int] = []
    for length, mult in reversed(lam.cycles):
        for first in range(len(images) + 1, len(images) + length * mult + 1, length):
            images += [*range(first + 1, first + length), first]
    return tuple(images)


def _cycles(p: Images) -> list[list[int]]:
    """The cycles of p, fixed points included, each from its smallest point;
    read only for the class check and for the text of an AssertionError."""
    cycles, seen = [], set()
    for start in range(1, len(p) + 1):
        if start not in seen:
            cycles.append([start])
            while (point := p[cycles[-1][-1] - 1]) != start:
                cycles[-1].append(point)
            seen.update(cycles[-1])
    return cycles


def _text(p: Images) -> str:
    """p in cycle notation without fixed points, e.g. (1 2)(4 5); () for the identity."""
    return "".join(["(" + " ".join(map(str, c)) + ")" for c in _cycles(p) if len(c) > 1]) or "()"


def _commutes(a: Images, b: Images) -> bool:
    return itemgetter(*b)(a) == itemgetter(*a)(b)


def _group(n: int) -> Iterator[Images]:
    """S_n in sorted order.  The oracle's scale check runs here, before the
    first element, and every path to n!-sized work starts here."""
    _ensure_scale(n)
    return map((0,).__add__, itertools.permutations(range(1, n + 1)))


def _centralizer(s: Images) -> list[Images]:
    return [g for g in _group(len(s) - 1) if _commutes(g, s)]


def _characters(elements: list[Images]) -> tuple[int, list[tuple[int, ...]]]:
    """The modulus m and the value tables, on H given as its sorted elements,
    of every one-dimensional character of H.  One walk keeps the generators
    and records each edge a -> a·s_i once: an element not yet reached is the
    next generator s_i, applied to every element reached so far, and every
    generator is applied to each element that s_i newly reaches.  With d_i
    the order of s_i and m = lcm(d_i), a character is a homomorphism
    H -> Z/m, fixed by its values on the s_i, each a multiple of m/d_i.  A
    choice of those values spreads over H in one pass over the edges,
    χ(a·s_i) = χ(a) + χ(s_i): the first edge into an element sets it, and a
    later one that disagrees drops the choice.  A kept choice agrees on every
    edge, so χ(a·w) = χ(a) + χ(w) for every word w in the s_i.  Characters
    come in lexicographic order of generator values."""
    identity = elements[0]
    position = {h: i for i, h in enumerate(elements)}
    times, orders = [], []  # times[i](a) = a·s_i
    edges, walk, reached = [], [0], {0}  # (a, i, b): b = a·s_i, as positions
    for candidate, s in enumerate(elements):
        if candidate in reached:
            continue
        times.append(itemgetter(*s))
        power, order = s, 1
        while power != identity:
            power, order = times[-1](power), order + 1
        orders.append(order)
        new, old = len(times) - 1, len(walk)
        for j, a in enumerate(walk):  # s_new on the old elements, every s_i on the new
            for i in range(new if j < old else 0, new + 1):
                b = position[times[i](elements[a])]
                edges.append((a, i, b))
                if b not in reached:
                    reached.add(b)
                    walk.append(b)
    modulus = lcm(*orders)
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


def character_basis(u: Images) -> tuple[int, tuple[Images, ...], tuple[tuple[int, ...], ...]]:
    """The indexed character group of Z_u, for u an image tuple, as tuple
    data ``(modulus, domain, tables)``: ``domain`` is Z_u as sorted image
    tuples, the format of ``ClassAction.domains``, and ``tables[c]`` is
    character c's values on it mod ``modulus``.  Characters are numbered in
    lexicographic order of their values on the generators of Z_u that
    ``_characters`` keeps from its sorted elements, which fixes the type
    vectors' character numbering."""
    elements = _centralizer((0, *u))
    modulus, tables = _characters(elements)
    return modulus, tuple([x[1:] for x in elements]), tuple(tables)


class ClassAction(namedtuple("ClassAction", "base_points modulus domains tables base_maps character_maps")):
    """The generators g_0 = (1 2) and g_1 = (1 2 ... n) of S_n acting on one
    class's (base point, character) pairs, as index maps; one generator at
    n = 2, none at n = 1.

    base_points     the class as sorted image tuples; base point b is base_points[b]
    modulus         the modulus of every character's values
    domains         domains[b]: base point b's centralizer, sorted images
    tables          tables[b][c]: character c's values on domains[b], carried
                    from base point 0 by conjugation
    base_maps       base_maps[k][b]: index of g_k·u_b·g_k⁻¹
    character_maps  character_maps[k][b][c]: index, in the target's basis,
                    of the character that g_k moves character c of b to
    """

    __slots__ = ()


def _conjugate_images(g: tuple, elements: list) -> list[tuple[int, ...]]:
    """g·x·g⁻¹ for each image tuple x, where ``g = (pick, values)`` prepares
    the generator g: the conjugate sends point j to g(x(g⁻¹(j))), ``values``
    is g padded and ``pick(x)`` is x at the positions g⁻¹(j) - 1."""
    pick, values = g
    return [itemgetter(*picked)(values) for picked in map(pick, elements)]


@lru_cache(maxsize=None)
def class_action(lam: CycleType) -> ClassAction:
    """Find one class and build its index maps in one breadth-first walk of
    conjugations from u0 = ``_u0(lam)``, the only base point
    ``character_basis`` runs at.  Base points are image tuples, numbered as
    the walk reaches them, each one, u0 too, checked for cycle type ``lam``
    by its sorted cycle lengths, then sorted; u0, the smallest member of its
    class, stays base point 0.

    Along every (base point, g) edge, g one of ``ClassAction``'s generators,
    the base point and each element of its centralizer are conjugated by g
    once, as image tuples
    (``_conjugate_images``).  Sorting the conjugates gives the target's
    domain and one index map for the edge; every character of the basis is
    moved by permuting its value tuple through that map, as the test
    reference ``act`` moves it.  Along the first edge into a base point, the
    conjugates and the moved tables become its domain and basis.  Along
    every other edge, the conjugates must be exactly the target's domain,
    and along every edge, each moved character is looked up by its value
    table in the target's basis; a mismatch or a miss raises
    ``AssertionError``.  So the maps record what conjugation does; none is
    assumed to be the identity.
    """
    parts = [i for i, m in reversed(lam.cycles) for _ in range(m)]  # ascending, as sorted() gives
    found = [_u0(lam)]
    if sorted(map(len, _cycles(found[0]))) != parts:
        raise AssertionError(f"u0 = {_text(found[0])} is out of the class {lam}")
    index = {found[0]: 0}
    modulus, domain, table = character_basis(found[0])
    n = lam.n
    generators = [(2, 1, *range(3, n + 1)), (*range(2, n + 1), 1)][: n - 1]  # (1 2), (1 2 ... n)
    # g as a getter of the positions g⁻¹(j) - 1 and as padded images; for n >= 2
    # every domain has two or more elements, so each itemgetter returns a tuple
    prepared = [(itemgetter(*sorted(range(n), key=g.__getitem__)), (0, *g)) for g in generators]
    domains, tables = [domain], [table]
    lookups = [{values: c for c, values in enumerate(table)}]  # lookups[b][values]: c
    base_maps: list[list[int]] = [[] for _ in generators]
    character_maps: list[list[tuple[int, ...]]] = [[] for _ in generators]
    for b, u in enumerate(found):
        for k, g in enumerate(generators):
            conjugates = _conjugate_images(prepared[k], [u, *domains[b]])
            target = index.get(conjugates[0])
            moved = conjugates[1:]
            # the j-th index of reorder is the position, in b's domain, of the
            # element whose conjugate is the j-th of the target's sorted domain
            reorder = itemgetter(*sorted(range(len(moved)), key=moved.__getitem__))
            domain = reorder(moved)
            images = tuple(map(reorder, tables[b]))
            if target is None:
                w = conjugates[0]
                if sorted(map(len, _cycles(w))) != parts:
                    raise AssertionError(f"{_text(g)} moves {_text(u)} out of the class {lam} to {_text(w)}")
                target = index[w] = len(found)
                found.append(w)
                domains.append(domain)
                tables.append(images)
                lookups.append({values: c for c, values in enumerate(images)})
            elif domain != domains[target]:
                raise AssertionError(
                    f"{_text(g)} does not carry the centralizer of {_text(u)} onto that of {_text(found[target])}"
                )
            row = tuple(map(lookups[target].get, images))
            if None in row:
                raise AssertionError(f"{_text(g)} moves a character at {_text(u)} off the basis at {_text(found[target])}")
            base_maps[k].append(target)
            character_maps[k].append(row)
    sort = sorted(range(len(found)), key=found.__getitem__)  # sort[i]: walk number of base point i
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
    that much of it already passes the budget.  r is held to the budget
    after that, which only γ = 1, one point at any r, reaches."""
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
    if r > ORBIT_POINT_BUDGET:
        raise OracleBudgetError(f"class {lam} with r = {r} has r slots, over the budget of {ORBIT_POINT_BUDGET}")
    return points


def class_points(lam: CycleType, r: int) -> tuple[tuple[Images, tuple[tuple[int, ...], ...]], ...]:
    """Every (base point, r characters) pair for one class, the per-class
    factor of the full RSC space, as plain tuples: base point b's images and
    the value tables, on ``class_action(lam).domains[b]``, of r characters
    of its basis.  The point at position b·γ^r + Σ c_i·γ^(r-i) (i = 1..r)
    carries base point b and characters c_1..c_r; ``index_moves`` works on
    these positions.  Past the point budget, ``OracleBudgetError``."""
    _point_count(lam, r)
    action = class_action(lam)
    bases = zip(action.base_points, action.tables)
    return tuple([(u, chars) for u, tables in bases for chars in itertools.product(tables, repeat=r)])


def index_moves(lam: CycleType, r: int) -> list[list[int]]:
    """The generators of S_n × S_r as maps on the positions of
    ``class_points(lam, r)``, made without a point: first the generators of
    S_n that ``class_action`` conjugates by, (1 2) and (1 2 ... n), with the
    slots fixed, then the adjacent transpositions of the r slots."""
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

