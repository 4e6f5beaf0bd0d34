"""Reference code for the test suite, and the one home of every helper that
more than one test file uses.

The permutation products (``compose``, ``inverse``, ``conjugate``) and
``cycle_count`` live here because only the tests multiply ``Permutation``s:
the closed form needs conjugacy classes, centralizer invariants and
multiset coefficients, and the oracle multiplies image tuples.
``symmetric_group`` lists S_n by the tests themselves, so they hold the
oracle to a group it did not enumerate.

``ramsys.oracle`` works on image tuples end to end.  The tests hold it to
explicit objects instead: frozensets of ``Permutation``s for centralizers,
commutator subgroups and abelian quotients, ``Character``s over a domain of
``Permutation``s, and ``act``, the relabelling action on one ``RSCPoint`` at
a time.  The group views are thin converters over the oracle's private
tuple core; ``act`` and ``fixed_point_count`` move explicit points, one
character at a time, and are the independent reference that the oracle's
index maps are checked against.  ``beta`` counts the class members that
commute with g by multiplying ``Permutation``s, so the fixed-point law and
the Burnside sums hold ``support_orbit_count``, which reads β off the
centralizers the class walk carried, to products it did not make.
"""

import itertools
from collections import Counter
from dataclasses import dataclass
from math import gcd, lcm

import ramsys.oracle
from ramsys.oracle import (
    Character,
    RSCPoint,
    _abelian_quotient,
    _centralizer,
    _derived,
    _padded,
    class_action,
    class_points,
)
from ramsys.perm import CycleType, Permutation, _trusted_permutation, cycle_decomposition


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


def centralizer(sigma: Permutation) -> frozenset[Permutation]:
    """{g : g·sigma = sigma·g}, by exhaustive commutation test."""
    return frozenset(map(_permutation, _centralizer(_padded(sigma))))


def commutator_subgroup(H: frozenset[Permutation]) -> frozenset[Permutation]:
    """H' as the closure of the commutators [a, s] with s in a greedily
    chosen generating set of H (see ``ramsys.oracle._derived``)."""
    return frozenset(map(_permutation, _derived(sorted(map(_padded, H)))))


@dataclass(frozen=True, eq=False)
class FiniteAbelianGroup:
    """The quotient H/H' realized concretely.

    carrier     one canonical representative per coset of H'
    generators  (representative, order) pairs of an internal direct-sum
                cyclic decomposition, orders weakly decreasing
    projection  every element of H mapped to its coordinate tuple
    """

    carrier: tuple[Permutation, ...]
    generators: tuple[tuple[Permutation, int], ...]
    projection: dict[Permutation, tuple[int, ...]]

    def exponent(self) -> int:
        return lcm(*(order for _, order in self.generators))


def abelian_quotient(H: frozenset[Permutation]) -> FiniteAbelianGroup:
    """Explicit H/H' with the greedy cyclic decomposition of
    ``ramsys.oracle._abelian_quotient``."""
    reps, chosen, projection = _abelian_quotient(sorted(map(_padded, H)))
    generators = tuple([(_permutation(g), order) for g, order in chosen])
    projection = {_permutation(h): coords for h, coords in projection.items()}
    return FiniteAbelianGroup(tuple(map(_permutation, reps)), generators, projection)


def character_basis(u: Permutation) -> tuple[Character, ...]:
    """``ramsys.oracle.character_basis(u)`` as ``Character``s whose shared
    domain is the sorted centralizer wrapped as ``Permutation``s."""
    modulus, domain, tables = ramsys.oracle.character_basis(u)
    wrapped = tuple(map(_trusted_permutation, domain))
    return tuple([Character(modulus, wrapped, values) for values in tables])


def conjugacy_class(lam: CycleType) -> tuple[Permutation, ...]:
    """All permutations of the given cycle type, sorted: the base points the
    walk of ``class_action`` reaches."""
    return class_action(lam).base_points


def beta(g: Permutation, lam: CycleType) -> int:
    """|Z_g ∩ C|: how many members of the class commute with g, by explicit
    products of ``Permutation``s."""
    if g.n != lam.n:
        raise ValueError(f"size mismatch: {g.n} vs {lam.n}")
    return sum(1 for h in conjugacy_class(lam) if compose(g, h) == compose(h, g))


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
        _transport(point.characters[pi_inv(i) - 1], g) for i in range(1, pi.n + 1)
    )
    return RSCPoint(conjugate(g, point.base_point), new_chars)


def fixed_point_count(g: Permutation, pi: Permutation, lam: CycleType) -> int:
    """Brute-force count of class points fixed by act(g, pi, ·).

    The closed form is γ^k(pi) · beta(g, lam) with k(pi) the number of cycles
    of pi; the test suite checks the two against each other.
    """
    points = class_points(lam, pi.n)
    return sum(1 for point in points if act(g, pi, point) == point)
