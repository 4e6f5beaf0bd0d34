"""Acceptance suite: one check per criterion, exact integer comparisons only.

Run under pytest (one test per criterion) or standalone:

    python3 tests/test_acceptance.py

Either way each criterion reports a single PASS/FAIL line.
"""

import itertools
import random
import sys
from collections import Counter
from math import factorial, prod

from ramsys.centralizer import abelianization_invariants, gamma
from ramsys.counting import (
    Ramification,
    count_rsc,
    count_rsc_stirling,
    enumerate_types,
)
from ramsys.oracle import oracle_count, orbit_count_class
from ramsys.perm import CycleType, centralizer_order, enumerate_cycle_types
from reference import (
    Permutation,
    all_ones,
    beta,
    centralizer,
    character_basis,
    commutator_subgroup,
    compose,
    coset_order,
    cycle_count,
    cycle_decomposition,
    cycle_type,
    cyclic_product_order_histogram,
    fixed_point_count,
    image,
    is_even,
    quotient_representatives,
    symmetric_group,
)


# ---------------------------------------------------------------------------
# criterion 1: headline counts


def check_headline_counts():
    assert count_rsc(all_ones(3)) == 12
    assert count_rsc(all_ones(4)) == 384
    assert count_rsc(all_ones(5)) == 23040


# ---------------------------------------------------------------------------
# criterion 2: gamma tables

GAMMA_TABLES = {
    3: [("1^3", 2), ("1^1 2^1", 2), ("3^1", 3)],
    4: [("1^4", 2), ("1^1 3^1", 3), ("1^2 2^1", 4), ("2^2", 4), ("4^1", 4)],
    5: [
        ("1^5", 2),
        ("1^1 4^1", 4),
        ("1^2 3^1", 6),
        ("1^3 2^1", 4),
        ("1^1 2^2", 4),
        ("2^1 3^1", 6),
        ("5^1", 5),
    ],
}


def check_gamma_tables():
    for n, table in GAMMA_TABLES.items():
        assert len(table) == len(enumerate_cycle_types(n))
        for text, expected in table:
            lam = CycleType.parse(text)
            assert lam.n == n
            assert gamma(lam) == expected, (text, gamma(lam), expected)


# ---------------------------------------------------------------------------
# criterion 3: oracle equivalence


def check_oracle_equivalence():
    for n in (2, 3, 4):
        classes = enumerate_cycle_types(n)
        for mults in itertools.product((0, 1, 2), repeat=len(classes)):
            ram = Ramification(n, tuple(zip(classes, mults)))
            assert oracle_count(ram) == count_rsc(ram), str(ram)
    ram = all_ones(5)
    assert oracle_count(ram) == count_rsc(ram) == 23040


# ---------------------------------------------------------------------------
# criterion 4: fixed-point law and Burnside averaging on S_3


def check_fixed_point_law():
    group = symmetric_group(3)
    for lam in enumerate_cycle_types(3):
        for r in (1, 2, 3):
            index_group = [
                Permutation(images)
                for images in itertools.permutations(range(1, r + 1))
            ]
            total = 0
            for g in group:
                for pi in index_group:
                    observed = fixed_point_count(g, pi, lam)
                    expected = gamma(lam) ** cycle_count(pi) * beta(g, lam)
                    assert observed == expected, (str(lam), r, g.images, pi.images)
                    total += observed
            orbits, remainder = divmod(total, len(group) * factorial(r))
            assert remainder == 0
            assert orbits == orbit_count_class(lam, r)


# ---------------------------------------------------------------------------
# criterion 5: structure theorems at oracle scale


def check_structure_theorems():
    for n in range(1, 6):
        group = symmetric_group(n)
        derived = commutator_subgroup(frozenset(group))
        evens = frozenset(p for p in group if is_even(p))
        assert derived == evens
        if n >= 2:
            assert len(derived) * 2 == factorial(n)
        else:
            assert len(derived) == 1
        for sigma in group:
            lam = cycle_type(sigma)
            Z = centralizer(sigma)
            assert len(Z) == centralizer_order(lam)
            characters = character_basis(sigma)
            assert len(characters) == gamma(lam)
            Z_derived = commutator_subgroup(Z)
            observed = Counter(
                coset_order(rep, Z_derived) for rep in quotient_representatives(Z, Z_derived)
            )
            assert observed == cyclic_product_order_histogram(abelianization_invariants(lam))
        for lam in enumerate_cycle_types(n):
            assert sum(beta(g, lam) for g in group) == factorial(n)


# ---------------------------------------------------------------------------
# criterion 6: the two derivations agree on random ramifications


def check_dual_derivations():
    rng = random.Random(2024)
    for _ in range(500):
        n = rng.choice((2, 3, 4, 5, 7, 8))
        entries = []
        for lam in enumerate_cycle_types(n):
            if rng.random() < 0.6:
                entries.append((lam, rng.randint(0, 5)))
        ram = Ramification(n, tuple(entries))
        assert count_rsc_stirling(ram) == count_rsc(ram), str(ram)


# ---------------------------------------------------------------------------
# criterion 7: representative enumeration

S3_ALL_ONES_FAMILIES = {
    (t3, t21, t111)
    for t3 in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for t21 in ((1, 0), (0, 1))
    for t111 in ((1, 0), (0, 1))
}


def _stream_length_equals_count(ram):
    assert sum(1 for _ in enumerate_types(ram)) == count_rsc(ram), str(ram)


def check_representatives():
    # exact family list for S_3 with every multiplicity 1
    vectors = list(enumerate_types(all_ones(3)))
    assert len(vectors) == 12 and len(set(vectors)) == 12
    observed = set()
    for vector in vectors:
        by_class = {str(lam): comp for lam, comp in vector.entries}
        observed.add((by_class["3^1"], by_class["1^1 2^1"], by_class["1^3"]))
    assert observed == S3_ALL_ONES_FAMILIES
    # documented order: canonical classes, compositions in descending lex order
    assert str(vectors[0]) == "(1,0,0) (1,0) (1,0)"
    assert str(vectors[-1]) == "(0,0,1) (0,1) (0,1)"

    # stream length equals the count: single classes, pairs, and full supports
    for n in (1, 2, 3, 4, 5):
        classes = enumerate_cycle_types(n)
        for lam in classes:
            for r in (0, 1, 2, 3):
                _stream_length_equals_count(Ramification(n, ((lam, r),)))
        for lam_a, lam_b in itertools.combinations(classes, 2):
            for ra, rb in itertools.product((1, 2, 3), repeat=2):
                _stream_length_equals_count(Ramification(n, ((lam_a, ra), (lam_b, rb))))
    for n in (1, 2, 3):
        classes = enumerate_cycle_types(n)
        for mults in itertools.product((0, 1, 2, 3), repeat=len(classes)):
            _stream_length_equals_count(Ramification(n, tuple(zip(classes, mults))))
    classes4 = enumerate_cycle_types(4)
    for mults in itertools.product((0, 1, 2), repeat=len(classes4)):
        _stream_length_equals_count(Ramification(4, tuple(zip(classes4, mults))))


# ---------------------------------------------------------------------------
# criterion 8: the wreath isomorphism, exhaustively


# tau is a product of m disjoint l-cycles; its grid row i is the i-th of them,
# grid[i][j] = tau^j(a_i) for the cycle's smallest point a_i.  A permutation
# rho centralizing tau (and fixing every other point) sends grid[i][0] to
# grid[theta[i]][f[i]], and then grid[i][j] to grid[theta[i]][f[i] + j mod l]; its
# coordinates are the pair (f, theta) of plain tuples in C_l wr S_m.


def _wreath_decompose(rho, grid):
    where = {point: (i, j) for i, row in enumerate(grid) for j, point in enumerate(row)}
    theta, f = zip(*(where[image(rho, row[0])] for row in grid))
    return f, theta


def _wreath_multiply(a, b, base_order):
    # rho·pi sends grid[i][0] to rho(grid[theta'[i]][f'[i]]), which is
    # grid[theta[theta'[i]]][f[theta'[i]] + f'[i]]
    (f, theta), (f2, theta2) = a, b
    return tuple((f[t] + x) % base_order for t, x in zip(theta2, f2)), tuple(theta[t] for t in theta2)


def _wreath_compose(coordinates, grid, n):
    f, theta = coordinates
    images = list(range(1, n + 1))
    for i, row in enumerate(grid):
        for j, point in enumerate(row):
            images[point - 1] = grid[theta[i]][(f[i] + j) % len(row)]
    return Permutation(tuple(images))


def _check_wreath_isomorphism(tau, centralizing, base_order, degree):
    grid = [cycle for cycle in cycle_decomposition(tau) if len(cycle) > 1]
    coordinates = {rho: _wreath_decompose(rho, grid) for rho in centralizing}
    assert len(set(coordinates.values())) == base_order**degree * factorial(degree)
    for rho, pi in itertools.product(centralizing, repeat=2):
        assert _wreath_decompose(compose(rho, pi), grid) == _wreath_multiply(
            coordinates[rho], coordinates[pi], base_order
        )
    for rho in centralizing:
        assert _wreath_compose(coordinates[rho], grid, tau.n) == rho


def check_wreath_isomorphism():
    tau = Permutation.from_cycles(4, [(1, 2), (3, 4)])
    Z = list(centralizer(tau))
    assert len(Z) == 8
    _check_wreath_isomorphism(tau, Z, base_order=2, degree=2)

    # (1 2 3)(4 5 6) inside S_7: the centralizer restricted to the support,
    # computed directly (the oracle is never asked for S_6)
    tau7 = Permutation.from_cycles(7, [(1, 2, 3), (4, 5, 6)])
    centralizing = []
    for images in itertools.permutations(range(1, 7)):
        candidate = Permutation(images + (7,))
        if compose(candidate, tau7) == compose(tau7, candidate):
            centralizing.append(candidate)
    assert len(centralizing) == 18
    _check_wreath_isomorphism(tau7, centralizing, base_order=3, degree=2)


# ---------------------------------------------------------------------------
# criterion 9: special-case counts


def check_special_case_counts():
    for n in (2, 3, 4, 5, 7):
        lam = CycleType.from_parts([1] * n)
        for r in range(0, 11):
            assert count_rsc(Ramification(n, ((lam, r),))) == r + 1
    lam1 = CycleType.from_parts([1])
    for r in range(0, 11):
        assert count_rsc(Ramification(1, ((lam1, r),))) == 1
    for n in (1, 2, 3, 4, 5, 7, 8):
        expected = prod(gamma(lam) for lam in enumerate_cycle_types(n))
        assert count_rsc(all_ones(n)) == expected


# ---------------------------------------------------------------------------

CRITERIA = [
    ("criterion 1: headline counts 12 / 384 / 23040", check_headline_counts),
    ("criterion 2: gamma tables for S_3, S_4, S_5", check_gamma_tables),
    ("criterion 3: oracle orbit counts equal the closed form", check_oracle_equivalence),
    ("criterion 4: fixed-point law and Burnside averaging on S_3", check_fixed_point_law),
    ("criterion 5: structure theorems for n <= 5", check_structure_theorems),
    ("criterion 6: closed form agrees with Stirling form (500 random)", check_dual_derivations),
    ("criterion 7: representative enumeration matches the counts", check_representatives),
    ("criterion 8: wreath isomorphism is an exact bijection", check_wreath_isomorphism),
    ("criterion 9: single-class and all-ones special cases", check_special_case_counts),
]


def _run(label, check):
    try:
        check()
    except BaseException:
        print(f"FAIL  {label}")
        raise
    print(f"PASS  {label}")


def test_criterion_1_headline_counts():
    _run(*CRITERIA[0])


def test_criterion_2_gamma_tables():
    _run(*CRITERIA[1])


def test_criterion_3_oracle_equivalence():
    _run(*CRITERIA[2])


def test_criterion_4_fixed_point_law():
    _run(*CRITERIA[3])


def test_criterion_5_structure_theorems():
    _run(*CRITERIA[4])


def test_criterion_6_dual_derivations():
    _run(*CRITERIA[5])


def test_criterion_7_representatives():
    _run(*CRITERIA[6])


def test_criterion_8_wreath_isomorphism():
    _run(*CRITERIA[7])


def test_criterion_9_special_case_counts():
    _run(*CRITERIA[8])


if __name__ == "__main__":
    failures = 0
    for label, check in CRITERIA:
        try:
            check()
        except BaseException as exc:  # keep going; report every criterion
            failures += 1
            print(f"FAIL  {label}  ({exc.__class__.__name__}: {exc})")
        else:
            print(f"PASS  {label}")
    sys.exit(1 if failures else 0)
