import re
from collections import Counter
from math import comb, factorial, prod

import pytest

import ramsys
import ramsys.oracle as oracle
from ramsys.centralizer import abelianization_invariants, gamma
from ramsys.cli import main
from ramsys.perm import (
    CycleType,
    centralizer_order,
    class_size,
    enumerate_cycle_types,
)
import reference
from reference import (
    Permutation,
    coset_order,
    cycle_type,
    cyclic_product_order_histogram,
    parts,
    quotient_representatives,
    symmetric_group,
)


class TestAbelianization:
    def test_examples(self):
        assert abelianization_invariants(CycleType.parse("1^3")) == (2,)
        assert abelianization_invariants(CycleType.parse("2^1 3^1")) == (2, 3)
        assert abelianization_invariants(CycleType.parse("1^2 2^1")) == (2, 2)

    def test_gamma_examples(self):
        assert gamma(CycleType.parse("1^4")) == 2
        assert gamma(CycleType.parse("1^1 4^1")) == 4
        assert gamma(CycleType.parse("5^1")) == 5

    def test_gamma_is_product_of_invariants(self):
        for n in range(1, 13):
            for lam in enumerate_cycle_types(n):
                assert gamma(lam) == prod(abelianization_invariants(lam))

    def test_invariants_drop_trivial_factors(self):
        assert abelianization_invariants(CycleType.parse("1^1 2^1")) == (2,)


def stated_row(lam):
    """The classes row of lam by the README's rules, from its parts alone:
    text, z_λ = prod λ_i!·i^λ_i, γ (i for λ_i = 1, 2i for λ_i >= 2) and the
    factors (C_i, or C_i × C_2, per length in ascending order, 1s dropped)."""
    mults = Counter(parts(lam))
    lengths = sorted(mults)
    factors = []
    for i in lengths:
        factors += [i] if mults[i] == 1 else [i, 2]
    return (
        " ".join(f"{i}^{mults[i]}" for i in lengths),
        prod(factorial(mults[i]) * i ** mults[i] for i in lengths),
        prod(i if mults[i] == 1 else 2 * i for i in lengths),
        tuple(f for f in factors if f > 1),
    )


class TestClassInvariants:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_against_stated_rules(self, n):
        total = 0
        for lam in enumerate_cycle_types(n):
            text, z, g, factors = stated_row(lam)
            assert str(lam) == text
            assert centralizer_order(lam) == z
            assert class_size(lam) * centralizer_order(lam) == factorial(n)
            assert gamma(lam) == g
            assert abelianization_invariants(lam) == factors
            total += class_size(lam)
        assert total == factorial(n)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_classes_rows(self, capsys, n):
        assert main(["classes", str(n)]) == 0
        lines = capsys.readouterr().out.splitlines()
        lams = enumerate_cycle_types(n)
        assert len(lines) == len(lams) + 1
        for line, lam in zip(lines[1:], lams):
            text, z, g, factors = stated_row(lam)
            shown = "x".join(map(str, factors)) or "1"
            assert re.split(r" {2,}", line) == [text, str(factorial(n) // z), str(z), str(g), shown]


class TestNoFactorial:
    # γ depends only on which cycle lengths occur and whether they repeat,
    # so neither γ nor a count or reps run takes a factorial
    @pytest.fixture
    def factorial_switched_off(self, monkeypatch):
        def switched_off(*args):
            raise AssertionError("a factorial was taken")

        modules = [ramsys.perm, ramsys.centralizer, ramsys.counting, ramsys.cli]
        patched = [module for module in modules if hasattr(module, "factorial")]
        assert ramsys.perm in patched
        for module in patched:
            monkeypatch.setattr(module, "factorial", switched_off)
        gamma.cache_clear()

    def test_gamma_and_factors(self, factorial_switched_off):
        for n in range(1, 13):
            for lam in enumerate_cycle_types(n):
                _, _, g, factors = stated_row(lam)
                assert gamma(lam) == g
                assert abelianization_invariants(lam) == factors

    def test_count_and_reps(self, capsys, factorial_switched_off):
        spec = "1^12:2;2^6:1;[5,4,3]:3"
        lams = [CycleType.parse(text) for text in ("1^12", "2^6", "[5,4,3]")]
        expected = prod(comb(stated_row(lam)[2] + r - 1, r) for lam, r in zip(lams, (2, 1, 3)))
        assert main(["count", "12", "--ramification", spec]) == 0
        assert capsys.readouterr().out.endswith(f"count = {expected}\n")
        assert main(["reps", "12", "--ramification", spec, "--limit", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2] == f"# count = {expected}"
        assert len(lines) == 5

    def test_count_of_the_identity_class_of_degree_10_12(self, capsys, factorial_switched_off):
        n = 10**12
        assert main(["count", str(n), "--ramification", f"1^{n}:1"]) == 0
        assert capsys.readouterr().out.endswith("count = 2\n")


class TestCentralizerOrderFactorization:
    def test_product_of_wreath_orders(self):
        # |Z| = prod_i |C_i wr S_{λ_i}| = prod_i i^{λ_i} λ_i!
        for n in range(1, 13):
            for lam in enumerate_cycle_types(n):
                expected = 1
                for i, mult in Counter(parts(lam)).items():
                    expected *= i**mult * factorial(mult)
                assert centralizer_order(lam) == expected


class TestOracleAgreement:
    def test_quotient_order_is_gamma_small_n(self):
        for n in range(1, 5):
            for sigma in symmetric_group(n):
                H = reference.centralizer(sigma)
                derived = reference.commutator_subgroup(H)
                assert len(quotient_representatives(H, derived)) == gamma(cycle_type(sigma))

    def test_commutator_of_double_transposition_centralizer(self):
        # C_2 wr S_2 has derived subgroup of order |B-bar| * |A_2| = 2 * 1
        tau = Permutation.from_cycles(4, [(1, 2), (3, 4)])
        derived = reference.commutator_subgroup(reference.centralizer(tau))
        assert len(derived) == 2

    def test_quotient_structure_matches_invariants_small_n(self):
        # element-order histogram of Z_sigma/Z_sigma' equals that of the
        # predicted direct product of cyclic groups
        for n in range(1, 5):
            for sigma in symmetric_group(n):
                H = reference.centralizer(sigma)
                derived = reference.commutator_subgroup(H)
                observed = Counter(
                    coset_order(rep, derived) for rep in quotient_representatives(H, derived)
                )
                factors = abelianization_invariants(cycle_type(sigma))
                assert observed == cyclic_product_order_histogram(factors)


def wreath_generators(i, m):
    """Three generators of C_i wr S_m on the i·m points of u0 of i^m, whose
    k-th cycle is i·k + 1 -> ... -> i·k + i -> i·k + 1, as padded image
    tuples: u0's first i-cycle rotated, the first two i-cycles swapped point
    by point, and the m i-cycles cycled, k -> k + 1 mod m."""
    points = i * m
    rotate = [0, *range(1, points + 1)]
    rotate[i] = 1
    rotate[1:i] = range(2, i + 1)
    swap = [0, *range(1, points + 1)]
    swap[1 : 2 * i + 1] = [*range(i + 1, 2 * i + 1), *range(1, i + 1)]
    shift = [0, *[(p + i - 1) % points + 1 for p in range(1, points + 1)]]
    return [tuple(rotate), tuple(swap), tuple(shift)]


def closure(generators):
    """The group the padded image tuples generate, sorted, identity first:
    every product of the identity by the generators, on the right."""
    identity = tuple(range(len(generators[0])))
    reached, frontier = {identity}, [identity]
    for a in frontier:
        for s in generators:
            b = tuple([a[p] for p in s])
            if b not in reached:
                reached.add(b)
                frontier.append(b)
    return sorted(reached)


# The wreath factors C_i wr S_m of order i^m·m! <= 1,000 with m >= 2 (m = 1
# is a cyclic group): 31 of them, up to C_22 wr S_2 on 44 points
WREATH_FACTORS = [(i, m) for m in range(2, 7) for i in range(1, 23) if i**m * factorial(m) <= 1000]


class TestWreathFactors:
    """γ's rule one wreath factor at a time, far past the oracle's S_n.

    The closed form reads γ of a class off three facts: Z_u is the product
    of the wreath products C_i wr S_λi, abelianization distributes over a
    direct product, and C_i wr S_m has i characters for m = 1 and 2i for
    m >= 2.  This holds the third fact at each factor: the oracle's own
    character walk (``_characters``) counts the characters of C_i wr S_m,
    built as the closure of three generators, against gamma of i^m.  That
    the centralizer of u0 is this wreath product is assumed here, with
    commutation with u0 and the order i^m·m! as the sanity checks; it is
    checked only where the oracle lists S_n, n <= ORACLE_MAX_N, against
    ``character_basis``' domain."""

    def test_factor_list(self):
        assert len(WREATH_FACTORS) == 31 and max(i * m for i, m in WREATH_FACTORS) == 44

    @pytest.mark.parametrize("i, m", WREATH_FACTORS, ids=[f"{i}^{m}" for i, m in WREATH_FACTORS])
    def test_characters_of_the_factor_are_gamma(self, i, m):
        lam = CycleType.parse(f"{i}^{m}")
        u0 = (0, *oracle._u0(lam))
        generators = wreath_generators(i, m)
        for s in generators:
            assert tuple([u0[p] for p in s]) == tuple([s[p] for p in u0])
        group = closure(generators)
        assert len(group) == i**m * factorial(m) == centralizer_order(lam)
        assert len(oracle._characters(group)[1]) == gamma(lam)
        if i * m <= oracle.ORACLE_MAX_N:
            assert oracle.character_basis(u0[1:])[1] == tuple([g[1:] for g in group])
