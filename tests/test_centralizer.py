import itertools
import random
import re
from collections import Counter
from math import factorial, gcd, lcm, prod

import pytest

from ramsys.centralizer import (
    AbelianInvariants,
    WreathElement,
    abelianization_invariants,
    gamma,
    wreath_compose,
    wreath_decompose,
    wreath_identity,
    wreath_inverse,
    wreath_multiply,
)
from ramsys.cli import main
from ramsys.perm import (
    CycleType,
    Permutation,
    centralizer_order,
    class_invariants,
    class_size,
    compose,
    cycle_type,
    enumerate_cycle_types,
)
from ramsys import oracle


def random_wreath(rng, base_order, degree):
    return WreathElement(
        base_order,
        degree,
        tuple(rng.randrange(base_order) for _ in range(degree)),
        Permutation(tuple(rng.sample(range(1, degree + 1), degree))),
    )


class TestWreathGroupLaws:
    def test_identity_is_neutral(self):
        rng = random.Random(1)
        e = wreath_identity(4, 3)
        for _ in range(50):
            a = random_wreath(rng, 4, 3)
            assert wreath_multiply(a, e) == a
            assert wreath_multiply(e, a) == a

    def test_inverse(self):
        rng = random.Random(2)
        e = wreath_identity(4, 3)
        for _ in range(100):
            a = random_wreath(rng, 4, 3)
            assert wreath_multiply(a, wreath_inverse(a)) == e
            assert wreath_multiply(wreath_inverse(a), a) == e

    def test_associativity_random_triples(self):
        rng = random.Random(3)
        for _ in range(1000):
            a = random_wreath(rng, 4, 3)
            b = random_wreath(rng, 4, 3)
            c = random_wreath(rng, 4, 3)
            assert wreath_multiply(wreath_multiply(a, b), c) == wreath_multiply(
                a, wreath_multiply(b, c)
            )

    def test_parameter_mismatch(self):
        with pytest.raises(ValueError):
            wreath_multiply(wreath_identity(2, 2), wreath_identity(3, 2))
        with pytest.raises(ValueError):
            wreath_multiply(wreath_identity(2, 2), wreath_identity(2, 3))

    def test_element_validation(self):
        with pytest.raises(ValueError):
            WreathElement(2, 2, (0, 2), Permutation.identity(2))
        with pytest.raises(ValueError):
            WreathElement(2, 2, (0,), Permutation.identity(2))
        with pytest.raises(ValueError):
            WreathElement(2, 2, (0, 0), Permutation.identity(3))


class TestWreathDecompose:
    def test_identity_maps_to_identity(self):
        tau = Permutation.from_cycles(4, [(1, 2), (3, 4)])
        w = wreath_decompose(Permutation.identity(4), tau)
        assert w == wreath_identity(2, 2)

    def test_tau_itself(self):
        tau = Permutation.from_cycles(3, [(1, 2, 3)])
        w = wreath_decompose(tau, tau)
        assert w.base == (2,)
        assert w.top == Permutation.identity(1)

    def test_homomorphism_exhaustive(self):
        tau = Permutation.from_cycles(4, [(1, 2), (3, 4)])
        Z = list(oracle.centralizer(tau))
        assert len(Z) == 8
        for rho, pi in itertools.product(Z, repeat=2):
            assert wreath_decompose(compose(rho, pi), tau) == wreath_multiply(
                wreath_decompose(rho, tau), wreath_decompose(pi, tau)
            )

    def test_bijective_onto_wreath_product(self):
        tau = Permutation.from_cycles(4, [(1, 2), (3, 4)])
        images = {wreath_decompose(rho, tau) for rho in oracle.centralizer(tau)}
        assert len(images) == 2**2 * factorial(2)

    def test_rejects_non_centralizing(self):
        tau = Permutation.from_cycles(3, [(1, 2, 3)])
        with pytest.raises(ValueError):
            wreath_decompose(Permutation.from_cycles(3, [(1, 2)]), tau)

    def test_rejects_motion_off_support(self):
        tau = Permutation.from_cycles(4, [(1, 2)])
        rho = Permutation.from_cycles(4, [(3, 4)])  # centralizes but moves 3, 4
        with pytest.raises(ValueError):
            wreath_decompose(rho, tau)

    def test_rejects_mixed_cycle_lengths(self):
        tau = Permutation.from_cycles(5, [(1, 2), (3, 4, 5)])
        with pytest.raises(ValueError):
            wreath_decompose(Permutation.identity(5), tau)

    def test_rejects_empty_support(self):
        with pytest.raises(ValueError):
            wreath_decompose(Permutation.identity(3), Permutation.identity(3))


class TestWreathCompose:
    def test_identity_element(self):
        tau = Permutation.from_cycles(4, [(1, 2), (3, 4)])
        assert wreath_compose(wreath_identity(2, 2), tau) == Permutation.identity(4)

    def test_roundtrip_exhaustive(self):
        tau = Permutation.from_cycles(4, [(1, 2), (3, 4)])
        for rho in oracle.centralizer(tau):
            assert wreath_compose(wreath_decompose(rho, tau), tau) == rho
        # and the other direction, over all of C_2 wr S_2
        for base in itertools.product(range(2), repeat=2):
            for top_images in itertools.permutations((1, 2)):
                w = WreathElement(2, 2, base, Permutation(top_images))
                assert wreath_decompose(wreath_compose(w, tau), tau) == w

    def test_inverse_of_decompose_example(self):
        tau = Permutation.from_cycles(3, [(1, 2, 3)])
        w = WreathElement(3, 1, (2,), Permutation.identity(1))
        assert wreath_compose(w, tau) == tau

    def test_result_commutes_with_tau(self):
        rng = random.Random(9)
        tau = Permutation.from_cycles(7, [(1, 2, 3), (4, 5, 6)])
        for _ in range(100):
            w = random_wreath(rng, 3, 2)
            rho = wreath_compose(w, tau)
            assert compose(rho, tau) == compose(tau, rho)

    def test_parameter_mismatch(self):
        tau = Permutation.from_cycles(4, [(1, 2), (3, 4)])
        with pytest.raises(ValueError):
            wreath_compose(wreath_identity(2, 3), tau)


class TestAbelianization:
    def test_examples(self):
        assert abelianization_invariants(CycleType.parse("1^3")).factors == (2,)
        assert abelianization_invariants(CycleType.parse("2^1 3^1")).factors == (2, 3)
        assert abelianization_invariants(CycleType.parse("1^2 2^1")).factors == (2, 2)

    def test_gamma_examples(self):
        assert gamma(CycleType.parse("1^4")) == 2
        assert gamma(CycleType.parse("1^1 4^1")) == 4
        assert gamma(CycleType.parse("5^1")) == 5

    def test_gamma_is_product_of_invariants(self):
        for n in range(1, 13):
            for lam in enumerate_cycle_types(n):
                assert gamma(lam) == abelianization_invariants(lam).order()

    def test_invariants_drop_trivial_factors(self):
        inv = abelianization_invariants(CycleType.parse("1^1 2^1"))
        assert inv.factors == (2,)
        with pytest.raises(ValueError):
            AbelianInvariants((1, 2))

    def test_invariants_display(self):
        assert str(abelianization_invariants(CycleType.parse("1^2 2^1"))) == "2x2"
        assert str(abelianization_invariants(CycleType.parse("1^1"))) == "1"


def stated_row(lam):
    """The classes row of lam by the README's rules, from its parts alone:
    text, z_λ = prod λ_i!·i^λ_i, γ (i for λ_i = 1, 2i for λ_i >= 2) and the
    factors (C_i, or C_i × C_2, per length in ascending order, 1s dropped)."""
    mults = Counter(lam.parts())
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
            assert class_invariants(lam) == (z, factors)
            assert centralizer_order(lam) == z
            assert class_size(lam) * centralizer_order(lam) == factorial(n)
            assert gamma(lam) == g
            assert abelianization_invariants(lam).factors == factors
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


class TestCentralizerOrderFactorization:
    def test_product_of_wreath_orders(self):
        # |Z| = prod_i |C_i wr S_{λ_i}| = prod_i i^{λ_i} λ_i!
        for n in range(1, 13):
            for lam in enumerate_cycle_types(n):
                expected = 1
                for i, mult in enumerate(lam.multiplicities, start=1):
                    expected *= i**mult * factorial(mult)
                assert centralizer_order(lam) == expected


class TestOracleAgreement:
    def test_quotient_order_is_gamma_small_n(self):
        for n in range(1, 5):
            for sigma in oracle.symmetric_group(n):
                quotient = oracle.abelian_quotient(oracle.centralizer(sigma))
                assert len(quotient.carrier) == gamma(cycle_type(sigma))

    def test_commutator_of_double_transposition_centralizer(self):
        # C_2 wr S_2 has derived subgroup of order |B-bar| * |A_2| = 2 * 1
        tau = Permutation.from_cycles(4, [(1, 2), (3, 4)])
        derived = oracle.commutator_subgroup(oracle.centralizer(tau))
        assert len(derived) == 2

    def test_quotient_structure_matches_invariants_small_n(self):
        # element-order histogram of Z_sigma/Z_sigma' equals that of the
        # predicted direct product of cyclic groups
        for n in range(1, 5):
            for sigma in oracle.symmetric_group(n):
                H = oracle.centralizer(sigma)
                derived = oracle.commutator_subgroup(H)
                quotient = oracle.abelian_quotient(H)
                observed = Counter(
                    _coset_order(rep, derived) for rep in quotient.carrier
                )
                factors = abelianization_invariants(cycle_type(sigma)).factors
                assert observed == _cyclic_product_order_histogram(factors)


def _coset_order(rep, derived_elements):
    power, steps = rep, 1
    while power not in derived_elements:
        power = compose(power, rep)
        steps += 1
    return steps


def _cyclic_product_order_histogram(factors):
    # lcm() of no arguments is 1, so the empty product contributes one
    # element of order 1
    counts = Counter()
    for combo in itertools.product(*(range(d) for d in factors)):
        counts[lcm(*(d // gcd(x, d) for x, d in zip(combo, factors)))] += 1
    return counts
