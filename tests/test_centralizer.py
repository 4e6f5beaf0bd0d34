import re
from collections import Counter
from math import comb, factorial, prod

import pytest

import ramsys
from ramsys.centralizer import AbelianInvariants, abelianization_invariants, gamma
from ramsys.cli import main
from ramsys.perm import (
    CycleType,
    Permutation,
    centralizer_order,
    class_size,
    cycle_type,
    enumerate_cycle_types,
)
import reference
from reference import coset_order, cyclic_product_order_histogram, parts, symmetric_group


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
                assert abelianization_invariants(lam).factors == factors

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

    def test_count_of_the_identity_class_at_the_degree_limit(self, capsys, factorial_switched_off):
        n = ramsys.perm.MAX_CYCLE_TYPE_N
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
                quotient = reference.abelian_quotient(reference.centralizer(sigma))
                assert len(quotient.carrier) == gamma(cycle_type(sigma))

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
                quotient = reference.abelian_quotient(H)
                observed = Counter(
                    coset_order(rep, derived) for rep in quotient.carrier
                )
                factors = abelianization_invariants(cycle_type(sigma)).factors
                assert observed == cyclic_product_order_histogram(factors)
