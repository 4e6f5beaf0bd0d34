import itertools
from math import factorial

import pytest

from ramsys.combinat import (
    multiset_coefficient,
    stirling_first,
    weak_compositions,
)
from reference import Permutation, cycle_count


def falling_factorial_coefficients(n):
    """Coefficients of x(x-1)...(x-n+1) by direct polynomial multiplication."""
    coeffs = [0, 1]  # the polynomial x
    for j in range(1, n):
        longer = [0] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            longer[k + 1] += c
            longer[k] -= j * c
        coeffs = longer
    return coeffs


class TestStirlingFirst:
    def test_diagonal(self):
        assert stirling_first(3, 3) == 1
        for n in range(1, 12):
            assert stirling_first(n, n) == 1

    def test_expansion_of_x_falling_3(self):
        # [x]_3 = x^3 - 3x^2 + 2x
        assert stirling_first(3, 1) == 2
        assert stirling_first(3, 2) == 3

    def test_signed_coefficients_match_falling_factorial(self):
        for n in range(1, 9):
            coeffs = falling_factorial_coefficients(n)
            for k in range(1, n + 1):
                assert coeffs[k] == (-1) ** (n - k) * stirling_first(n, k)

    def test_row_sums_are_factorials(self):
        assert sum(stirling_first(4, k) for k in range(1, 5)) == 24
        for n in range(1, 12):
            assert sum(stirling_first(n, k) for k in range(1, n + 1)) == factorial(n)

    def test_first_column(self):
        for n in range(1, 12):
            assert stirling_first(n, 1) == factorial(n - 1)

    def test_recurrence(self):
        def s(n, k):
            if k == 0:
                return 1 if n == 0 else 0
            if k > n:
                return 0
            return stirling_first(n, k)

        for n in range(1, 30):
            for k in range(1, n + 2):
                assert s(n + 1, k) == s(n, k - 1) + n * s(n, k)

    def test_rising_factorial_identity(self):
        # sum_k s(r, k) x^k == x(x+1)...(x+r-1)
        for r in range(1, 11):
            for x in range(1, 21):
                rising = 1
                for j in range(r):
                    rising *= x + j
                assert sum(stirling_first(r, k) * x**k for k in range(1, r + 1)) == rising

    def test_counts_permutations_by_cycles(self):
        for r in range(1, 7):
            tallies = {}
            for images in itertools.permutations(range(1, r + 1)):
                k = cycle_count(Permutation(images))
                tallies[k] = tallies.get(k, 0) + 1
            for k in range(1, r + 1):
                assert tallies.get(k, 0) == stirling_first(r, k)

    def test_domain_errors(self):
        for n, k in ((3, 0), (3, 4), (0, 0), (-1, 1), (2, -1)):
            with pytest.raises(ValueError, match="stirling_first needs 1 <= k <= n"):
                stirling_first(n, k)


class TestMultisetCoefficient:
    def test_single_pick(self):
        for g in range(1, 10):
            assert multiset_coefficient(g, 1) == g

    def test_two_symbols(self):
        for r in range(0, 12):
            assert multiset_coefficient(2, r) == r + 1

    def test_three_symbols_one_pick(self):
        assert multiset_coefficient(3, 1) == 3

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ValueError):
            multiset_coefficient(0, 2)


class TestWeakCompositions:
    def test_examples(self):
        assert list(weak_compositions(1, 2)) == [(1, 0), (0, 1)]
        assert list(weak_compositions(0, 3)) == [(0, 0, 0)]
        assert list(weak_compositions(2, 2)) == [(2, 0), (1, 1), (0, 2)]

    def test_counts_match_multiset_coefficient(self):
        for r in range(0, 9):
            for parts in range(1, 7):
                stream = list(weak_compositions(r, parts))
                assert len(stream) == multiset_coefficient(parts, r)
                assert len(set(stream)) == len(stream)
                assert all(len(t) == parts and sum(t) == r for t in stream)
                assert all(x >= 0 for t in stream for x in t)

    def test_descending_lex_order(self):
        for r, parts in ((3, 3), (5, 2), (4, 4)):
            stream = list(weak_compositions(r, parts))
            assert stream == sorted(stream, reverse=True)

    def test_matches_filtered_product(self):
        for r in range(0, 5):
            for parts in range(1, 6):
                reference = sorted(
                    (t for t in itertools.product(range(r + 1), repeat=parts) if sum(t) == r),
                    reverse=True,
                )
                assert list(weak_compositions(r, parts)) == reference

    def test_no_recursion_limit(self):
        # a recursive generator nests one frame per part and stops near 1,000
        count = 0
        for composition in weak_compositions(1, 5000):
            if count == 0:
                assert composition == (1,) + (0,) * 4999
            count += 1
        assert count == 5000
        assert composition == (0,) * 4999 + (1,)

    def test_lazy(self):
        stream = weak_compositions(50, 6)
        assert next(stream) == (50, 0, 0, 0, 0, 0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            list(weak_compositions(1, 0))
        with pytest.raises(ValueError):
            list(weak_compositions(-1, 2))
