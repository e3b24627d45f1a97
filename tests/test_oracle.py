"""Ground-truth oracles: trial division and the exact product."""

import pytest

from vantieghem.errors import DomainError
from vantieghem.modmath import build_modulus
from vantieghem.criterion import product_naive
from vantieghem.oracle import is_prime_trial, prime_table, product_bruteforce


class TestIsPrimeTrial:
    def test_one_is_not_prime(self):
        assert not is_prime_trial(1)

    def test_worked_example_prime(self):
        assert is_prime_trial(89)

    def test_seven_times_thirteen(self):
        assert not is_prime_trial(91)

    def test_edges(self):
        assert not is_prime_trial(0)
        assert not is_prime_trial(-7)
        assert is_prime_trial(2)
        assert is_prime_trial(3)
        assert not is_prime_trial(4)

    def test_agrees_with_sieve(self, prime_flags):
        # second, independent sieve of Eratosthenes up to 1e5 (conftest)
        for n in range(100_001):
            assert is_prime_trial(n) == bool(prime_flags[n]), n


class TestPrimeTable:
    def test_agrees_with_trial_division(self):
        table = prime_table(20_000)
        assert len(table) == 20_001
        assert (table[0], table[1], table[2]) == (0, 0, 1)
        for n in range(20_001):
            assert table[n] == is_prime_trial(n), n

    @pytest.mark.parametrize(
        "limit,expected",
        [(0, [0]), (1, [0, 0]), (2, [0, 0, 1]), (9, [0, 0, 1, 1, 0, 1, 0, 1, 0, 0])],
    )
    def test_small_limits(self, limit, expected):
        assert list(prime_table(limit)) == expected

    def test_negative_limit(self):
        with pytest.raises(DomainError):
            prime_table(-1)


class TestProductBruteforce:
    def test_mersenne_five(self):
        assert product_bruteforce(2, 5) == 1  # 3*5*9*17 = 2295, mod 31

    def test_base_three(self):
        assert product_bruteforce(3, 3) == 1  # 4*10 = 40, mod 13

    def test_composite_exponent(self):
        assert product_bruteforce(2, 9) == 74

    def test_exponent_cap(self):
        with pytest.raises(DomainError):
            product_bruteforce(2, 67)

    @pytest.mark.parametrize("b,p", [(1, 5), (2, 4), (2, 1)])
    def test_rejects_out_of_domain(self, b, p):
        with pytest.raises(DomainError):
            product_bruteforce(b, p)

    def test_matches_naive_path(self):
        for p in range(3, 32, 2):
            for b in range(2, 6):
                assert product_bruteforce(b, p) == product_naive(build_modulus(b, p)), (b, p)
