"""Moduli, special-form reduction, exponentiation, factoring, multiplicative order."""

import math
from decimal import Context, Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vantieghem.errors import DomainError, NotDivisible
from vantieghem.modmath import (
    build_modulus,
    decimal_digits,
    exact_div,
    factorize,
    fold_reduce_pow2,
    LOG10_2_E38,
    is_prime,
    mult_order,
)


class TestBuildModulus:
    def test_mersenne_case(self):
        rm = build_modulus(2, 5)
        assert (rm.b, rm.p, rm.M, rm.B) == (2, 5, 31, 31)

    def test_base_three(self):
        rm = build_modulus(3, 3)
        assert (rm.M, rm.B) == (13, 26)

    def test_worked_example_modulus(self):
        assert build_modulus(2, 89).M == 2**89 - 1

    @pytest.mark.parametrize("b,p", [(1, 5), (0, 5), (2, 4), (2, 2), (2, 1), (3, 0)])
    def test_rejects_out_of_domain(self, b, p):
        with pytest.raises(DomainError):
            build_modulus(b, p)

    def test_composite_exponent_is_allowed(self):
        # The modulus is well-formed for composite p; only the structured
        # evaluation path needs primality.
        assert build_modulus(2, 9).M == 511

    @pytest.mark.parametrize("b", [2, 3, 5, 10])
    @pytest.mark.parametrize("p", [3, 5, 7, 9, 11, 15])
    def test_reconstruction_identity(self, b, p):
        rm = build_modulus(b, p)
        assert rm.M * (b - 1) + 1 == b**p
        assert rm.M > 1


class TestExactDiv:
    def test_by_one(self):
        assert exact_div(255, 1) == 255

    def test_even_split(self):
        assert exact_div(80, 2) == 40

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            exact_div(100, 7)

    @given(q=st.integers(min_value=0, max_value=10**30), den=st.integers(min_value=1, max_value=10**15))
    def test_roundtrip(self, q, den):
        assert exact_div(q * den, den) == q


class TestFoldReducePow2:
    def test_chunk_wraps_to_one(self):
        assert fold_reduce_pow2(2**10 + 5, 5) == 6

    def test_exact_modulus_folds_to_zero(self):
        assert fold_reduce_pow2(31, 5) == 0

    def test_against_generic_remainder(self):
        assert fold_reduce_pow2(100_000, 7) == 100_000 % 127 == 51

    def test_zero(self):
        assert fold_reduce_pow2(0, 11) == 0

    @given(
        st.integers(min_value=2, max_value=64).flatmap(
            lambda p: st.tuples(st.just(p), st.integers(min_value=0, max_value=2 ** (4 * p) - 1))
        )
    )
    @settings(deadline=None)
    def test_matches_generic_remainder(self, case):
        p, x = case
        assert fold_reduce_pow2(x, p) == x % (2**p - 1)


class TestReduce:
    def test_mersenne_path(self):
        assert build_modulus(2, 5).reduce(2295) == 1

    def test_generic_path(self):
        assert build_modulus(3, 3).reduce(40) == 1

    @pytest.mark.parametrize("b,p", [(2, 5), (3, 3), (2, 89), (10, 7)])
    def test_zero(self, b, p):
        assert build_modulus(b, p).reduce(0) == 0

    @pytest.mark.parametrize("b,p", [(2, 7), (2, 13), (3, 5), (7, 3), (10, 5)])
    def test_congruent_and_reduced(self, b, p):
        rm = build_modulus(b, p)
        for x in [0, 1, rm.M - 1, rm.M, rm.M + 1, rm.M**2 - 1, 123456789, rm.M * 17 + 5]:
            got = rm.reduce(x)
            assert got == x % rm.M
            assert 0 <= got < rm.M


class TestRing:
    # The ring operations the product paths use, against their definitions
    # mod M; b = 2**k takes the rotation kernel, other bases multiply and reduce.
    @pytest.mark.parametrize("b,p", [(2, 7), (2, 89), (4, 11), (8, 9), (16, 13), (3, 7), (10, 5), (6, 9)])
    def test_operations_match_definitions(self, b, p):
        rm = build_modulus(b, p)
        for n in range(2 * p + 1):
            y = rm.power(n)
            assert rm.residue(rm.times_factor(1, y)) == (b**n + 1) % rm.M
            assert rm.residue(rm.times_factor(1, rm.times_b(y))) == (b ** (n + 1) + 1) % rm.M
            assert rm.residue(rm.times_factor(1, rm.square(y))) == (b ** (2 * n) + 1) % rm.M

    @given(
        st.sampled_from([(2, 5), (2, 61), (4, 31), (8, 15), (16, 7), (32, 3), (3, 11), (12, 5)]).flatmap(
            lambda bp: st.tuples(
                st.just(bp),
                st.integers(min_value=0, max_value=bp[0] ** bp[1] - 1),
                st.integers(min_value=0, max_value=3 * bp[1]),
            )
        )
    )
    @settings(deadline=None)
    def test_times_factor_is_multiplication(self, case):
        (b, p), x, n = case
        rm = build_modulus(b, p)
        # Ring values are below M for general b and in [0, B] for b = 2**k.
        x = x if rm.log2_b else x % rm.M
        got = rm.times_factor(x, rm.power(n))
        assert 0 <= got <= rm.B
        assert rm.residue(got) == x * (b**n + 1) % rm.M

    @pytest.mark.parametrize("b,k", [(2, 1), (4, 2), (8, 3), (1024, 10), (3, 0), (6, 0), (10, 0), (12, 0)])
    def test_kernel_chosen_by_power_of_two_base(self, b, k):
        assert build_modulus(b, 3).log2_b == k


class TestPowBMod:
    # b**n mod M from rm.power(n), for bases that are not powers of two;
    # for b = 2**k the ring holds b**n as its exponent n mod p instead.
    def test_exponent_p_wraps_to_one(self):
        assert build_modulus(3, 5).power(5) == 1

    def test_exponent_reduction(self):
        assert build_modulus(3, 5).power(7) == 9  # 3**7 = 2187 = 18*121 + 9

    def test_base_three(self):
        assert build_modulus(3, 3).power(4) == 3

    @pytest.mark.parametrize("b,p", [(2, 5), (2, 11), (3, 7), (10, 3)])
    def test_matches_unreduced_exponent(self, b, p):
        rm = build_modulus(b, p)
        for n in range(3 * p + 1):
            if rm.log2_b:
                assert rm.power(n) == n % p
                assert pow(b, rm.power(n), rm.M) == pow(b, n, rm.M)
            else:
                assert rm.power(n) == pow(b, n, rm.M)


class TestMultOrder:
    def test_worked_example(self):
        assert mult_order(2, 89) == 11

    def test_small_cases(self):
        assert mult_order(2, 7) == 3
        assert mult_order(2, 5) == 4

    def test_rejects_composite(self):
        with pytest.raises(DomainError):
            mult_order(2, 91)

    def test_rejects_divisible_base(self):
        with pytest.raises(DomainError):
            mult_order(14, 7)

    def test_order_properties(self, odd_primes_1000):
        for p in odd_primes_1000:
            if p > 300:
                break
            r = mult_order(2, p)
            assert (p - 1) % r == 0
            assert pow(2, r, p) == 1
            # minimality: dropping any prime factor of r breaks the congruence
            q = 2
            rr = r
            while rr > 1:
                while rr % q:
                    q += 1
                assert pow(2, r // q, p) != 1
                while rr % q == 0:
                    rr //= q


class TestFactorize:
    def test_small_cases(self):
        assert factorize(1) == ()
        assert factorize(2) == ((2, 1),)
        assert factorize(360) == ((2, 3), (3, 2), (5, 1))
        assert factorize(89) == ((89, 1),)
        assert factorize(3**9) == ((3, 9),)
        assert factorize(2 * 4423) == ((2, 1), (4423, 1))

    @pytest.mark.parametrize("n", [0, -5])
    def test_rejects_below_one(self, n):
        with pytest.raises(DomainError):
            factorize(n)

    def test_recomposes_with_prime_ascending_factors(self, prime_flags):
        for n in range(1, 3000):
            factors = factorize(n)
            product = 1
            for q, k in factors:
                assert prime_flags[q] and k >= 1
                product *= q**k
            assert product == n
            assert [q for q, _ in factors] == sorted({q for q, _ in factors})

    def test_is_prime_matches_sieve(self, prime_flags):
        assert not is_prime(0) and not is_prime(1) and not is_prime(-7)
        for n in range(2, 5000):
            assert is_prime(n) == bool(prime_flags[n]), n


HIGH_PRECISION = Context(prec=80)


class TestDecimalDigits:
    @pytest.mark.parametrize("p", [3, 5, 89, 1279, 4423])
    def test_base_ten_repunit_has_p_digits(self, p):
        assert decimal_digits(build_modulus(10, p).M) == p

    @pytest.mark.parametrize("k", [1, 2, 3, 15, 16, 17, 100, 308, 1000])
    def test_next_to_powers_of_ten(self, k):
        for n in (10**k - 1, 10**k, 10**k + 1, 2 * 10**k, 10 ** (k + 1) - 1):
            assert decimal_digits(n) == len(str(n)), n

    def test_next_to_powers_of_two(self):
        for bits in range(1, 400):
            for n in (2 ** (bits - 1), 2**bits - 1):
                assert decimal_digits(n) == len(str(n)), n

    @pytest.mark.parametrize("b", [2, 3, 5, 10, 12])
    @pytest.mark.parametrize("p", [3, 9, 89, 127, 1285, 2089])
    def test_repunit_moduli(self, b, p):
        M = build_modulus(b, p).M
        assert decimal_digits(M) == len(str(M))

    def test_estimate_exact_where_a_float_would_floor_wrongly(self):
        # (bits - 1) * log10(2) lies within 3.2e-9 of an integer at
        # 146964308 bits, closer than a float product can resolve.
        for bits in (146964308 + 1, 345060773 + 1):
            assert int((bits - 1) * math.log10(2)) != (bits - 1) * LOG10_2_E38 // 10**38
            exact = HIGH_PRECISION.multiply(bits - 1, Decimal(2).log10(HIGH_PRECISION))
            assert (bits - 1) * LOG10_2_E38 // 10**38 == int(exact)

    @given(st.integers(min_value=1, max_value=10**200))
    def test_matches_str(self, n):
        assert decimal_digits(n) == len(str(n))

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_non_positive(self, n):
        with pytest.raises(DomainError):
            decimal_digits(n)
