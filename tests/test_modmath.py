"""Moduli, special-form reduction, exponentiation, multiplicative order."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vantieghem.errors import DomainError, NotDivisible
from vantieghem.modmath import (
    build_modulus,
    exact_div,
    fold_reduce_pow2,
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


class TestPowBMod:
    def test_exponent_p_wraps_to_one(self):
        assert build_modulus(2, 5).pow_b_mod(5) == 1

    def test_exponent_reduction(self):
        assert build_modulus(2, 5).pow_b_mod(7) == 4

    def test_base_three(self):
        assert build_modulus(3, 3).pow_b_mod(4) == 3

    @pytest.mark.parametrize("b,p", [(2, 5), (2, 11), (3, 7), (10, 3)])
    def test_matches_unreduced_exponent(self, b, p):
        rm = build_modulus(b, p)
        for n in range(3 * p + 1):
            assert rm.pow_b_mod(n) == pow(b, n, rm.M)


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
