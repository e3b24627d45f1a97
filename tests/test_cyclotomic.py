"""Integer polynomials, cyclotomic construction, and the root-product check."""

from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vantieghem import cyclotomic
from vantieghem.cyclotomic import (
    IntPolynomial,
    cyclotomic_poly,
    root_product,
    verify_lemma,
)
from vantieghem.errors import DomainError, NotDivisible


def totient(m: int) -> int:
    return sum(1 for d in range(1, m + 1) if gcd(d, m) == 1)


def units(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if gcd(d, m) == 1]


def expand_unreduced(exponents) -> list[IntPolynomial]:
    """X-coefficients of the product of (X - Y**d) in Z[Y][X], no reduction at all."""
    acc = [IntPolynomial.constant(1)]
    for d in exponents:
        out = [IntPolynomial(())] * (len(acc) + 1)
        for i, c in enumerate(acc):
            out[i + 1] = out[i + 1] + c
            out[i] = out[i] - IntPolynomial.monomial(d) * c
        acc = out
    return acc


@pytest.fixture
def lemma_on(monkeypatch):
    """Run verify_lemma(m) with its list of units passed through change() first."""
    real = cyclotomic.root_product

    def run(m, change):
        def changed(m, exponents, modulus):
            return real(m, change(list(exponents)), modulus)

        monkeypatch.setattr(cyclotomic, "root_product", changed)
        return verify_lemma(m)

    return run


class TestIntPolynomial:
    def test_trailing_zeros_stripped(self):
        assert IntPolynomial.of(1, 2, 0, 0).coeffs == (1, 2)
        assert IntPolynomial.of(0, 0).is_zero()

    def test_degree(self):
        assert IntPolynomial.of().degree == -1
        assert IntPolynomial.constant(5).degree == 0
        assert IntPolynomial.monomial(7).degree == 7

    def test_arithmetic(self):
        x = IntPolynomial.x()
        assert (x + 1) * (x - 1) == IntPolynomial.of(-1, 0, 1)
        assert (x + 1) - (x + 1) == IntPolynomial.of()
        assert 2 * x + x == IntPolynomial.of(0, 3)
        assert -(x - 3) == IntPolynomial.of(3, -1)

    def test_divmod_exact(self):
        q, r = divmod(IntPolynomial.monomial(6) - 1, IntPolynomial.of(1, 1, 1))
        assert r.is_zero()
        assert q == IntPolynomial.of(-1, 1, 0, -1, 1)

    def test_divmod_with_remainder(self):
        # Y**3 mod (Y**2 + Y + 1) = 1
        rem = IntPolynomial.monomial(3) % IntPolynomial.of(1, 1, 1)
        assert rem == IntPolynomial.constant(1)

    def test_divmod_non_monic_inexact(self):
        with pytest.raises(NotDivisible):
            divmod(IntPolynomial.of(0, 1), IntPolynomial.of(0, 2))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(IntPolynomial.x(), IntPolynomial.of())

    @given(
        a=st.lists(st.integers(min_value=-50, max_value=50), max_size=8),
        b=st.lists(st.integers(min_value=-50, max_value=50), max_size=5),
    )
    def test_divmod_roundtrip_for_monic_divisors(self, a, b):
        dividend = IntPolynomial(tuple(a))
        divisor = IntPolynomial(tuple(b) + (1,))  # force monic
        q, r = divmod(dividend, divisor)
        assert q * divisor + r == dividend
        assert r.degree < divisor.degree

    def test_pretty(self):
        assert IntPolynomial.of().pretty() == "0"
        assert IntPolynomial.constant(-4).pretty() == "-4"
        assert IntPolynomial.of(1, -1, 1).pretty() == "X^2 - X + 1"
        assert IntPolynomial.of(0, 1).pretty() == "X"
        assert IntPolynomial.of(2, 0, 0, 0, -3).pretty() == "-3X^4 + 2"
        assert IntPolynomial.of(1, 1).pretty("Y") == "Y + 1"
        assert str(IntPolynomial.of(-1, 1)) == "X - 1"


class TestCyclotomicPoly:
    def test_base_case(self):
        assert cyclotomic_poly(1) == IntPolynomial.of(-1, 1)

    def test_second(self):
        assert cyclotomic_poly(2) == IntPolynomial.of(1, 1)

    def test_sixth(self):
        assert cyclotomic_poly(6) == IntPolynomial.of(1, -1, 1)

    def test_known_small_values(self):
        assert cyclotomic_poly(3) == IntPolynomial.of(1, 1, 1)
        assert cyclotomic_poly(4) == IntPolynomial.of(1, 0, 1)
        assert cyclotomic_poly(12) == IntPolynomial.of(1, 0, -1, 0, 1)

    def test_rejects_non_positive(self):
        with pytest.raises(DomainError):
            cyclotomic_poly(0)

    def test_degree_is_totient(self):
        for m in range(1, 61):
            assert cyclotomic_poly(m).degree == totient(m), m

    def test_product_over_divisors(self):
        for m in range(1, 61):
            prod = IntPolynomial.constant(1)
            for d in range(1, m + 1):
                if m % d == 0:
                    prod = prod * cyclotomic_poly(d)
            assert prod == IntPolynomial.monomial(m) - 1, m

    def test_inexact_division_raises(self, monkeypatch):
        # The divisibility check must survive python -O, so it is a raise.
        exact = IntPolynomial.__divmod__

        def leaky(self, other):
            quo, rem = exact(self, other)
            return quo, rem + 1

        monkeypatch.setattr(IntPolynomial, "__divmod__", leaky)
        cyclotomic_poly.cache_clear()
        try:
            with pytest.raises(NotDivisible):
                cyclotomic_poly(6)
        finally:
            cyclotomic_poly.cache_clear()

    def test_coefficients_can_exceed_one(self):
        # the first -2 coefficient appears at index 105
        coeffs = cyclotomic_poly(105).coeffs
        assert coeffs[7] == -2
        assert coeffs[41] == -2


class TestRootProduct:
    def test_cube_roots_of_unity_case(self):
        # (X - Y)(X - Y**2) with Y**2 = -Y - 1: collapses to X**2 + X + 1
        one = IntPolynomial.constant(1)
        assert root_product(3, [1, 2], cyclotomic_poly(3)) == (one, one, one)

    def test_single_factor_does_not_match(self):
        assert root_product(3, [1], cyclotomic_poly(3)) == (-IntPolynomial.x(), IntPolynomial.constant(1))

    @pytest.mark.parametrize(
        "exponent_set",
        [
            units,
            lambda m: [d + 1 for d in units(m)],
            lambda m: units(m) + [m],
        ],
        ids=["units", "shifted", "non-unit-added"],
    )
    def test_matches_full_expansion(self, exponent_set):
        # The oracle multiplies out in Z[Y][X] and reduces each coefficient
        # once at the end; it never reduces mod Y**m - 1.
        for m in range(2, 31):
            phi = cyclotomic_poly(m)
            exponents = exponent_set(m)
            expected = tuple(c % phi for c in expand_unreduced(exponents))
            assert root_product(m, exponents, phi) == expected, m

    @given(
        m=st.integers(min_value=1, max_value=12),
        exponents=st.lists(st.integers(min_value=0, max_value=40), max_size=6),
    )
    def test_any_exponents_any_divisor_of_y_m_minus_one(self, m, exponents):
        for modulus in (cyclotomic_poly(m), IntPolynomial.monomial(m) - 1):
            expected = tuple(c % modulus for c in expand_unreduced(exponents))
            assert root_product(m, exponents, modulus) == expected


class TestNegativeControls:
    """verify_lemma must fail when its exponent set is anything but the units."""

    MS = (2, 3, 4, 6, 7, 9, 12, 15, 30)

    @pytest.mark.parametrize("m", MS)
    def test_units_unchanged(self, m, lemma_on):
        assert lemma_on(m, lambda us: us)

    @pytest.mark.parametrize("m", MS)
    def test_one_unit_dropped(self, m, lemma_on):
        for i in range(totient(m)):
            assert not lemma_on(m, lambda us: us[:i] + us[i + 1 :]), i

    @pytest.mark.parametrize("m", MS)
    def test_one_non_unit_added(self, m, lemma_on):
        for extra in range(1, m + 1):
            if gcd(extra, m) != 1:
                assert not lemma_on(m, lambda us: us + [extra]), extra

    @pytest.mark.parametrize("m", MS)
    def test_every_exponent_shifted(self, m, lemma_on):
        assert not lemma_on(m, lambda us: [d + 1 for d in us])


class TestVerifyLemma:
    def test_simplest_case(self):
        # X - Y mod (Y + 1) is X + 1
        assert verify_lemma(2)

    def test_cube_case(self):
        assert verify_lemma(3)

    def test_fourth_case(self):
        assert verify_lemma(4)

    def test_range_to_twelve(self):
        for m in range(2, 13):
            assert verify_lemma(m), m

    def test_first_index_with_a_minus_two(self):
        assert verify_lemma(105)

    @pytest.mark.parametrize("m", [2, 3, 12, 30, 105])
    def test_one_reduction_per_x_coefficient(self, m, monkeypatch):
        target = cyclotomic_poly(m)  # warm the cache: only the check is counted
        calls = []
        exact = IntPolynomial.__divmod__

        def counted(self, other):
            calls.append(other)
            return exact(self, other)

        monkeypatch.setattr(IntPolynomial, "__divmod__", counted)
        assert verify_lemma(m)
        assert len(calls) == len(target.coeffs) == totient(m) + 1
        assert all(modulus == target for modulus in calls)
