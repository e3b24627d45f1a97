"""Integer polynomials, cyclotomic construction, and the root-product check."""

import os
import random
import subprocess
import sys
from itertools import combinations_with_replacement
from math import gcd
from operator import sub
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st
from polyref import Poly, long_division_cyclotomic, root_product

from vantieghem import cyclotomic
from vantieghem.cyclotomic import (
    IntPolynomial,
    constant_root_product,
    cyclotomic_poly,
    verify_lemma,
)
from vantieghem.errors import DomainError, NotDivisible


def totient(m: int) -> int:
    return sum(1 for d in range(1, m + 1) if gcd(d, m) == 1)


def units(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if gcd(d, m) == 1]


def expand_unreduced(exponents) -> list[Poly]:
    """X-coefficients of the product of (X - Y**d) in Z[Y][X], no reduction at all."""
    acc = [Poly.constant(1)]
    for d in exponents:
        out = [Poly(())] * (len(acc) + 1)
        for i, c in enumerate(acc):
            out[i + 1] = out[i + 1] + c
            out[i] = out[i] - Poly.monomial(d) * c
        acc = out
    return acc


def phi_poly(m: int) -> Poly:
    """cyclotomic_poly(m) with the test-side arithmetic."""
    return Poly.lift(cyclotomic_poly(m))


def constants_of(coefficients) -> tuple[int, ...] | None:
    """The ints that polynomials of degree <= 0 stand for; None if any has a higher degree."""
    if any(c.degree > 0 for c in coefficients):
        return None
    return tuple(c.coeffs[0] if c.coeffs else 0 for c in coefficients)


def reference_root_product(m, exponents, modulus):
    """root_product by list rotations and one polynomial long division per X-coefficient.

    Each X-coefficient is a length-m list of ints in Z[Y]/(Y**m - 1), so
    multiplying by Y**d rotates it by d; each is then reduced mod modulus
    with Poly's long division.  It shares no arithmetic with the
    packed-integer kernels.
    """
    zero = [0] * m
    acc = [[1] + zero[1:]]
    for d in exponents:
        # Row i of acc * (X - Y**d) is row i-1 minus row i rotated by d.
        s = -d % m
        acc = [list(map(sub, hi, lo[s:] + lo[:s])) for hi, lo in zip([zero] + acc, acc)] + [acc[-1]]
    return tuple(Poly(tuple(c)) % modulus for c in acc)


def seeded_random(m):
    rng = random.Random(m)
    return [rng.randrange(-2 * m, 3 * m) for _ in range(rng.randrange(totient(m) + 2))]


EXPONENT_SETS = {
    "units": units,
    "shifted": lambda m: [d + 1 for d in units(m)],
    "non-unit-added": lambda m: units(m) + [m],
}
REFERENCE_SETS = {**EXPONENT_SETS, "seeded-random": seeded_random}


@pytest.fixture
def lemma_on(monkeypatch):
    """Run verify_lemma(m) with its list of units passed through change() first."""
    real = cyclotomic.constant_root_product

    def run(m, change):
        def changed(m, exponents, phi_m):
            return real(m, change(list(exponents)), phi_m)

        monkeypatch.setattr(cyclotomic, "constant_root_product", changed)
        return verify_lemma(m)

    return run


class TestIntPolynomial:
    # The package's IntPolynomial is a value type; the arithmetic and long
    # division moved to the test-side Poly, which these tests now cover.

    def test_trailing_zeros_stripped(self):
        assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
        assert IntPolynomial((0, 0)).coeffs == ()

    def test_degree(self):
        assert IntPolynomial(()).degree == -1
        assert IntPolynomial((5,)).degree == 0
        assert Poly.monomial(7).degree == 7

    def test_arithmetic(self):
        x = Poly.x()
        assert (x + 1) * (x - 1) == Poly.of(-1, 0, 1)
        assert (x + 1) - (x + 1) == Poly.of()
        assert 2 * x + x == Poly.of(0, 3)
        assert -(x - 3) == Poly.of(3, -1)

    def test_divmod_exact(self):
        q, r = divmod(Poly.monomial(6) - 1, Poly.of(1, 1, 1))
        assert r.is_zero()
        assert q == Poly.of(-1, 1, 0, -1, 1)

    def test_divmod_with_remainder(self):
        # Y**3 mod (Y**2 + Y + 1) = 1
        rem = Poly.monomial(3) % Poly.of(1, 1, 1)
        assert rem == Poly.constant(1)

    def test_divmod_non_monic_inexact(self):
        with pytest.raises(NotDivisible):
            divmod(Poly.of(0, 1), Poly.of(0, 2))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(Poly.x(), Poly.of())

    @given(
        a=st.lists(st.integers(min_value=-50, max_value=50), max_size=8),
        b=st.lists(st.integers(min_value=-50, max_value=50), max_size=5),
    )
    def test_divmod_roundtrip_for_monic_divisors(self, a, b):
        dividend = Poly(tuple(a))
        divisor = Poly(tuple(b) + (1,))  # force monic
        q, r = divmod(dividend, divisor)
        assert q * divisor + r == dividend
        assert r.degree < divisor.degree

    def test_pretty(self):
        assert IntPolynomial(()).pretty() == "0"
        assert IntPolynomial((-4,)).pretty() == "-4"
        assert IntPolynomial((1, -1, 1)).pretty() == "X^2 - X + 1"
        assert IntPolynomial((0, 1)).pretty() == "X"
        assert IntPolynomial((2, 0, 0, 0, -3)).pretty() == "-3X^4 + 2"
        assert IntPolynomial((1, 1)).pretty("Y") == "Y + 1"
        assert str(IntPolynomial((-1, 1))) == "X - 1"
        assert repr(IntPolynomial((1, 0, 1))) == "IntPolynomial('X^2 + 1')"

    def test_value_type_without_arithmetic(self):
        for name in ("__add__", "__sub__", "__neg__", "__mul__", "__divmod__", "__mod__", "__getitem__"):
            assert not hasattr(IntPolynomial, name), name
        assert IntPolynomial((1, 1)) == IntPolynomial((1, 1, 0))
        assert hash(IntPolynomial((1, 1))) == hash(IntPolynomial((1, 1, 0)))


class TestCyclotomicPoly:
    def test_base_case(self):
        assert cyclotomic_poly(1).coeffs == (-1, 1)

    def test_second(self):
        assert cyclotomic_poly(2).coeffs == (1, 1)

    def test_sixth(self):
        assert cyclotomic_poly(6).coeffs == (1, -1, 1)

    def test_known_small_values(self):
        assert cyclotomic_poly(3).coeffs == (1, 1, 1)
        assert cyclotomic_poly(4).coeffs == (1, 0, 1)
        assert cyclotomic_poly(12).coeffs == (1, 0, -1, 0, 1)

    def test_rejects_non_positive(self):
        with pytest.raises(DomainError):
            cyclotomic_poly(0)

    def test_degree_is_totient(self):
        for m in range(1, 61):
            assert cyclotomic_poly(m).degree == totient(m), m

    def test_product_over_divisors(self):
        for m in range(1, 61):
            prod = Poly.constant(1)
            for d in range(1, m + 1):
                if m % d == 0:
                    prod = prod * phi_poly(d)
            assert prod == Poly.monomial(m) - 1, m

    def test_matches_long_division(self):
        # The quotient at 2**W against the recursion over divisors that it
        # replaced; the range holds the first -2 (m = 105) and +2 (m = 165).
        for m in range(1, 301):
            assert cyclotomic_poly(m).coeffs == long_division_cyclotomic(m).coeffs, m

    def test_inexact_division_raises(self, monkeypatch):
        # The divisibility check must survive python -O, so it is a raise:
        # one factor (2**(2W) - 1) too many in the denominator leaves a remainder.
        real = cyclotomic._moebius_terms
        monkeypatch.setattr(cyclotomic, "_moebius_terms", lambda m: [*real(m), (2, -1)])
        with pytest.raises(NotDivisible):
            cyclotomic_poly(6)

    def test_too_narrow_width_raises(self, monkeypatch):
        # 8 bits cannot hold the coefficient bound 2**48 of Phi_105.
        monkeypatch.setattr(cyclotomic, "_slot_width", lambda bound: 8)
        with pytest.raises(OverflowError):
            cyclotomic_poly(105)

    def test_coefficients_can_exceed_one(self):
        # the first -2 coefficient appears at index 105
        coeffs = cyclotomic_poly(105).coeffs
        assert coeffs[7] == -2
        assert coeffs[41] == -2

    def test_no_module_level_cache(self):
        # Nothing is kept between calls: a second call builds Phi_m again.
        for name, value in vars(cyclotomic).items():
            if not name.startswith("__"):
                assert not hasattr(value, "cache_info"), name
                assert not isinstance(value, (dict, list, set, bytearray)), name
        assert cyclotomic_poly(30) is not cyclotomic_poly(30)


class TestRootProduct:
    """The rotation-kernel root product, now a test-side oracle (polyref)."""

    def test_cube_roots_of_unity_case(self):
        # (X - Y)(X - Y**2) with Y**2 = -Y - 1: collapses to X**2 + X + 1
        one = Poly.constant(1)
        assert root_product(3, [1, 2], cyclotomic_poly(3)) == (one, one, one)

    def test_single_factor_does_not_match(self):
        assert root_product(3, [1], cyclotomic_poly(3)) == (-Poly.x(), Poly.constant(1))

    @pytest.mark.parametrize("exponent_set", EXPONENT_SETS.values(), ids=EXPONENT_SETS.keys())
    def test_matches_full_expansion(self, exponent_set):
        # The oracle multiplies out in Z[Y][X] and reduces each coefficient
        # once at the end; it never reduces mod Y**m - 1.
        for m in range(2, 31):
            phi = phi_poly(m)
            exponents = exponent_set(m)
            expected = tuple(c % phi for c in expand_unreduced(exponents))
            assert root_product(m, exponents, phi) == expected, m
            assert constant_root_product(m, exponents, cyclotomic_poly(m)) == constants_of(expected), m

    @given(
        m=st.integers(min_value=1, max_value=12),
        exponents=st.lists(st.integers(min_value=0, max_value=40), max_size=6),
    )
    def test_any_exponents_any_divisor_of_y_m_minus_one(self, m, exponents):
        phi = phi_poly(m)
        for modulus in (phi, Poly.monomial(m) - 1):
            expected = tuple(c % modulus for c in expand_unreduced(exponents))
            assert root_product(m, exponents, modulus) == expected
            if modulus is phi:
                assert constant_root_product(m, exponents, cyclotomic_poly(m)) == constants_of(expected)

    @pytest.mark.parametrize("exponent_set", REFERENCE_SETS.values(), ids=REFERENCE_SETS.keys())
    @pytest.mark.parametrize("modulus_of", [phi_poly, lambda m: Poly.monomial(m) - 1], ids=["phi", "y-m-minus-one"])
    def test_matches_reference(self, exponent_set, modulus_of):
        # Mod Phi_m the package's check must agree with both oracles: the
        # coefficients when they are all constant, None when one is not.
        for m in [*range(1, 121), 210]:
            modulus, exponents = modulus_of(m), exponent_set(m)
            expected = reference_root_product(m, exponents, modulus)
            assert root_product(m, exponents, modulus) == expected, m
            if modulus_of is phi_poly:
                assert constant_root_product(m, exponents, cyclotomic_poly(m)) == constants_of(expected), m

    @given(
        m=st.integers(min_value=1, max_value=16),
        exponents=st.lists(st.integers(min_value=-40, max_value=40), max_size=8),
        low=st.lists(st.integers(min_value=-9, max_value=9), max_size=5),
    )
    def test_any_monic_modulus(self, m, exponents, low):
        # Y**k mod such a modulus can have large coefficients (Y - 3 gives
        # 3**k), which the slot width must cover.
        modulus = Poly(tuple(low) + (1,))
        assert root_product(m, exponents, modulus) == reference_root_product(m, exponents, modulus)

    def test_non_monic_modulus_raises(self):
        with pytest.raises(DomainError):
            root_product(3, [1, 2], 2 * phi_poly(3))

    def test_slot_width_is_the_least_multiple_of_eight(self):
        for bound in (0, 1, 63, 64, 2**50 - 1, 2**50, 3**100):
            width = cyclotomic._slot_width(bound)
            assert width % 8 == 0 and bound < 2 ** (width - 2), bound
            assert width == 8 or bound >= 2 ** (width - 10), bound

    def test_too_narrow_slot_width_raises_under_python_o(self):
        # The width check must survive python -O, so it is a raise.  At
        # m = 105 the power sums' slot bound is totient * t = 48 * 2 = 96,
        # which 8 bits (2**6 = 64) cannot hold; Phi_105 is built first, at
        # its own width.
        code = (
            "import sys\n"
            "from vantieghem import cyclotomic\n"
            "if not sys.flags.optimize: sys.exit(2)\n"
            "phi_m = cyclotomic.cyclotomic_poly(105)\n"
            "if not cyclotomic.verify_lemma(105, phi_m): sys.exit(3)\n"
            "cyclotomic._slot_width = lambda bound: 8\n"
            "try: cyclotomic.verify_lemma(105, phi_m)\n"
            "except OverflowError: sys.exit(0)\n"
            "sys.exit(1)\n"
        )
        src = str(Path(cyclotomic.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        assert subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=60).returncode == 0

    def test_digits_beyond_the_count_raise(self):
        assert cyclotomic._balanced_digits(-1 - (5 << 8), 8, 3) == (-1, -5)
        assert cyclotomic._balanced_digits(127, 8, 1) == (127,)
        assert cyclotomic._balanced_digits(0, 8, 0) == ()
        for r, count in [(1 << 16, 2), (-(1 << 16), 2), (128, 1), (-129, 1), (1, 0)]:
            with pytest.raises(OverflowError):
                cyclotomic._balanced_digits(r, 8, count)


class TestConstantRootProduct:
    """Newton's identities over the power sums, against the oracles above."""

    @pytest.mark.parametrize("m", [3, 5, 7, 12, 30, 105])
    def test_power_sum_not_constant(self, m):
        # P_1 = Y is not a constant mod Phi_m for m >= 3.
        assert constant_root_product(m, [1], cyclotomic_poly(m)) is None
        assert constants_of(root_product(m, [1], phi_poly(m))) is None

    def test_later_power_sum_not_constant(self):
        # At m = 9 the exponents {1, 4, 7} are Y times the cube roots of
        # unity Y**3: P_1 = P_2 = 0, but P_3 = 3 * Y**3, and the product is
        # X**3 - Y**3.  At m = 6, {1, 4} gives P_1 = 0 and P_2 = 2 * Y**2.
        for m, exponents in [(9, [1, 4, 7]), (6, [1, 4])]:
            assert constants_of(root_product(m, exponents, phi_poly(m))) is None
            assert constant_root_product(m, exponents, cyclotomic_poly(m)) is None

    def test_constant_but_not_cyclotomic(self):
        # {0, 3, 6} at m = 9: the cube roots of unity in Y**3, so the
        # product is X**3 - 1, constant but not Phi_9(X).
        assert constant_root_product(9, [0, 3, 6], cyclotomic_poly(9)) == (-1, 0, 0, 1)
        assert constants_of(root_product(9, [0, 3, 6], phi_poly(9))) == (-1, 0, 0, 1)

    @pytest.fixture
    def remainders(self, monkeypatch):
        """Every dividend the check reduces mod Phi_m(2**W), in order."""
        seen = []

        class CountedModulus(int):
            def __rmod__(self, x):
                seen.append(x)
                return x % int(self)

        real = cyclotomic._packed_phi
        monkeypatch.setattr(cyclotomic, "_packed_phi", lambda m, width: CountedModulus(real(m, width)))
        return seen

    def test_one_remainder_per_gcd(self, remainders):
        # For the units, one power sum per gcd that some i <= totient(m) has
        # with m.
        for m in (12, 30, 105, 210):
            phi_m = cyclotomic_poly(m)
            remainders.clear()
            assert verify_lemma(m, phi_m)
            assert len(remainders) == len({gcd(i, m) for i in range(1, totient(m) + 1)}), m

    def test_one_remainder_per_gcd_for_any_exponents(self, remainders):
        # {1, 4, 7} at m = 9 gives different multisets for i = 1 and i = 2,
        # but P_2 is the conjugate of P_1 = 0 under Y -> Y**2, so it is 0
        # too; P_3 = 3 * Y**3 then ends the check.
        phi_9 = cyclotomic_poly(9)
        assert constant_root_product(9, [1, 4, 7], phi_9) is None
        assert len(remainders) == 2

    def test_every_exponent_set_at_small_m(self):
        # Reusing one power sum per gcd is exact for any exponents: every
        # subset of Z/m for m <= 10, and every multiset of up to 5
        # exponents for m <= 6, against the rotation-kernel oracle.
        cases = [(m, [d for d in range(m) if mask >> d & 1]) for m in range(1, 11) for mask in range(1 << m)]
        cases += [(m, list(c)) for m in range(1, 7) for k in range(6) for c in combinations_with_replacement(range(m), k)]
        for m, exponents in cases:
            expected = constants_of(root_product(m, exponents, phi_poly(m)))
            assert constant_root_product(m, exponents, cyclotomic_poly(m)) == expected, (m, exponents)

    def test_inexact_recurrence_raises(self, monkeypatch):
        # An off-by-one multiply in the recurrence gives 2 * c_2 = -1 at
        # m = 5; the exactness check must survive python -O, so it raises.
        monkeypatch.setattr(cyclotomic, "mul", lambda a, b: a * b + 1)
        with pytest.raises(NotDivisible):
            verify_lemma(5)


class TestNegativeControls:
    """verify_lemma must fail when its exponent set is anything but the units."""

    MS = (2, 3, 4, 6, 7, 9, 12, 15, 30, 105)

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

    def test_wrong_target_fails(self):
        assert not verify_lemma(6, cyclotomic_poly(3))
        assert not verify_lemma(12, IntPolynomial((1, 0, 1, 0, 1)))

    @pytest.mark.parametrize("m", [2, 3, 12, 30, 105])
    def test_no_polynomial_division(self, m, monkeypatch):
        # IntPolynomial has no arithmetic to call, and the check builds no
        # polynomial: given Phi_m it works on ints alone, and without it
        # builds Phi_m and nothing else.
        phi_m = cyclotomic_poly(m)
        built = []
        monkeypatch.setattr(IntPolynomial, "__post_init__", lambda self: built.append(self))
        assert verify_lemma(m, phi_m)
        assert built == []
        assert verify_lemma(m)
        assert [p.coeffs for p in built] == [phi_m.coeffs]
