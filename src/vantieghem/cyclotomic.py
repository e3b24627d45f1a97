"""Cyclotomic polynomials over the integers, and the root-product check.

The check: the product of (X - Y**d) over 1 <= d <= m with gcd(d, m) = 1,
with Y-coefficients reduced mod the m-th cyclotomic polynomial Phi_m(Y), must
collapse to Phi_m(X) with constant coefficients.  verify_lemma() expands the
product in Z[Y]/(Y**m - 1), where multiplying by Y**d is a cyclic rotation of
a length-m coefficient list, and reduces each X-coefficient mod Phi_m(Y) once
at the end.  That is exact because Phi_m(Y) divides Y**m - 1, so reduction
mod Phi_m(Y) is a ring homomorphism out of Z[Y]/(Y**m - 1).  The cost is
about totient(m)**2 * m integer operations; no coefficient bound is assumed.

This is the only module where negative integers appear; cyclotomic
polynomials have signed coefficients (the first -2 shows up at m = 105).
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
from dataclasses import dataclass
from math import gcd
from operator import sub

from .errors import DomainError, NotDivisible


@dataclass(frozen=True)
class IntPolynomial:
    """Dense polynomial over the integers; coeffs[i] multiplies X**i.

    Trailing zeros are stripped on construction, so the zero polynomial has
    an empty coefficient tuple and every nonzero polynomial has a nonzero
    leading coefficient.

    >>> (IntPolynomial.x() - 1) * (IntPolynomial.x() + 1)
    IntPolynomial('X^2 - 1')
    >>> divmod(IntPolynomial.monomial(6) - 1, IntPolynomial.of(1, 1, 1))
    (IntPolynomial('X^4 - X^3 + X - 1'), IntPolynomial('0'))
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        c = tuple(self.coeffs)
        end = len(c)
        while end and c[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "coeffs", c[:end])

    @staticmethod
    def of(*coeffs: int) -> IntPolynomial:
        """Build from coefficients, constant term first."""
        return IntPolynomial(coeffs)

    @staticmethod
    def constant(c: int) -> IntPolynomial:
        return IntPolynomial((c,))

    @staticmethod
    def monomial(degree: int, c: int = 1) -> IntPolynomial:
        return IntPolynomial((0,) * degree + (c,))

    @staticmethod
    def x() -> IntPolynomial:
        return IntPolynomial((0, 1))

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the leading term; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __add__(self, other: IntPolynomial | int) -> IntPolynomial:
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial(
            tuple(self[i] + other[i] for i in range(n))
        )

    __radd__ = __add__

    def __neg__(self) -> IntPolynomial:
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: IntPolynomial | int) -> IntPolynomial:
        return self + (-_as_poly(other))

    def __rsub__(self, other: IntPolynomial | int) -> IntPolynomial:
        return _as_poly(other) + (-self)

    def __mul__(self, other: IntPolynomial | int) -> IntPolynomial:
        other = _as_poly(other)
        if self.is_zero() or other.is_zero():
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            if c:
                for j, d in enumerate(other.coeffs):
                    out[i + j] += c * d
        return IntPolynomial(tuple(out))

    __rmul__ = __mul__

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __divmod__(self, other: IntPolynomial) -> tuple[IntPolynomial, IntPolynomial]:
        """Long division over the integers.

        Raises NotDivisible when a leading-coefficient step is not exact;
        always succeeds for monic divisors.
        """
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        lead = other.coeffs[-1]
        rem = list(self.coeffs)
        quo = [0] * max(len(rem) - len(other.coeffs) + 1, 0)
        while len(rem) >= len(other.coeffs):
            c, leftover = divmod(rem[-1], lead)
            if leftover:
                raise NotDivisible(
                    f"leading coefficient {lead} does not divide {rem[-1]}"
                )
            shift = len(rem) - len(other.coeffs)
            quo[shift] = c
            for i, d in enumerate(other.coeffs):
                rem[shift + i] -= c * d
            rem.pop()  # zero: leftover == 0 means c * lead == rem[-1]
            while rem and rem[-1] == 0:
                rem.pop()
        return IntPolynomial(tuple(quo)), IntPolynomial(tuple(rem))

    def __mod__(self, other: IntPolynomial) -> IntPolynomial:
        return divmod(self, other)[1]

    def pretty(self, var: str = "X") -> str:
        """Descending powers with explicit signs, e.g. 'X^2 - X + 1'."""
        if self.is_zero():
            return "0"
        parts: list[str] = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                term = str(mag)
            else:
                base = var if i == 1 else f"{var}^{i}"
                term = base if mag == 1 else f"{mag}{base}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f" {sign} {term}")
        return "".join(parts)

    def __str__(self) -> str:
        return self.pretty()

    def __repr__(self) -> str:
        return f"IntPolynomial('{self.pretty()}')"


def _as_poly(value: IntPolynomial | int) -> IntPolynomial:
    if isinstance(value, IntPolynomial):
        return value
    return IntPolynomial.constant(value)


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> IntPolynomial:
    """The m-th cyclotomic polynomial, of degree totient(m).

    Computed recursively: X**m - 1 divided (exactly) by the product of the
    cyclotomic polynomials of all proper divisors of m.  No coefficient
    bound is assumed anywhere.

    >>> print(cyclotomic_poly(1))
    X - 1
    >>> print(cyclotomic_poly(6))
    X^2 - X + 1
    """
    if m < 1:
        raise DomainError(f"index must be >= 1, got {m}")
    poly = IntPolynomial.monomial(m) - 1
    for d in range(1, m):
        if m % d == 0:
            poly, rem = divmod(poly, cyclotomic_poly(d))
            if not rem.is_zero():
                raise NotDivisible(f"Phi_{d} leaves remainder {rem} in X^{m} - 1")
    return poly


def root_product(m: int, exponents: Iterable[int], modulus: IntPolynomial) -> tuple[IntPolynomial, ...]:
    """X-coefficients of the product of (X - Y**d) over exponents, each mod modulus.

    The product is expanded in Z[Y]/(Y**m - 1): every X-coefficient is a
    length-m list of ints, and multiplying by Y**d rotates that list by d.
    Each coefficient is then reduced once mod modulus, which must divide
    Y**m - 1 (such as the m-th cyclotomic polynomial in Y), so the result
    equals the product expanded in Z[Y] and reduced mod modulus.
    """
    zero = [0] * m
    acc = [[1] + zero[1:]]
    for d in exponents:
        # Row i of acc * (X - Y**d) is row i-1 minus row i rotated by d.
        s = -d % m
        acc = [list(map(sub, hi, lo[s:] + lo[:s])) for hi, lo in zip([zero] + acc, acc)] + [acc[-1]]
    return tuple(IntPolynomial(tuple(c)) % modulus for c in acc)


def verify_lemma(m: int) -> bool:
    """Check that the product of (X - Y**d) over units d mod m is Phi_m(X) mod Phi_m(Y).

    root_product() expands the product mod Y**m - 1 and reduces each
    X-coefficient once mod the m-th cyclotomic polynomial in Y.  Returns
    whether every reduced coefficient is the constant that the m-th
    cyclotomic polynomial in X has there.  Intended for m >= 2.
    """
    target = cyclotomic_poly(m)
    units = (d for d in range(1, m + 1) if gcd(d, m) == 1)
    return root_product(m, units, target) == tuple(IntPolynomial.constant(c) for c in target.coeffs)
