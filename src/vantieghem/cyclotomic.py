"""Cyclotomic polynomials over the integers, and the root-product check.

The check: the product of (X - Y**d) over 1 <= d <= m with gcd(d, m) = 1,
with Y-coefficients reduced mod the m-th cyclotomic polynomial Phi_m(Y), must
collapse to Phi_m(X) with constant coefficients.  verify_lemma() expands the
product in Z[Y]/(Y**m - 1) and reduces each X-coefficient mod Phi_m(Y) once
at the end.  That is exact because Phi_m(Y) divides Y**m - 1, so reduction
mod Phi_m(Y) is a ring homomorphism out of Z[Y]/(Y**m - 1).

The expansion runs on packed integers (Kronecker substitution Y = 2**W):
each X-coefficient is one int of m slots of W bits, multiplying it by Y**d
is a bit rotation mod 2**(W*m) - 1, and its reduction is one integer
remainder mod Phi_m(2**W), whose balanced base-2**W digits are the reduced
coefficients.  W comes from a bound computed on every call, proved in
root_product().  The cost is about totient(m)**2 / 2 rotations and additions
of (W*m)-bit ints plus totient(m) + 1 integer remainders; the check runs no
polynomial division.

This is the only module where negative integers appear; cyclotomic
polynomials have signed coefficients (the first -2 shows up at m = 105).
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
from dataclasses import dataclass
from math import gcd

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


def _slot_width(bound: int) -> int:
    """Smallest multiple of 8 that is at least bound.bit_length() + 2, so 2**(W-2) > bound."""
    return -(-(bound.bit_length() + 2) // 8) * 8


def _balanced_digits(r: int, width: int, count: int) -> tuple[int, ...]:
    """Balanced base-2**width digits of r, lowest first, at most count of them.

    The digits d_j satisfy r = sum(d_j * 2**(width*j)) and
    -2**(width-1) <= d_j < 2**(width-1); width is a multiple of 8.  Only the
    k lowest are returned, k the fewest with width*k >= r.bit_length() + 2
    (at most count), since k balanced digits hold every |r| < 2**(width*k - 2);
    the digits above are zero.  A single digit is r itself.  For more,
    adding 2**(width-1) to every digit makes them the plain base-2**width
    digits of one non-negative int, so one to_bytes call splits them, in
    time linear in the size of r.  Raises OverflowError, from to_bytes, if r
    needs more than count digits.
    """
    k = (r.bit_length() + 1) // width + 1
    if k == 1 and count:
        return (r,)
    k = min(k, count)
    step = width // 8
    half = 1 << (width - 1)
    biased = r + int.from_bytes(half.to_bytes(step, "little") * k, "little")
    raw = biased.to_bytes(step * k, "little")  # OverflowError unless 0 <= biased < 2**(width*k)
    return tuple(int.from_bytes(raw[j : j + step], "little") - half for j in range(0, step * k, step))


def root_product(m: int, exponents: Iterable[int], modulus: IntPolynomial) -> tuple[IntPolynomial, ...]:
    """X-coefficients of the product of (X - Y**d) over exponents, each mod modulus.

    modulus must be monic (else DomainError) of some degree delta; the
    result equals the product expanded in Z[Y], reduced mod Y**m - 1 and
    then mod modulus.  When modulus divides Y**m - 1 (such as the m-th
    cyclotomic polynomial in Y) that is the product reduced mod modulus.

    Expansion.  After n factors the coefficient of X**i is
    (-1)**(n-i) * C_i(Y), where C_i is the elementary symmetric sum of the
    Y**d taken n - i at a time: a polynomial with non-negative counts that
    add up to binomial(n, i) <= 2**n.  A factor (X - Y**d) maps C_i to
    C_(i-1) + Y**d * C_i, with no subtraction.  Each C_i is packed into one
    int at Y = 2**W, a base-2**W number of m slots, and lives in
    Z/(2**(W*m) - 1), where multiplying by Y**d is a rotation by W*(d mod m)
    bits.  Rotation and addition are exact as long as no slot reaches
    2**W, which holds since every count is at most 2**n < 2**W.

    Reduction.  Let R = C_i mod modulus and F = modulus(2**W), so that
    R(2**W) == C_i(2**W) (mod F).  Every Y**k with k < m reduces to a
    polynomial whose coefficients are at most t >= 1 in magnitude, t taken
    over one pass of the table Y**k mod modulus, so every coefficient of R
    is at most binomial(n, i) * t <= 2**n * t in magnitude.  W is a
    multiple of 8 with 2**(W-2) > max(2**n * t, L), where L is the sum of
    the absolute values of modulus's coefficients.  A polynomial G of
    degree < delta whose coefficients are below 2**(W-2) in magnitude then
    has |G(2**W)| < 2**(W-2) * (2**(W*delta) - 1) / (2**W - 1), which is
    below 2/7 * 2**(W*delta) as W >= 3.  Applied to R, |R(2**W)| is below
    2/7 * 2**(W*delta); applied to modulus - Y**delta, F is above
    5/7 * 2**(W*delta).  So |R(2**W)| < F/2: R(2**W) is the remainder of
    C_i(2**W) mod F taken in the balanced range, one integer remainder.
    Each coefficient of R is below 2**(W-1) in magnitude, so they are the
    unique balanced base-2**W digits of R(2**W), and there are delta of
    them.  Digits beyond the delta-th raise OverflowError, as does a W that
    does not meet the bound.

    Cost: one pass of (m - delta) * delta int operations for t, about
    n**2 / 2 rotations and additions of (W*m)-bit ints, then n + 1 integer
    remainders and a decode of each row in time linear in its size.
    """
    if modulus.is_zero() or modulus.coeffs[-1] != 1:
        raise DomainError(f"modulus must be monic, got {modulus}")
    delta = modulus.degree
    low = [-c for c in modulus.coeffs[:-1]]  # Y**delta == low (mod modulus)
    t = 1  # Y**k for k < delta is its own remainder
    reduced = low
    for _ in range(delta, m if delta else 0):  # mod a constant every remainder is 0
        t = max(t, max(reduced), -min(reduced))
        top = reduced[-1]
        reduced = [top * low[0], *[r + top * c for r, c in zip(reduced, low[1:])]]
    shifts = [d % m for d in exponents]
    n = len(shifts)
    bound = max(t << n, sum(map(abs, modulus.coeffs)))
    width = _slot_width(bound)
    if width % 8 or bound >> (width - 2):
        raise OverflowError(f"slot width {width} does not bound {bound} below 2**(W-2)")

    bits = width * m
    mask = (1 << bits) - 1
    acc = [1]
    for d in shifts:
        # Row i of the new product is row i-1 plus row i rotated by W*d bits.
        s, u = width * d, bits - width * d
        lo = [((c << s) & mask) | (c >> u) for c in acc]
        acc = [lo[0], *[hi + c for hi, c in zip(acc, lo[1:])], acc[-1]]

    f = 0
    for c in reversed(modulus.coeffs):
        f = (f << width) + c
    out = []
    for i, x in enumerate(acc):
        r = x % f
        if 2 * r > f:
            r -= f
        out.append(IntPolynomial(_balanced_digits(-r if (n - i) % 2 else r, width, delta)))
    return tuple(out)


def verify_lemma(m: int) -> bool:
    """Check that the product of (X - Y**d) over units d mod m is Phi_m(X) mod Phi_m(Y).

    root_product() packs each X-coefficient into one int at Y = 2**W,
    expands the product by rotations mod 2**(W*m) - 1, and reduces each
    X-coefficient mod Phi_m(2**W) with one integer remainder.  Returns
    whether every reduced coefficient is the constant that the m-th
    cyclotomic polynomial in X has there.  Intended for m >= 2.
    """
    target = cyclotomic_poly(m)
    units = (d for d in range(1, m + 1) if gcd(d, m) == 1)
    return root_product(m, units, target) == tuple(IntPolynomial.constant(c) for c in target.coeffs)
