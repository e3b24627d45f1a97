"""Reference polynomial arithmetic for the tests.

The package's IntPolynomial is a value type with no arithmetic.  Poly adds
the dense arithmetic and long division over the integers, and the slow
constructions the package's fast ones are checked against are built on it:
the m-th cyclotomic polynomial by recursive long division, and the root
product expanded on packed integers and reduced mod any monic modulus.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable

from vantieghem.cyclotomic import IntPolynomial, _balanced_digits, _slot_width
from vantieghem.errors import DomainError, NotDivisible


class Poly(IntPolynomial):
    """IntPolynomial with ring arithmetic and long division.

    >>> (Poly.x() - 1) * (Poly.x() + 1)
    IntPolynomial('X^2 - 1')
    >>> divmod(Poly.monomial(6) - 1, Poly.of(1, 1, 1))
    (IntPolynomial('X^4 - X^3 + X - 1'), IntPolynomial('0'))
    """

    @staticmethod
    def of(*coeffs: int) -> Poly:
        """Build from coefficients, constant term first."""
        return Poly(coeffs)

    @staticmethod
    def constant(c: int) -> Poly:
        return Poly((c,))

    @staticmethod
    def monomial(degree: int, c: int = 1) -> Poly:
        return Poly((0,) * degree + (c,))

    @staticmethod
    def x() -> Poly:
        return Poly((0, 1))

    @staticmethod
    def lift(value: IntPolynomial | int) -> Poly:
        """value as a Poly; an int is a constant."""
        return Poly(value.coeffs) if isinstance(value, IntPolynomial) else Poly.constant(value)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __add__(self, other: IntPolynomial | int) -> Poly:
        other = Poly.lift(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(tuple(self[i] + other[i] for i in range(n)))

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: IntPolynomial | int) -> Poly:
        return self + (-Poly.lift(other))

    def __rsub__(self, other: IntPolynomial | int) -> Poly:
        return Poly.lift(other) + (-self)

    def __mul__(self, other: IntPolynomial | int) -> Poly:
        other = Poly.lift(other)
        if self.is_zero() or other.is_zero():
            return Poly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            if c:
                for j, d in enumerate(other.coeffs):
                    out[i + j] += c * d
        return Poly(tuple(out))

    __rmul__ = __mul__

    def __divmod__(self, other: IntPolynomial) -> tuple[Poly, Poly]:
        """Long division over the integers.

        Raises NotDivisible when a leading-coefficient step is not exact;
        always succeeds for monic divisors.
        """
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        lead = other.coeffs[-1]
        rem = list(self.coeffs)
        quo = [0] * max(len(rem) - len(other.coeffs) + 1, 0)
        while len(rem) >= len(other.coeffs):
            c, leftover = divmod(rem[-1], lead)
            if leftover:
                raise NotDivisible(f"leading coefficient {lead} does not divide {rem[-1]}")
            shift = len(rem) - len(other.coeffs)
            quo[shift] = c
            for i, d in enumerate(other.coeffs):
                rem[shift + i] -= c * d
            rem.pop()  # zero: leftover == 0 means c * lead == rem[-1]
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(tuple(quo)), Poly(tuple(rem))

    def __mod__(self, other: IntPolynomial) -> Poly:
        return divmod(self, other)[1]


@functools.lru_cache(maxsize=None)
def long_division_cyclotomic(m: int) -> Poly:
    """The m-th cyclotomic polynomial: X**m - 1 divided (exactly) by Phi_d for every proper divisor d."""
    if m < 1:
        raise DomainError(f"index must be >= 1, got {m}")
    poly = Poly.monomial(m) - 1
    for d in range(1, m):
        if m % d == 0:
            poly, rem = divmod(poly, long_division_cyclotomic(d))
            if not rem.is_zero():
                raise NotDivisible(f"Phi_{d} leaves remainder {rem} in X^{m} - 1")
    return poly


def root_product(m: int, exponents: Iterable[int], modulus: IntPolynomial) -> tuple[Poly, ...]:
    """X-coefficients of the product of (X - Y**d) over exponents, each mod modulus.

    modulus must be monic (else DomainError) of some degree delta; the
    result equals the product expanded in Z[Y], reduced mod Y**m - 1 and
    then mod modulus.  When modulus divides Y**m - 1 (such as the m-th
    cyclotomic polynomial in Y) that is the product reduced mod modulus.

    The package's lemma check before Newton's identities replaced it.

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
    """
    if not modulus.coeffs or modulus.coeffs[-1] != 1:
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
        out.append(Poly(_balanced_digits(-r if (n - i) % 2 else r, width, delta)))
    return tuple(out)
