"""Cyclotomic polynomials over the integers, and the root-product check.

Phi_m from one integer quotient.  At every integer x >= 2,
Phi_m(x) = prod over d | m of (x**d - 1)**mu(m/d), one product and one exact
division.  The coefficients of Phi_m are the elementary symmetric sums of
its totient(m) roots, which are roots of unity, so |a_k| <= binomial(phi, k)
<= 2**phi.  At x = 2**W with 2**(W-2) > 2**phi they are therefore the
balanced base-2**W digits of Phi_m(2**W), and cyclotomic_poly() reads them
off with one decode (see _balanced_digits).

The check: the product of (X - Y**d) over 1 <= d <= m with gcd(d, m) = 1,
with Y-coefficients reduced mod Phi_m(Y), must be Phi_m(X).  verify_lemma()
tests it by Newton's identities in A = Z[Y]/Phi_m(Y); constant_root_product()
has the proof.  It needs totient(m) power sums but reduces one per value of
gcd(i, m), each with one integer remainder, and runs one recurrence over
integers: about totient(m)**2 / 2 small-int steps plus at most d(m) - 1
remainders of (W*m)-bit ints by Phi_m(2**W), where 2**(W-2) need only exceed
totient(m) * t, t the largest coefficient of any Y**k mod Phi_m(Y).  No
polynomial is multiplied or divided.

This is the only module where negative integers appear; cyclotomic
polynomials have signed coefficients (the first -2 shows up at m = 105).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from math import gcd
from operator import mul

from .errors import DomainError, NotDivisible
from .modmath import exact_div, factorize


@dataclass(frozen=True)
class IntPolynomial:
    """Dense polynomial over the integers, as a value; coeffs[i] multiplies X**i.

    Trailing zeros are stripped on construction, so the zero polynomial has
    an empty coefficient tuple and every nonzero polynomial has a nonzero
    leading coefficient.

    >>> IntPolynomial((1, -1, 1, 0))
    IntPolynomial('X^2 - X + 1')
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        c = tuple(self.coeffs)
        end = len(c)
        while end and c[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "coeffs", c[:end])

    @property
    def degree(self) -> int:
        """Degree of the leading term; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def pretty(self, var: str = "X") -> str:
        """Descending powers with explicit signs, e.g. 'X^2 - X + 1'."""
        if not self.coeffs:
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


def _moebius_terms(m: int) -> list[tuple[int, int]]:
    """The pairs (d, mu(m/d)) over the divisors d of m with m/d squarefree."""
    terms = [(m, 1)]
    for q, _ in factorize(m):
        terms += [(d // q, -mu) for d, mu in terms]
    return terms


def _packed_phi(m: int, width: int) -> int:
    """Phi_m(2**width): prod of (2**(width*d) - 1)**mu(m/d) over d | m, one exact division."""
    num = den = 1
    for d, mu in _moebius_terms(m):
        if mu > 0:
            num *= (1 << width * d) - 1
        else:
            den *= (1 << width * d) - 1
    return exact_div(num, den)


def cyclotomic_poly(m: int) -> IntPolynomial:
    """The m-th cyclotomic polynomial, of degree totient(m).

    Its coefficients are the balanced base-2**W digits of Phi_m(2**W), with
    W the least multiple of 8 such that 2**(W-2) > 2**totient(m); the module
    docstring has the bound.  Nothing is kept between calls.

    >>> print(cyclotomic_poly(1))
    X - 1
    >>> print(cyclotomic_poly(6))
    X^2 - X + 1
    """
    if m < 1:
        raise DomainError(f"index must be >= 1, got {m}")
    phi = sum(d * mu for d, mu in _moebius_terms(m))
    width = _checked_width(1 << phi)
    return IntPolynomial(_balanced_digits(_packed_phi(m, width), width, phi + 1))


def _slot_width(bound: int) -> int:
    """Smallest multiple of 8 that is at least bound.bit_length() + 2, so 2**(W-2) > bound."""
    return -(-(bound.bit_length() + 2) // 8) * 8


def _checked_width(bound: int) -> int:
    """_slot_width(bound), after checking that it is a multiple of 8 with 2**(W-2) > bound.

    The check is a raise, not an assert, so it survives python -O.
    """
    width = _slot_width(bound)
    if width < 8 or width % 8 or bound >> (width - 2):
        raise OverflowError(f"slot width {width} does not bound {bound} below 2**(W-2)")
    return width


def _balanced_digits(r: int, width: int, count: int) -> tuple[int, ...]:
    """Balanced base-2**width digits of r, lowest first, at most count of them.

    The digits d_j satisfy r = sum(d_j * 2**(width*j)) and
    -2**(width-1) <= d_j < 2**(width-1); width is a multiple of 8.  They are
    unique, so an integer polynomial whose coefficients are below 2**(width-1)
    in magnitude is the digits of its value at 2**width.  Only the k lowest
    are returned, k the fewest with width*k >= r.bit_length() + 2 (at most
    count), since k balanced digits hold every |r| < 2**(width*k - 2); the
    digits above are zero.  A single digit is r itself.  For more, adding
    2**(width-1) to every digit makes them the plain base-2**width digits of
    one non-negative int, so one to_bytes call splits them, in time linear
    in the size of r.  Raises OverflowError, from to_bytes, if r needs more
    than count digits.
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


def constant_root_product(m: int, exponents: Iterable[int], phi_m: IntPolynomial) -> tuple[int, ...] | None:
    """X-coefficients of the product of (X - Y**d) over exponents mod phi_m(Y), if all are integers.

    phi_m must be cyclotomic_poly(m).  Returns the coefficients lowest first
    when every one reduces to a constant mod Phi_m(Y), and None otherwise.

    Newton's identities.  Let A = Z[Y]/Phi_m(Y), n the number of exponents,
    y_d = Y**d in A and P_i = sum of y_d**i the power sums.  The product is
    sum over k of c_k X**(n-k), and in any commutative ring
    k c_k = -(c_(k-1) P_1 + c_(k-2) P_2 + ... + c_0 P_k), with c_0 = 1.  A
    is a free Z-module with 1 in its basis.  So if P_1, ..., P_n are
    integers, induction on k makes k c_k an integer and c_k in A, hence c_k
    is the integer (k c_k) / k; an inexact division can only be an
    arithmetic error, and raises NotDivisible.  Conversely, if every c_k is
    an integer, the same identities solved for P_k make every P_k one.  So
    the product has constant coefficients iff P_1, ..., P_n are constants,
    and these are read off with no polynomial product.

    Power sums.  P_i is the histogram of the multiset {i*d mod m} (Y**m = 1
    in A, since Phi_m divides Y**m - 1), packed at Y = 2**W into one int
    of m slots.  Only the first i of each value of gcd(i, m) is reduced,
    whatever the exponents are.  For a unit u mod m, Y -> Y**u is a ring
    automorphism of A that fixes the integers and maps P_i to P_(u*i), and
    every j with gcd(j, m) = gcd(i, m) is u*i mod m for some unit u.  So
    once P_i is a constant, every such P_j is the same constant; if P_i is
    not, the check has already stopped.  For n < m that is at most d(m) - 1
    remainders.

    Reduction.  Let R = P_i mod Phi_m(Y), of degree < phi, and
    F = Phi_m(2**W), so R(2**W) == P_i(2**W) (mod F).  Every Y**k with k < m
    reduces to a polynomial whose coefficients are at most t >= 1 in
    magnitude, t taken over one pass of the table Y**k mod Phi_m, and the
    counts of a histogram add up to n, so every coefficient of R is at most
    n * t.  W is a multiple of 8, at least 8, with 2**(W-2) > n * t.  Then
    |R(2**W)| < 2**(W-2) * (2**(W*phi) - 1) / (2**W - 1) < 2/7 * 2**(W*phi).
    From the product over divisors, F = 2**(W*phi) times factors
    (1 - 2**(-W*e))**(+-1), whose product is at least
    prod over k >= 1 of (1 - 2**(-W*k)) > 1 - 1/(2**W - 1), so F is above
    5/7 * 2**(W*phi).  So |R(2**W)| < F/2: R(2**W) is the remainder of
    P_i(2**W) mod F taken in the balanced range, one integer remainder.
    Its balanced base-2**W digits are R's coefficients, so R is a constant
    iff that remainder is a single balanced digit, in [-2**(W-1), 2**(W-1)).

    Cost: one pass of (m - phi) * phi int operations for t, one packed
    histogram of n exponents and one remainder per value of gcd(i, m), and
    about n**2 / 2 integer multiply-adds for the recurrence.
    """
    low0, *low = [-c for c in phi_m.coeffs[:-1]]  # Y**phi == low0 + low[0]*Y + ... (mod Phi_m)
    t = 1  # Y**k for k < phi is its own remainder
    reduced = [low0, *low]
    for _ in range(phi_m.degree, m):
        t = max(t, max(reduced), -min(reduced))
        top = reduced.pop()  # Y * reduced is top * Y**phi plus the rest shifted up
        if top:
            reduced = [top * low0, *[r + top * c for r, c in zip(reduced, low)]]
        else:
            reduced.insert(0, 0)
    exponents = list(exponents)
    n = len(exponents)
    width = _checked_width(n * t)
    f = _packed_phi(m, width)
    half = 1 << (width - 1)

    constants: dict[int, int] = {}  # gcd(i, m) -> P_i, a constant
    sums: list[int] = []  # P_i, ..., P_1
    coeffs = [1]  # coeffs[k] multiplies X**(n-k)
    for i in range(1, n + 1):
        g = gcd(i, m)
        p = constants.get(g)
        if p is None:
            p = sum([1 << width * (i * d % m) for d in exponents]) % f
            if 2 * p > f:
                p -= f
            if not -half <= p < half:
                return None
            constants[g] = p
        sums.insert(0, p)
        c, leftover = divmod(-sum(map(mul, coeffs, sums)), i)
        if leftover:
            raise NotDivisible(f"Newton's identity at k = {i} leaves {leftover} mod {i} (m = {m})")
        coeffs.append(c)
    return tuple(reversed(coeffs))


def verify_lemma(m: int, phi_m: IntPolynomial | None = None) -> bool:
    """Check that the product of (X - Y**d) over units d mod m is Phi_m(X) mod Phi_m(Y).

    phi_m, when given, must be cyclotomic_poly(m); a caller that already
    holds it passes it, so that it is built once.  Returns whether
    constant_root_product() finds every X-coefficient an integer and these
    integers are the coefficients of Phi_m.  Intended for m >= 2.
    """
    if phi_m is None:
        phi_m = cyclotomic_poly(m)
    units = [d for d in range(1, m + 1) if gcd(d, m) == 1]
    return constant_root_product(m, units, phi_m) == phi_m.coeffs
