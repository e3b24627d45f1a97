"""Exact arithmetic around the repunit modulus M = (b**p - 1)/(b - 1).

All values are plain Python ints, so every operation is arbitrary-precision
and exact.  The one performance trick lives here: reduction mod the Mersenne
number 2**p - 1 folds p-bit chunks instead of dividing, since 2**p == 1
(mod 2**p - 1).  Exponents of b are always reduced mod p before powering,
which is valid because b**p == 1 (mod M).  Factoring and primality for the
fast paths are plain trial division here (factorize), kept apart from the
oracle they are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, NotDivisible

# floor(log10(2) * 10**38).  Integer fixed point, not a float: a float
# product (bits - 1) * log10(2) already floors wrongly at 146964308 bits.
LOG10_2_E38 = 30102999566398119521373889472449302676


def exact_div(num: int, den: int) -> int:
    """num / den when the division is exact; raises NotDivisible otherwise.

    den must be >= 1.
    """
    q, r = divmod(num, den)
    if r:
        raise NotDivisible(f"{den} does not divide {num}")
    return q


def fold_reduce_pow2(x: int, p: int) -> int:
    """x mod (2**p - 1) without division, for x >= 0 and p >= 2.

    Splits x into p-bit chunks and sums them (2**p == 1 mod 2**p - 1),
    repeating until one chunk remains, then subtracts the modulus once if
    the result equals it.  Bit-for-bit equal to the generic remainder.
    """
    mask = (1 << p) - 1
    while x > mask:
        x = (x & mask) + (x >> p)
    return 0 if x == mask else x


@dataclass(frozen=True)
class RepunitModulus:
    """The modulus M = (b**p - 1)/(b - 1) with its parameters precomputed.

    For b = 2, M is the Mersenne number 2**p - 1 and reduction uses bit
    folding.  M * (b - 1) = B = b**p - 1 exactly, so b**p == 1 (mod M).
    Instances are immutable; build them with build_modulus().
    """

    b: int
    p: int
    M: int
    B: int

    def reduce(self, x: int) -> int:
        """x mod M.  Folds by B = 2**p - 1 when b = 2 (there M = B)."""
        if self.b == 2:
            return fold_reduce_pow2(x, self.p)
        return x % self.M

    def pow_b_mod(self, n: int) -> int:
        """b**n mod M, computed as b**(n mod p) since b**p == 1 (mod M)."""
        return pow(self.b, n % self.p, self.M)


def build_modulus(b: int, p: int) -> RepunitModulus:
    """Construct the repunit modulus for base b >= 2 and odd exponent p >= 3.

    exact_div raises NotDivisible if M * (b - 1) = b**p - 1 does not hold.
    """
    if b < 2:
        raise DomainError(f"base must be >= 2, got {b}")
    if p < 3 or p % 2 == 0:
        raise DomainError(f"exponent must be odd and >= 3, got {p}")
    B = b**p - 1
    M = exact_div(B, b - 1)
    return RepunitModulus(b=b, p=p, M=M, B=B)


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The prime factorization of n >= 1 as (prime, exponent) pairs, primes ascending.

    Plain trial division by 2 and then by odd d up to sqrt of what is left;
    factorize(1) is empty.
    """
    if n < 1:
        raise DomainError(f"can only factorize n >= 1, got {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            out.append((d, k))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def is_prime(n: int) -> bool:
    """Whether n is prime, from its factorization (False below 2)."""
    return n >= 2 and factorize(n) == ((n, 1),)


def decimal_digits(n: int) -> int:
    """len(str(n)) for n >= 1, without the quadratic decimal conversion.

    n has either k or k + 1 digits, where k = floor((bits - 1) * log10(2)) + 1
    is the digit count of 2**(bits - 1) <= n; one comparison with 10**k
    decides.
    """
    if n < 1:
        raise DomainError(f"expected a positive integer, got {n}")
    k = (n.bit_length() - 1) * LOG10_2_E38 // 10**38 + 1
    return k + (n >= 10**k)


def mult_order(g: int, p: int) -> int:
    """The least r >= 1 with g**r == 1 (mod p), for prime p not dividing g.

    p - 1 is factored by trial division; each prime factor is stripped from
    the exponent while the power stays 1.  The result divides p - 1.
    """
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if g % p == 0:
        raise DomainError(f"{g} is divisible by {p}")
    r = p - 1
    for q, _ in factorize(p - 1):
        while r % q == 0 and pow(g, r // q, p) == 1:
            r //= q
    return r
