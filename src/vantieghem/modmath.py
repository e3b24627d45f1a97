"""Exact arithmetic around the repunit modulus M = (b**p - 1)/(b - 1).

All values are plain Python ints, so every operation is arbitrary-precision
and exact.  The one performance trick lives here: reduction mod the Mersenne
number 2**p - 1 folds p-bit chunks instead of dividing, since 2**p == 1
(mod 2**p - 1).  Exponents of b are always reduced mod p before powering,
which is valid because b**p == 1 (mod M).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, NotDivisible
from .oracle import is_prime_trial


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


def _distinct_prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def mult_order(g: int, p: int) -> int:
    """The least r >= 1 with g**r == 1 (mod p), for prime p not dividing g.

    p - 1 is factored by trial division; each prime factor is stripped from
    the exponent while the power stays 1.  The result divides p - 1.
    """
    if not is_prime_trial(p):
        raise DomainError(f"{p} is not prime")
    if g % p == 0:
        raise DomainError(f"{g} is divisible by {p}")
    r = p - 1
    for q in _distinct_prime_factors(p - 1):
        while r % q == 0 and pow(g, r // q, p) == 1:
            r //= q
    return r
