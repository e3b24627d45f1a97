"""Exact arithmetic around the repunit modulus M = (b**p - 1)/(b - 1).

All values are plain Python ints, so every operation is arbitrary-precision
and exact.  The product paths' performance trick lives here.  For a
power-of-two base b = 2**k, RepunitModulus computes in Z/B with
B = b**p - 1 = 2**(kp) - 1, a multiple of M, where multiplying by a factor
b**n + 1 is a rotation of kp bits plus an add: about 1 us per factor at
kp = 4441 against about 18 us for a multiply and a reduction, so the
b = 2, p = 4441 naive product takes about 7 ms instead of about 45 ms
(2-core host, CPython 3.11).  Such products are reduced mod M once per
returned value.  Other bases multiply and take the remainder mod M at each
step.  Every reduction is the plain remainder x % M; fold_reduce_pow2, which
reduces mod 2**p - 1 by folding p-bit chunks instead of dividing, is kept
for the bench command's comparison of the two.  Exponents of b are always
reduced mod p before powering, which is valid because b**p == 1 (mod M).
Factoring and primality for the fast paths are plain trial division here
(factorize), kept apart from the oracle they are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    M * (b - 1) = B = b**p - 1 exactly, so b**p == 1 (mod M).  Besides
    reduce(), the type is the ring the product paths compute in: power,
    times_b, square and times_factor build the factors b**n + 1 and multiply
    by them, and residue turns the result into a value mod M.  When b = 2**k
    those work in Z/B (M divides B) with b**n held as its exponent n mod p,
    so multiplying by b**n + 1 is a rotation of the kp-bit value by kn bits
    plus one add; for other b they multiply and reduce mod M.  Instances are
    immutable; build them with build_modulus().
    """

    b: int
    p: int
    M: int
    B: int
    # log2(b) when b is a power of two (the rotation kernel), else 0.
    log2_b: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "log2_b", self.b.bit_length() - 1 if self.b & (self.b - 1) == 0 else 0)

    def reduce(self, x: int) -> int:
        """x mod M."""
        return x % self.M

    def power(self, n: int) -> int:
        """The ring's form of b**n: the exponent n mod p when b = 2**k, else b**n mod M."""
        return n % self.p if self.log2_b else pow(self.b, n % self.p, self.M)

    def times_b(self, y: int) -> int:
        """power(n + 1), given y = power(n)."""
        if self.log2_b:
            return y + 1 if y + 1 < self.p else 0
        return self.reduce(y * self.b)

    def square(self, y: int) -> int:
        """power(2n), given y = power(n)."""
        if self.log2_b:
            return 2 * y % self.p
        return self.reduce(y * y)

    def times_factor(self, x: int, y: int) -> int:
        """x * (b**n + 1) in the ring, given y = power(n) and x = 1 or a ring value.

        For b = 2**k this is x * 2**(kn) + x mod B: x rotated left by kn of
        its kp bits, plus x, less B at most once.  Values stay in [0, B],
        where B stands for 0.
        """
        if self.log2_b:
            n, s = self.log2_b * self.p, self.log2_b * y
            x += (x << s) & self.B | x >> (n - s)
            return x - self.B if x > self.B else x
        return self.reduce(x * (y + 1))

    def residue(self, x: int) -> int:
        """x mod M, for x a value of times_factor (already reduced unless b = 2**k)."""
        return self.reduce(x) if self.log2_b else x


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
