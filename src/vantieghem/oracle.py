"""Slow, independent ground truth used only for cross-validation.

These routines deliberately share no code with the fast paths elsewhere in
the package: primality is plain trial division or a sieve of Eratosthenes,
and the product criterion is evaluated as one exact integer with a single
reduction at the very end.  Agreement with the fast paths is therefore
meaningful evidence.
"""

from math import isqrt

from .errors import DomainError

# The full integer product has roughly p**2 * log2(b) / 2 bits.
BRUTEFORCE_EXPONENT_CAP = 64


def is_prime_trial(n: int) -> bool:
    """Deterministic primality by trial division up to sqrt(n)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


def prime_table(limit: int) -> bytearray:
    """Sieve of Eratosthenes: table[n] == 1 exactly when n is prime, for 0 <= n <= limit."""
    if limit < 0:
        raise DomainError(f"sieve limit must be >= 0, got {limit}")
    table = bytearray([1]) * (limit + 1)
    table[:2] = bytes(len(table[:2]))
    for n in range(2, isqrt(limit) + 1):
        if table[n]:
            table[n * n :: n] = bytes(len(range(n * n, limit + 1, n)))
    return table


def product_bruteforce(b: int, p: int) -> int:
    """(b + 1)(b**2 + 1)...(b**(p-1) + 1) mod (b**p - 1)/(b - 1).

    The product is accumulated as one exact integer, with no intermediate
    reduction, and reduced once at the end.
    """
    if b < 2:
        raise DomainError(f"base must be >= 2, got {b}")
    if p < 3 or p % 2 == 0:
        raise DomainError(f"exponent must be odd and >= 3, got {p}")
    if p > BRUTEFORCE_EXPONENT_CAP:
        raise DomainError(
            f"exponent {p} exceeds the brute-force cap {BRUTEFORCE_EXPONENT_CAP}"
        )
    total = 1
    power = 1
    for _ in range(1, p):
        power *= b
        total *= power + 1
    return total % ((b**p - 1) // (b - 1))

