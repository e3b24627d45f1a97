"""The converse of the criterion and the paper's theorem, as exact checks.

Lemma A.  For odd p, d | p and d > 1, the residue N(b) of
(b+1)(b^2+1)...(b^(p-1)+1) mod M = (b^p - 1)/(b - 1) is 2^(p/d - 1) mod
Phi_d(b).  In Z[Y]/Phi_d(Y), Y^d = 1, so the factors 1 + Y^k, k = 0..p-1,
run over each class mod d exactly p/d times, k = 0 gives 2, and
prod_(j=1..d-1) (1 + Y^j) = prod_(e|d, e>1) Phi_e(-1) = 1.

The theorem.  Let p be odd composite, q its least prime factor and n = p/q.
Residue 1 mod M would give Phi_n(b) | 2^(q-1) - 1 by Lemma A at d = n; the
size of Phi_n(b) >= Phi_n(2) rules that out, which the certificate below
checks exactly at b = 2 (README has the proof for every b).

The paper's theorem: n >= 2 is prime iff
prod_(k=1..n-1) (1 - 2^k) == n (mod 2^n - 1).

Phi_d(b) is computed here, from the Moebius product at b with one exact
division, not by the package.
"""

from vantieghem.criterion import product_closed
from vantieghem.modmath import build_modulus

LEMMA_A_BASES = (2, 3, 4, 5, 7, 10, 12, 13, 50, 1000)


def prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, ascending, by trial division."""
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return out + [n] if n > 1 else out


def cyclotomic_value(d: int, b: int) -> int:
    """Phi_d(b) = prod over e | d of (b^e - 1)^mu(d/e), for b >= 2: one exact division."""
    terms = [(d, 1)]
    for q in prime_factors(d):
        terms += [(e // q, -mu) for e, mu in terms]
    num = den = 1
    for e, mu in terms:
        if mu > 0:
            num *= b**e - 1
        else:
            den *= b**e - 1
    value, rem = divmod(num, den)
    assert rem == 0, (d, b)
    return value


def test_cyclotomic_value_small_cases():
    assert [cyclotomic_value(d, 2) for d in (1, 2, 3, 4, 5, 6, 9, 15)] == [1, 3, 7, 5, 31, 3, 73, 151]
    for m, b in [(105, 2), (60, 3), (81, 10)]:
        product = 1
        for d in range(1, m + 1):
            if m % d == 0:
                product *= cyclotomic_value(d, b)
        assert product == b**m - 1, (m, b)


def test_lemma_a_residue_mod_each_cyclotomic_factor():
    # Every odd p < 400, prime or composite, and every divisor d > 1; at a
    # prime p and d = p it reads residue 1, the forward direction.
    checked = 0
    for p in range(3, 400, 2):
        divisors = [d for d in range(3, p + 1, 2) if p % d == 0]
        for b in LEMMA_A_BASES:
            residue = product_closed(build_modulus(b, p))
            for d in divisors:
                phi_d = cyclotomic_value(d, b)
                assert residue % phi_d == pow(2, p // d - 1, phi_d), (p, b, d)
                checked += 1
    assert checked == 5540


def test_converse_certificate_at_base_two(prime_flags):
    # Phi_(p/q)(2) does not divide 2^(q-1) - 1, so no odd composite p gives
    # residue 1 at b = 2.
    checked = 0
    for p in range(9, 20002, 2):
        if prime_flags[p]:
            continue
        q = prime_factors(p)[0]
        assert (2 ** (q - 1) - 1) % cyclotomic_value(p // q, 2), p
        checked += 1
    assert checked == 7739


def test_papers_theorem_for_n_up_to_500(prime_flags):
    for n in range(2, 501):
        modulus = 2**n - 1
        signed = unsigned = 1
        for k in range(1, n):
            signed = signed * (1 - 2**k) % modulus
            unsigned = unsigned * (2**k - 1) % modulus
        assert (signed == n) == bool(prime_flags[n]), n
        # The two forms differ by the sign (-1)^(n-1), so they agree at odd n.
        if n % 2:
            assert signed == unsigned, n
        # The unsigned form fails at the prime 2: the product is 1, not 2 mod 3.
        if n == 2:
            assert unsigned == 1
