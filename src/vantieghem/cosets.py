"""Partition of {1, ..., p-1} into cosets of the subgroup generated by 2.

For an odd prime p, let r be the multiplicative order of 2 mod p.  The set
{1, ..., p-1} splits into k = (p-1)/r cosets {a*2**0, a*2**1, ...,
a*2**(r-1)} reduced mod p, where each representative a is the smallest
number not covered by the earlier cosets.  The first coset is the subgroup
itself; when 2 is a primitive root (r = p-1) there is a single coset.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import DomainError
from .modmath import is_prime, mult_order


@dataclass(frozen=True)
class CosetDecomposition:
    """Cosets of <2> in the multiplicative group mod p, in exponent order.

    Element m of coset i equals reps[i] * 2**m mod p; elements are stored in
    that order (m = 0..r-1), not sorted numerically.  k * r = p - 1, reps is
    strictly increasing and starts at 1.  Construction does not validate;
    verify_partition() re-checks every claim independently.
    """

    p: int
    r: int
    k: int
    reps: tuple[int, ...]
    cosets: tuple[tuple[int, ...], ...]

    def element(self, i: int, m: int) -> int:
        """reps[i] * 2**m mod p, recomputed from scratch."""
        return self.reps[i] * pow(2, m, self.p) % self.p

    def to_table(self) -> str:
        """One coset per line: 'A_1 = {1, 2, 4, ...}'."""
        lines = []
        for i, coset in enumerate(self.cosets, start=1):
            elems = ", ".join(str(e) for e in coset)
            lines.append(f"A_{i} = {{{elems}}}")
        return "\n".join(lines)

    def to_record(self) -> dict:
        """JSON-ready record; all integers are decimal strings."""
        return {
            "p": str(self.p),
            "r": str(self.r),
            "k": str(self.k),
            "reps": [str(a) for a in self.reps],
            "cosets": [[str(e) for e in coset] for coset in self.cosets],
        }


@dataclass(frozen=True)
class VerificationReport:
    """Pass/fail for each independent partition check."""

    within_coset_distinct: bool
    cross_coset_disjoint: bool
    union_complete: bool
    sizes_match: bool
    representatives_minimal: bool

    @property
    def all_passed(self) -> bool:
        return all(self.checks().values())

    def checks(self) -> dict[str, bool]:
        return {
            "within_coset_distinct": self.within_coset_distinct,
            "cross_coset_disjoint": self.cross_coset_disjoint,
            "union_complete": self.union_complete,
            "sizes_match": self.sizes_match,
            "representatives_minimal": self.representatives_minimal,
        }

    def failures(self) -> tuple[str, ...]:
        return tuple(name for name, ok in self.checks().items() if not ok)

    def to_record(self) -> dict:
        record: dict = dict(self.checks())
        record["all_passed"] = self.all_passed
        return record


@functools.lru_cache(maxsize=1)
def decompose(p: int) -> CosetDecomposition:
    """Decompose {1, ..., p-1} into cosets of <2> for an odd prime p.

    Representatives are found by scanning 1, 2, 3, ... against a membership
    bitmap, so each is the smallest number not in any earlier coset.
    Composite p is rejected: the partition argument needs p prime (elements
    of a coset would otherwise collide).

    The last result is kept (it is frozen).  The structured product path
    calls this for every (b, p) it evaluates, and callers ask for one p
    several times in a row (sweep: p outer, bases inner; paper-example: the
    fixture check, then the paths; bench: its repetitions).  One entry is
    enough to compute each decomposition once, and it holds no O(p) tables
    for the primes a long sweep has already passed.
    """
    if p == 2 or not is_prime(p):
        raise DomainError(f"p must be an odd prime, got {p}")
    r = mult_order(2, p)
    two_powers = [1]
    for _ in range(r - 1):
        two_powers.append(two_powers[-1] * 2 % p)
    covered = bytearray(p)
    reps: list[int] = []
    cosets: list[tuple[int, ...]] = []
    a = 1
    while len(reps) * r < p - 1:
        while covered[a]:
            a += 1
        coset = tuple(a * t % p for t in two_powers)
        for e in coset:
            covered[e] = 1
        reps.append(a)
        cosets.append(coset)
    return CosetDecomposition(p=p, r=r, k=len(reps), reps=tuple(reps), cosets=tuple(cosets))


def verify_partition(d: CosetDecomposition) -> VerificationReport:
    """Re-check the partition claims from the stored structure alone.

    Checks: (a) elements within each coset are distinct, (b) cosets are
    pairwise disjoint, (c) their union is exactly {1, ..., p-1}, (d) every
    coset has r elements and there are k of them, (e) each representative is
    the minimum of its coset and the smallest number not covered before it.
    Failures are reported, never raised.
    """
    sizes_match = (
        len(d.cosets) == d.k
        and len(d.reps) == d.k
        and d.k * d.r == d.p - 1
        and all(len(c) == d.r for c in d.cosets)
    )
    within = all(len(set(c)) == len(c) for c in d.cosets)

    disjoint = True
    seen: set[int] = set()
    for c in d.cosets:
        cs = set(c)
        if seen & cs:
            disjoint = False
        seen |= cs
    union = seen == set(range(1, d.p))

    # One pointer to the smallest uncovered number; it only moves forward,
    # so the check is linear in p.
    minimal = len(d.reps) == len(d.cosets)
    covered: set[int] = set()
    smallest = 1
    for rep, c in zip(d.reps, d.cosets):
        while smallest in covered:
            smallest += 1
        if smallest >= d.p or rep != smallest or not c or rep != min(c):
            minimal = False
            break
        covered.update(c)

    return VerificationReport(
        within_coset_distinct=within,
        cross_coset_disjoint=disjoint,
        union_complete=union,
        sizes_match=sizes_match,
        representatives_minimal=minimal,
    )
