"""The product criterion, evaluated by three independent paths.

For p > 2 prime and a base 2 <= b <= p-1,

    (b + 1)(b**2 + 1) ... (b**(p-1) + 1)  ==  1   (mod (b**p - 1)/(b - 1)).

product_naive multiplies the p-1 factors in index order.  product_structured
regroups them by the coset decomposition of {1, ..., p-1} under doubling,
which it derives from p itself with decompose(p): within one coset the
exponents are a, 2a, 4a, ..., so the factors telescope as
(y + 1)(y**2 + 1)(y**4 + 1)... with y = b**a mod M, computed by repeated
squaring; every coset's partial product is itself 1 mod M.  product_closed
evaluates the product as a sum over the divisors of p (a root-of-unity
filter), with no loop over the p-1 factors.  The paths share no loop
structure, so their agreement is a test artifact in its own right.  Every
path is a function of the ring alone, product_<name>(rm) -> int.  For
composite p the naive and closed paths are defined, which is what lets the
sweep probe the converse direction empirically: it takes a composite p's
residue from the closed path alone, and runs naive and structured on every
prime p as each other's differential oracle.

The naive and structured paths do their arithmetic through the ring
operations of RepunitModulus.  For b = 2**k the ring holds b**n as its
exponent n and multiplies by b**n + 1 with a bit rotation and an add, so
the naive path steps the exponent n = 1, 2, ..., p-1 and the structured
path doubles it mod p, walking each coset a, 2a, 4a, ... mod p; at
b = 2, p = 9941 each path takes about 25 ms instead of about 300 ms.  Other
bases multiply and reduce mod M at every step.
"""

from __future__ import annotations

import contextlib
import enum
import marshal
import os
import time
from dataclasses import dataclass
from typing import Callable, NoReturn

from .cosets import decompose
from .errors import DomainError, NotDivisible, PathUnavailable
from .modmath import RepunitModulus, build_modulus, decimal_digits, exact_div, factorize, is_prime
from .oracle import prime_table


class Verdict(enum.Enum):
    # "prime-consistent", not "prime": only the forward direction is proven
    # for general bases; the converse is checked empirically by sweep().
    PRIME_CONSISTENT = "prime-consistent"
    COMPOSITE_INDICATED = "composite-indicated"


class Path(enum.Enum):
    NAIVE = "naive"
    STRUCTURED = "structured"
    BOTH = "both"  # naive and structured, the two differential oracles
    CLOSED = "closed"


def product_naive(rm: RepunitModulus) -> int:
    """The full product mod M, one factor per step.

    b**n is carried from n - 1 by one step of the ring (a multiplication by b
    and a reduction, or for b = 2**k an exponent increment), and each factor
    b**n + 1 is one ring multiplication (multiply and reduce, or for b = 2**k
    a rotation and an add), so intermediates stay below M**2, or for b = 2**k
    within kp bits.  Defined for composite p as well.
    """
    acc = 1
    y = rm.power(0)
    for _ in range(1, rm.p):
        y = rm.times_b(y)
        acc = rm.times_factor(acc, y)
    return rm.residue(acc)


def coset_partial_products(rm: RepunitModulus) -> tuple[int, ...]:
    """The per-coset products, each mod M; for prime p each one equals 1.

    The cosets are d = decompose(rm.p), so rm.p must be an odd prime
    (decompose raises DomainError otherwise).  Coset i contributes
    (y + 1)(y**2 + 1)...(y**(2**(r-1)) + 1) with y = b**a_i: r - 1
    squarings and r ring multiplications.  For b = 2**k a squaring doubles
    the exponent mod p, so the exponents walked are the coset's elements
    a_i * 2**j mod p, in the order of d.cosets.
    """
    d = decompose(rm.p)
    partials = []
    for a in d.reps:
        y = rm.power(a)
        partial = rm.times_factor(1, y)
        for _ in range(d.r - 1):
            y = rm.square(y)
            partial = rm.times_factor(partial, y)
        partials.append(rm.residue(partial))
    return tuple(partials)


def product_structured(rm: RepunitModulus) -> int:
    """The same product as product_naive, regrouped coset by coset.

    Requires prime p, since the cosets are decompose(rm.p).  Equal to
    product_naive because the cosets partition {1, ..., p-1}.
    """
    acc = 1
    for partial in coset_partial_products(rm):
        acc = rm.reduce(acc * partial)
    return acc


def product_closed(rm: RepunitModulus) -> int:
    """The same product as product_naive, from a closed form over the divisors of p.

    Mod X**p - 1 the product of (1 + X**n), n = 1..p-1, is sum_k N_k X**k,
    where N_k counts the subsets of {1, ..., p-1} whose sum is k mod p; since
    b**p == 1 (mod M), the residue is N(b) = sum_k N_k b**k mod M.  A
    root-of-unity filter (Ramanujan sums; prod_(j<d) (1 + w**j) = 2 for odd d)
    gives

        p * N(b) = sum_(d|p) 2**(p/d - 1) * sum_(e|d) mu(d/e) * e * (b**p - 1)/(b**e - 1).

    Divisors and Moebius values come from one factorization of p, so this
    takes O(d(p)**2) big-int operations.  The d = 1 term is 2**(p-1) * M;
    writing 2**(p-1) = u + p*v, it adds v*M == 0 (mod M) to N(b), so the
    small u = 2**(p-1) mod p stands in for the power.  For prime p the sum
    is then u*M + p - M with u = 1 (Fermat), which is p: the residue is 1.
    Defined for composite p as well.  exact_div raises NotDivisible should p
    not divide the sum.
    """
    b, p = rm.b, rm.p
    divisors = [1]
    squarefree = [(1, 1)]  # (s, mu(s)) for every squarefree divisor s of p
    for q, k in factorize(p):
        divisors = [x * q**i for x in divisors for i in range(k + 1)]
        squarefree += [(s * q, -mu) for s, mu in squarefree]
    quotient = {e: exact_div(rm.B, b**e - 1) for e in divisors if e < p}
    quotient[p] = 1  # B / B, without recomputing b**p
    total = pow(2, p - 1, p) * rm.M
    for d in divisors[1:]:  # divisors[0] = 1 is the u*M above
        ramanujan = sum(mu * (d // s) * quotient[d // s] for s, mu in squarefree if d % s == 0)
        total += ramanujan << (p // d - 1)
    return exact_div(total, p) % rm.M


def telescope_check(x: int, r: int) -> bool:
    """(x + 1)(x**2 + 1)...(x**(2**(r-1)) + 1) == (x**(2**r) - 1)/(x - 1).

    Both sides are evaluated as exact integers, for x >= 2 and r >= 1; the
    identity always holds (repeated difference of squares).  This exists as
    a property-test oracle for the telescoping step; the modular paths never
    divide.
    """
    lhs = 1
    power = x
    for _ in range(r):
        lhs *= power + 1
        power *= power
    return lhs == exact_div(power - 1, x - 1)


def evaluate(rm: RepunitModulus, path: Path) -> tuple[dict[str, int], dict[str, float]]:
    """Run the requested path(s) on rm: each path's residue mod M and wall time in ms.

    Both dicts are keyed by path name ("naive", "structured", "closed"),
    naive first.  The structured path needs prime rm.p.  The table from Path
    to product function is built from the module globals at call time, so a
    wrapper installed on this module sees every evaluation.  A NotDivisible
    from a path is re-raised naming b, p and the path.
    """
    products = {
        Path.NAIVE: product_naive,
        Path.STRUCTURED: product_structured,
        Path.CLOSED: product_closed,
    }
    runs = (Path.NAIVE, Path.STRUCTURED) if path is Path.BOTH else (path,)
    residues: dict[str, int] = {}
    elapsed: dict[str, float] = {}
    for single in runs:
        t0 = time.perf_counter()
        try:
            residue = products[single](rm)
        except NotDivisible as exc:
            raise NotDivisible(f"{single.value} path at b={rm.b}, p={rm.p}: {exc}") from exc
        residues[single.value] = residue
        elapsed[single.value] = (time.perf_counter() - t0) * 1000.0
    return residues, elapsed


@dataclass(frozen=True)
class TestReport:
    """Outcome of one (b, p) trial.

    residues and elapsed map each evaluated path name to its residue (< M)
    and its wall time in milliseconds.  residue, verdict and paths_agree are
    derived from residues, so they cannot disagree with it.
    """

    b: int
    p: int
    modulus_digits: int
    path: Path
    residues: dict[str, int]
    elapsed: dict[str, float]

    @property
    def residue(self) -> int:
        """The naive residue when the naive path ran, else the structured one, else the closed one."""
        r = self.residues
        return r.get("naive", r.get("structured", r.get("closed")))

    @property
    def verdict(self) -> Verdict:
        """PRIME_CONSISTENT exactly when residue == 1."""
        return Verdict.PRIME_CONSISTENT if self.residue == 1 else Verdict.COMPOSITE_INDICATED

    @property
    def paths_agree(self) -> bool | None:
        """Whether both paths gave the same residue; None unless both ran."""
        if len(self.residues) < 2:
            return None
        return len(set(self.residues.values())) == 1

    def to_record(self) -> dict:
        """JSON-ready record; all integers are decimal strings."""
        return {
            "b": str(self.b),
            "p": str(self.p),
            "modulus_digits": str(self.modulus_digits),
            "residue": str(self.residue),
            "verdict": self.verdict.value,
            "path": self.path.value,
            "paths_agree": self.paths_agree,
            "elapsed": dict(self.elapsed),
        }


def run_test(
    b: int,
    p: int,
    path: Path = Path.CLOSED,
    *,
    allow_large_base: bool = False,
) -> TestReport:
    """Evaluate the criterion for (b, p) along the requested path(s).

    The criterion is stated for 2 <= b <= p-1; larger bases are refused
    unless allow_large_base is set (the congruence b**p == 1 mod M holds
    regardless, but results outside the stated range are the caller's
    interpretation).  The structured path needs prime p, and is refused
    for composite p before any path runs; it builds the coset decomposition
    of p itself.
    """
    rm = build_modulus(b, p)
    if b > p - 1 and not allow_large_base:
        raise DomainError(
            f"base {b} exceeds p-1 = {p - 1}; pass allow_large_base (--allow-large-base) to run anyway"
        )
    if path in (Path.STRUCTURED, Path.BOTH) and not is_prime(p):
        raise PathUnavailable(f"structured path requires an odd prime p, got composite {p}")
    residues, elapsed = evaluate(rm, path)
    return TestReport(
        b=b,
        p=p,
        modulus_digits=decimal_digits(rm.M),
        path=path,
        residues=residues,
        elapsed=elapsed,
    )


@dataclass(frozen=True)
class SweepEntry:
    """One (p, b) row: ground-truth primality vs the criterion's verdict."""

    p: int
    b: int
    prime: bool
    residue_one: bool
    paths_agree: bool | None

    @property
    def verdict_matches(self) -> bool:
        return self.prime == self.residue_one

    def to_record(self) -> dict:
        return {
            "p": str(self.p),
            "b": str(self.b),
            "prime": self.prime,
            "residue_one": self.residue_one,
            "paths_agree": self.paths_agree,
        }


@dataclass(frozen=True)
class SweepReport:
    """Tabulated verdicts for every odd p in range and every base.

    Entries are in (p, b) order.  A mismatch (verdict disagrees with the
    sieve's primality) is a hard failure when p is prime, when b = 2, or
    when the naive and structured paths of a prime p disagree; a composite
    giving residue 1 with b > 2, by the closed path, is listed as an anomaly
    only, since the converse is not established for such bases.
    """

    p_min: int
    p_max: int
    bases: tuple[int, ...]
    entries: tuple[SweepEntry, ...]

    def mismatches(self) -> tuple[SweepEntry, ...]:
        return tuple(e for e in self.entries if not e.verdict_matches)

    def failures(self) -> tuple[SweepEntry, ...]:
        """Mismatches that falsify something this package relies on."""
        out = []
        for e in self.entries:
            if e.paths_agree is False:
                out.append(e)
            elif not e.verdict_matches and (e.prime or e.b == 2):
                out.append(e)
        return tuple(out)

    def anomalies(self) -> tuple[SweepEntry, ...]:
        """Composite p with residue 1 for a base > 2 (informational)."""
        return tuple(
            e for e in self.entries if not e.prime and e.residue_one and e.b != 2
        )

    @property
    def agreement_count(self) -> int:
        return sum(1 for e in self.entries if e.verdict_matches)

    def to_record(self) -> dict:
        return {
            "p_min": str(self.p_min),
            "p_max": str(self.p_max),
            "bases": [str(b) for b in self.bases],
            "total": str(len(self.entries)),
            "agreements": str(self.agreement_count),
            "disagreements": str(len(self.mismatches())),
            "failures": [e.to_record() for e in self.failures()],
            "anomalies": [e.to_record() for e in self.anomalies()],
            "entries": [e.to_record() for e in self.entries],
        }


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    has one, else os.cpu_count(), and at least 1."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _sweep_rows(
    ps: list[int], bases: tuple[int, ...], primes: bytearray, allow_large_base: bool
) -> list[tuple]:
    """One share of a sweep, serially: (p, b, prime, residue_one, paths_agree) per pair, p outer."""
    rows = []
    for p in ps:
        prime = bool(primes[p])
        path, key = (Path.BOTH, "naive") if prime else (Path.CLOSED, "closed")
        for b in bases:
            if b > p - 1 and not allow_large_base:
                continue
            residues, _ = evaluate(build_modulus(b, p), path)
            residue = residues[key]
            agree = residues["structured"] == residue if prime else None
            rows.append((p, b, prime, residue == 1, agree))
    return rows


def _deal(ps: range, jobs: int) -> list[list[int]]:
    """ps split into jobs shares, each ascending.

    p is dealt largest first and snake-wise (shares 0, 1, ..., jobs-1, then
    jobs-1, ..., 0, ...), so the shares' costs, quadratic in p, balance
    without a cost model.
    """
    shares: list[list[int]] = [[] for _ in range(jobs)]
    for i, p in enumerate(reversed(ps)):
        k = i % jobs
        shares[k if i // jobs % 2 == 0 else jobs - 1 - k].append(p)
    return [share[::-1] for share in shares]


# Exceptions that a forked share sends back and the parent raises as themselves;
# any other one is raised as a RuntimeError naming its type.
_FORWARDED = {cls.__name__: cls for cls in (DomainError, NotDivisible, KeyboardInterrupt)}


def _share_in_child(
    run: Callable[[list[int]], list], share: list[int], r: int, w: int, mask: set
) -> NoReturn:
    """The forked child's side: restore the signal mask, run the share and
    send (None, rows), or the exception's (type name, message),
    marshal-encoded down w.

    The child always leaves by os._exit, so it never returns into the
    caller's stack and never flushes stdio buffers it inherited.
    """
    status = 1
    try:
        os.close(r)
        try:
            import signal

            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            message = (None, run(share))
        except (Exception, KeyboardInterrupt) as exc:
            message = (type(exc).__name__, str(exc))
        data = memoryview(marshal.dumps(message))
        while data:
            data = data[os.write(w, data):]
        status = 0
    finally:
        os._exit(status)


@contextlib.contextmanager
def _signals_held():
    """Hold back every signal for the block and yield the mask it replaced.

    A signal that comes in meanwhile is handled when the block ends, so a
    KeyboardInterrupt cannot land between a fork, or a reap, and its
    bookkeeping.  The old mask is read before anything is blocked, so an
    interrupt raised on the way in still restores it.
    """
    import signal  # here, not at the top: a sweep that never forks never pays for it

    held = signal.pthread_sigmask(signal.SIG_BLOCK, ())
    try:
        signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
        yield held
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, held)


def _share_result(pid: int, data: bytes, status: int) -> list:
    """The rows a child sent, or the exception it sent raised here."""
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not data:
        raise RuntimeError(f"sweep worker {pid} exited with status {code} before sending its entries")
    name, payload = marshal.loads(data)
    if name is None:
        return payload
    if name in _FORWARDED:
        raise _FORWARDED[name](payload)
    raise RuntimeError(f"{name} in sweep worker {pid}: {payload}")


def _run_shares(run: Callable[[list[int]], list], shares: list[list[int]]) -> list:
    """run(share) for every share, concatenated in share order.

    shares[0] runs in this process; each other share runs in one os.fork()
    child with its own pipe, so one share forks nothing.  Signals are held
    from each fork until its child is recorded, and from each reap until it
    is recorded, so whatever this process raises while the shares run,
    every child is killed if still running, and reaped, before the
    exception leaves.  (A second interrupt during that cleanup is not
    covered.)
    """
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    reaped: set[int] = set()
    try:
        for share in shares[1:]:
            with _signals_held() as held:
                r, w = os.pipe()
                try:
                    pid = os.fork()
                except BaseException:
                    os.close(r)
                    os.close(w)
                    raise
                if pid == 0:
                    _share_in_child(run, share, r, w, held)
                children.append((pid, r))
                os.close(w)
        rows = run(shares[0])
        for pid, r in children:
            chunks = []
            while chunk := os.read(r, 1 << 16):
                chunks.append(chunk)
            with _signals_held():  # at EOF the child is leaving, so this wait is short
                _, status = os.waitpid(pid, 0)
                reaped.add(pid)
            rows += _share_result(pid, b"".join(chunks), status)
        return rows
    finally:
        for pid, r in children:
            os.close(r)
            if pid not in reaped:
                import signal

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def sweep(
    p_min: int,
    p_max: int,
    bases: list[int] | tuple[int, ...],
    *,
    allow_large_base: bool = False,
    jobs: int = 1,
) -> SweepReport:
    """Run the criterion for every odd p in [p_min, p_max] and every base.

    Bases below 2 are ignored; bases above p-1 are skipped per p unless
    allow_large_base is set.  Primality comes from one sieve up to p_max.
    For prime p the naive and structured paths both run and must agree, and
    residue_one is the naive residue's; for composite p the closed path
    alone gives the residue, in O(d(p)**2) big-int operations instead of
    p - 1 ring steps, and paths_agree is None.  An empty range yields an
    empty report.

    jobs >= 1 is the number of shares the odd p are dealt into (see _deal),
    capped at usable_cpus() and at the number of odd p, and 1 where os.fork
    is missing.  This process runs share 0; each other share runs in one
    forked child, which sends its entries back over a pipe.  Entries come
    out in (p, b) order however many shares ran, so the report is the same.
    A DomainError, NotDivisible or KeyboardInterrupt raised in a child's
    share is raised here with its type and message; a child that ends
    without sending its entries raises RuntimeError.  With faults in more
    than one share, which one is raised may differ from a serial run.
    Measured on a 2-core host only: there two shares take the sweep's time
    to about half.  Whether one share per CPU pays on larger hosts, where
    a small window forks many children, is unmeasured.  A process
    that runs other threads should keep jobs=1, since a forked child
    inherits only the calling thread and any lock another one held.
    """
    if jobs < 1:
        raise DomainError(f"jobs must be >= 1, got {jobs}")
    wanted = tuple(sorted({b for b in bases if b >= 2}))
    start = max(p_min, 3)
    if start % 2 == 0:
        start += 1
    ps = range(start, p_max + 1, 2)
    primes = prime_table(max(p_max, 0))

    def run(share: list[int]) -> list[tuple]:
        return _sweep_rows(share, wanted, primes, allow_large_base)

    jobs = max(1, min(jobs, usable_cpus(), len(ps))) if hasattr(os, "fork") else 1
    rows = _run_shares(run, _deal(ps, jobs))
    rows.sort()
    entries = tuple(SweepEntry(*row) for row in rows)
    return SweepReport(p_min=p_min, p_max=p_max, bases=wanted, entries=entries)
