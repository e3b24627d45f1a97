"""Seeded inputs for each workload, and the checks every op's output must pass.

A workload is a list of CLI commands (argv lists) that the benchmark cycles
through in a closed loop.  Within one workload the commands are chosen to
cost within a few percent of each other, so that a reported percentile
cannot land on a step between input sizes.

The checks use this module's own sieve as the primality table; nothing here
imports the package under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

STRUCTURED = ["--output-format", "structured-record"]

# mersenne: one prime P per seed, tested along both product paths.  The band
# is 0.9% wide in p, so the cost differs by about 2% between seeds.
MERSENNE_BAND = (4409, 4447)

# repunit: one prime and one odd composite per base, each from a band where
# the naive product costs about the same for both bases (b = 3 at p ~ 2080
# matches b = 10 at p ~ 1285 to within a few percent).
REPUNIT_BANDS = {3: (2069, 2089), 10: (1277, 1291)}

# sweep: the seed moves the low end of the window by up to five odd p.  The
# pairs it drops are the cheapest of the ~900, so the cost of an op barely
# moves while its verdict count does.
SWEEP_P_MIN_CHOICES = (3, 5, 7, 9, 11, 13)
SWEEP_P_MAX = 301
SWEEP_BASES = (2, 3, 5, 7, 10, 12)

LEMMA_M_MAX = 30

NAMES = ("mersenne", "repunit", "sweep", "lemma")


def prime_table(limit: int) -> bytearray:
    """Sieve of Eratosthenes: table[n] == 1 exactly when n is prime, n <= limit."""
    table = bytearray([1]) * (limit + 1)
    table[0:2] = b"\x00\x00"
    for n in range(2, int(limit**0.5) + 1):
        if table[n]:
            table[n * n :: n] = bytearray(len(range(n * n, limit + 1, n)))
    return table


PRIMES = prime_table(5000)


@dataclass(frozen=True)
class Op:
    """One CLI command and what its output must say."""

    label: str
    argv: tuple[str, ...]
    verdicts: int
    kind: str  # "test", "sweep" or "lemma"
    b: int = 0
    p: int = 0
    both_paths: bool = False
    pairs: tuple[tuple[int, int], ...] = ()  # sweep: the (p, b) entries, in order


def _test_op(b: int, p: int, both: bool) -> Op:
    argv = ["test", "--b", str(b), "--p", str(p)]
    if both:
        argv += ["--path", "both"]
    return Op(f"b={b},p={p}", tuple(argv + STRUCTURED), 1, "test", b, p, both)


def sweep_pairs(p_min: int, p_max: int, bases: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The (p, b) pairs the sweep must report, in (p, b) order: odd p >= 3 in
    range, 2 <= b <= p-1."""
    start = max(p_min, 3) | 1
    return tuple((p, b) for p in range(start, p_max + 1, 2) for b in sorted(bases) if 2 <= b <= p - 1)


def build(name: str, seed: int) -> list[Op]:
    """The commands of workload `name` for `seed`; the same seed gives the same list."""
    rng = random.Random(f"{name}:{seed}")
    if name == "mersenne":
        lo, hi = MERSENNE_BAND
        p = rng.choice([n for n in range(lo, hi + 1) if PRIMES[n]])
        return [_test_op(2, p, both=True)]
    if name == "repunit":
        ops = []
        for b, (lo, hi) in REPUNIT_BANDS.items():
            band = range(lo | 1, hi + 1, 2)
            ops.append(_test_op(b, rng.choice([n for n in band if PRIMES[n]]), both=False))
            ops.append(_test_op(b, rng.choice([n for n in band if not PRIMES[n]]), both=False))
        return ops
    if name == "sweep":
        p_min = rng.choice(SWEEP_P_MIN_CHOICES)
        bases = ",".join(str(b) for b in SWEEP_BASES)
        argv = ["sweep", "--p-min", str(p_min), "--p-max", str(SWEEP_P_MAX), "--bases", bases, "--per-p"]
        pairs = sweep_pairs(p_min, SWEEP_P_MAX, SWEEP_BASES)
        return [Op(f"p={p_min}..{SWEEP_P_MAX}", tuple(argv + STRUCTURED), len(pairs), "sweep", p=p_min, pairs=pairs)]
    if name == "lemma":
        argv = ["lemma", "--m-max", str(LEMMA_M_MAX)]
        return [Op(f"m<={LEMMA_M_MAX}", tuple(argv + STRUCTURED), LEMMA_M_MAX - 1, "lemma")]
    raise ValueError(f"unknown workload {name!r}")


def check(op: Op, exit_code: int, out: str) -> str | None:
    """None when the op's output is correct, else a one-line reason."""
    try:
        record = json.loads(out)
        if op.kind == "test":
            return _check_test(op, exit_code, record)
        if op.kind == "sweep":
            return _check_sweep(op, exit_code, record)
        return _check_lemma(exit_code, record)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"{op.label}: output is not the expected record ({type(exc).__name__}: {exc}): {out[:80]!r}"


def _check_test(op: Op, exit_code: int, record: dict) -> str | None:
    if (record.get("b"), record.get("p")) != (str(op.b), str(op.p)):
        return f"record is for b={record.get('b')} p={record.get('p')}"
    prime = bool(PRIMES[op.p])
    if op.both_paths and record.get("paths_agree") is not True:
        return f"paths disagree at {op.label}"
    residue = record.get("residue")
    if prime and (residue != "1" or exit_code != 0):
        return f"prime {op.label}: residue {str(residue)[:20]!r}, exit {exit_code}"
    if not prime and (residue in ("1", None) or exit_code != 1):
        return f"composite {op.label}: residue {str(residue)[:20]!r}, exit {exit_code}"
    return None


def _check_sweep(op: Op, exit_code: int, record: dict) -> str | None:
    if exit_code != 0 or record.get("failures") != []:
        return f"sweep exit {exit_code}, failures {record.get('failures')!r:.200}"
    entries = record.get("entries", [])
    if record.get("total") != str(len(op.pairs)):
        return f"sweep reported total {record.get('total')}, expected {len(op.pairs)}"
    got = [(int(e["p"]), int(e["b"])) for e in entries]
    if got != list(op.pairs):
        missing = sorted(set(op.pairs) - set(got))[:3]
        return f"sweep entries are not the expected {len(op.pairs)} (p, b) pairs in order: got {len(got)}, missing {missing}"
    for e in entries:
        prime = bool(PRIMES[int(e["p"])])
        both_ran = True if prime else None
        if e["prime"] != prime or e["residue_one"] != prime or e["paths_agree"] != both_ran:
            return f"sweep entry wrong: {e}"
    return None


def _check_lemma(exit_code: int, record: dict) -> str | None:
    results = record.get("results", [])
    if exit_code != 0 or record.get("all_hold") is not True or len(results) != LEMMA_M_MAX - 1:
        return f"lemma exit {exit_code}, all_hold {record.get('all_hold')!r}, {len(results)} results"
    return None
