"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All arithmetic is exact, so every comparison is exact equality;
the only tolerances are the stated wall-clock budgets.
"""

import json
import random
import time
from math import gcd

from polyref import Poly

from vantieghem import golden
from vantieghem.cli import main as cli_main
from vantieghem.cosets import decompose, verify_partition
from vantieghem.criterion import (
    coset_partial_products,
    product_closed,
    product_naive,
    product_structured,
    sweep,
    telescope_check,
)
from vantieghem.cyclotomic import cyclotomic_poly, verify_lemma
from vantieghem.modmath import build_modulus, fold_reduce_pow2, mult_order
from vantieghem.oracle import product_bruteforce


def report(name: str, ok: bool, elapsed: float | None = None) -> None:
    suffix = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, name


def test_criterion_01_golden_example(capsys):
    t0 = time.perf_counter()
    d = decompose(89)
    fixture_ok = (
        d.r == 11
        and d.k == 8
        and d.reps == (1, 3, 5, 9, 11, 13, 19, 33)
        and d.cosets == golden.COSETS
    )
    rm = build_modulus(2, 89)
    residues_ok = product_naive(rm) == 1 and product_structured(rm) == 1
    cli_code = cli_main(["paper-example"])
    capsys.readouterr()
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(
            "01 golden example p=89 b=2 (cosets + both paths, < 1 s)",
            fixture_ok and residues_ok and cli_code == 0 and elapsed < 1.0,
            elapsed,
        )


def test_criterion_02_theorem_sweep(odd_primes_500):
    t0 = time.perf_counter()
    failures = []
    for p in odd_primes_500:
        for b in range(2, min(p - 1, 12) + 1):
            if product_naive(build_modulus(b, p)) != 1:
                failures.append((b, p))
    elapsed = time.perf_counter() - t0
    report(
        "02 unit residue for every odd prime p <= 500, b in [2, min(p-1, 12)] (< 60 s)",
        not failures and elapsed < 60.0,
        elapsed,
    )


def test_criterion_03_empirical_converse(odd_composites_500):
    t0 = time.perf_counter()
    failures = [p for p in odd_composites_500 if product_naive(build_modulus(2, p)) == 1]
    elapsed = time.perf_counter() - t0
    report(
        "03 non-unit residue for every odd composite p <= 500, b = 2 (< 30 s)",
        not failures and elapsed < 30.0,
        elapsed,
    )


def test_criterion_04_path_equivalence(odd_primes_500):
    ok = True
    for p in odd_primes_500:
        for b in (2, 3, 10):
            rm = build_modulus(b, p)
            if product_structured(rm) != product_naive(rm):
                ok = False
    report("04 structured path equals naive path, p <= 500, b in {2, 3, 10}", ok)


def test_criterion_05_per_coset_unity(odd_primes_500):
    ok = True
    for p in odd_primes_500:
        if p > 200:
            break
        partials = coset_partial_products(build_modulus(2, p))
        if any(partial != 1 for partial in partials):
            ok = False
    report("05 every coset partial product is 1 mod M, p <= 200, b = 2", ok)


def test_criterion_06_oracle_equivalence():
    ok = all(
        product_bruteforce(b, p) == product_naive(build_modulus(b, p))
        for p in range(3, 32, 2)
        for b in range(2, 6)
    )
    report("06 brute-force oracle equals naive path, odd p <= 31, b in [2, 5]", ok)


def test_criterion_07_partition_suite(odd_primes_1000):
    ok = True
    for p in odd_primes_1000:
        if not verify_partition(decompose(p)).all_passed:
            ok = False
        if (p - 1) % mult_order(2, p) != 0:
            ok = False
    report("07 partition checks and order divisibility for every odd prime p <= 1000", ok)


def test_criterion_08_telescoping_identity():
    ok = all(telescope_check(x, r) for x in range(2, 11) for r in range(1, 9))
    report("08 telescoping identity exact for x in [2, 10], r in [1, 8]", ok)


def test_criterion_09_cyclotomic_lemma():
    t0 = time.perf_counter()
    lemma_ok = all(verify_lemma(m) for m in range(2, 31))
    structure_ok = True
    for m in range(1, 61):
        phi = sum(1 for d in range(1, m + 1) if gcd(d, m) == 1)
        if cyclotomic_poly(m).degree != phi:
            structure_ok = False
        prod = Poly.constant(1)
        for d in range(1, m + 1):
            if m % d == 0:
                prod = prod * Poly.lift(cyclotomic_poly(d))
        if prod != Poly.monomial(m) - 1:
            structure_ok = False
    elapsed = time.perf_counter() - t0
    report(
        "09 root-product identity for 2 <= m <= 30; degree/divisor-product for m <= 60 (< 10 s)",
        lemma_ok and structure_ok and elapsed < 10.0,
        elapsed,
    )


def test_criterion_10_special_reduction():
    rng = random.Random(0xF01D)
    mismatches = 0
    for p in (5, 31, 89, 127, 4423):
        modulus = 2**p - 1
        for _ in range(10_000):
            x = rng.getrandbits(4 * p)
            if fold_reduce_pow2(x, p) != x % modulus:
                mismatches += 1
    report("10 bit folding equals generic remainder, 10k random inputs per p", mismatches == 0)


def test_criterion_11_performance_smoke(capsys):
    t0 = time.perf_counter()
    code = cli_main(["bench", "--p", "4423", "--b", "2", "--output-format", "structured-record"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - t0
    record = json.loads(out)
    ok = (
        code == 0
        and elapsed < 30.0
        and record["paths_agree"] is True
        and record["residue"] == "1"
        and "fold_us_per_call" in record
        and "generic_us_per_call" in record
    )
    with capsys.disabled():
        report("11 bench p=4423 b=2: paths agree, fold vs generic reported (< 30 s)", ok, elapsed)


def test_criterion_12_closed_path_equivalence():
    t0 = time.perf_counter()
    mismatches = [
        (b, p)
        for p in range(3, 400, 2)
        for b in (2, 3, 5, 10, 12)
        if product_closed(build_modulus(b, p)) != product_naive(build_modulus(b, p))
    ]
    elapsed = time.perf_counter() - t0
    report(
        "12 closed path equals naive path, every odd p < 400 (composites too), b in {2, 3, 5, 10, 12} (< 30 s)",
        not mismatches and elapsed < 30.0,
        elapsed,
    )


def test_criterion_13_sweep_composites_every_base(odd_composites_500):
    # The sweep takes a composite p's verdict from the closed path alone; test
    # 12 checks that path against the naive one at five bases, this at every
    # base the sweep's evidence covers.
    t0 = time.perf_counter()
    mismatches = []
    for p in (n for n in odd_composites_500 if n < 400):
        entries = sweep(p, p, tuple(range(2, 13))).entries
        if [e.b for e in entries] != list(range(2, min(p - 1, 12) + 1)):
            mismatches.append((p, "bases"))
        for e in entries:
            rm = build_modulus(e.b, p)
            naive = product_naive(rm)
            if e.residue_one != (naive == 1) or e.paths_agree is not None or product_closed(rm) != naive:
                mismatches.append((e.b, p))
    elapsed = time.perf_counter() - t0
    report(
        "13 sweep verdict and closed path equal naive path, every odd composite p < 400, b in [2, min(p-1, 12)] (< 30 s)",
        not mismatches and elapsed < 30.0,
        elapsed,
    )
