"""Command-line interface.

Exit codes: 0 = success / criterion consistent, 1 = criterion failure,
fixture mismatch or an inexact division (NotDivisible; from a product path
the error line names b, p and the path), 2 = usage or domain error,
130 = interrupted (Ctrl-C).  No exit prints a traceback.  Every command takes
--output-format text|structured-record; structured records are JSON with
all integers rendered as decimal strings, since values routinely exceed
native integer width.

The argparse parser is built on the first `main` call and reused by every
later call in the process: the build (eight parsers) takes about 0.8-1.0 ms
on a 2-core host, most of a small op such as `test --b 3 --p 2089`.  Parsing
leaves no state on the parser, so a call's result depends on its argv alone.
Each sub-parser's `func` is bound at the build, so replacing a `cmd_*`
function afterwards has no effect; the names the `cmd_*` functions call
(`run_test`, `sweep`, ...) are looked up at call time.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import statistics
import sys
import time
from typing import Callable

from . import golden
from .cosets import decompose, verify_partition
from .criterion import Path, TestReport, Verdict, run_test, sweep, usable_cpus
from .cyclotomic import cyclotomic_poly, verify_lemma
from .errors import DomainError, NotDivisible
from .modmath import fold_reduce_pow2

BENCH_REDUCTION_SAMPLES = 256
BENCH_SEED = 0x5EED


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text}")
    return value


def _base_list(text: str) -> list[int]:
    try:
        bases = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not bases:
        raise argparse.ArgumentTypeError("expected at least one base")
    return bases


def _emit(args: argparse.Namespace, record: Callable[[], dict], text: Callable[[], str]) -> None:
    """Print the requested format, building only that one: a large residue's
    str() is quadratic in its digits, so building both would pay for it twice."""
    if args.output_format == "structured-record":
        print(json.dumps(record()))
    else:
        print(text())


def _format_test_report(report: TestReport) -> str:
    lines = [
        f"b: {report.b}",
        f"p: {report.p}",
        f"modulus digits: {report.modulus_digits}",
        f"path: {report.path.value}",
        f"residue: {report.residue}",
        f"verdict: {report.verdict.value}",
    ]
    if report.paths_agree is not None:
        lines.append(f"paths agree: {'yes' if report.paths_agree else 'NO'}")
    for name, ms in report.elapsed.items():
        lines.append(f"{name}: {ms:.3f} ms")
    return "\n".join(lines)


def cmd_test(args: argparse.Namespace) -> int:
    report = run_test(args.b, args.p, Path(args.path), allow_large_base=args.allow_large_base)
    _emit(args, report.to_record, lambda: _format_test_report(report))
    if report.paths_agree is False:
        return 1
    return 0 if report.verdict is Verdict.PRIME_CONSISTENT else 1


def cmd_cosets(args: argparse.Namespace) -> int:
    d = decompose(args.p)
    header = f"p = {d.p}: order of 2 is r = {d.r}, k = {d.k} cosets\nreps: {', '.join(str(a) for a in d.reps)}"
    _emit(args, d.to_record, lambda: header + "\n" + d.to_table())
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Sweep the window in one share per usable CPU: this process runs one,
    and one forked child runs each of the others (see criterion.sweep).  The
    output does not depend on the number of shares."""
    if args.p_min > args.p_max:
        raise DomainError(f"empty range: p-min {args.p_min} > p-max {args.p_max}")
    if any(b < 2 for b in args.bases):
        raise DomainError("bases must all be >= 2")
    report = sweep(
        args.p_min, args.p_max, args.bases, allow_large_base=args.allow_large_base, jobs=usable_cpus()
    )
    failures = report.failures()

    def record() -> dict:
        out = report.to_record()
        if not args.per_p:
            del out["entries"]
        return out

    def text() -> str:
        lines = [
            f"swept odd p in [{args.p_min}, {args.p_max}], bases {', '.join(str(b) for b in report.bases)}",
            f"entries: {len(report.entries)}  agreements: {report.agreement_count}  "
            f"disagreements: {len(report.mismatches())}",
        ]
        for e in failures:
            lines.append(f"FAILURE p={e.p} b={e.b} prime={e.prime} residue_one={e.residue_one}")
        for e in report.anomalies():
            lines.append(f"note: composite p={e.p} gave residue 1 at base {e.b} (converse untested there)")
        if args.per_p:
            for e in report.entries:
                mark = "ok" if e.verdict_matches else "MISMATCH"
                lines.append(
                    f"p={e.p} b={e.b} prime={'y' if e.prime else 'n'} "
                    f"residue_one={'y' if e.residue_one else 'n'} {mark}"
                )
        return "\n".join(lines)

    _emit(args, record, text)
    return 0 if not failures else 1


def cmd_lemma(args: argparse.Namespace) -> int:
    if args.m_max < 2:
        raise DomainError(f"m-max must be >= 2, got {args.m_max}")
    polys = [(m, cyclotomic_poly(m)) for m in range(2, args.m_max + 1)]
    rows = [(m, verify_lemma(m, poly), poly.pretty()) for m, poly in polys]
    all_ok = all(ok for _, ok, _ in rows)

    def record() -> dict:
        results = [{"m": str(m), "holds": ok, "poly": poly} for m, ok, poly in rows]
        return {"m_max": str(args.m_max), "all_hold": all_ok, "results": results}

    def text() -> str:
        lines = [f"m={m}: {'ok' if ok else 'FAIL'}  {poly}" for m, ok, poly in rows]
        lines.append(f"{len(rows)} checked, {'all hold' if all_ok else 'FAILURES above'}")
        return "\n".join(lines)

    _emit(args, record, text)
    return 0 if all_ok else 1


def cmd_paper_example(args: argparse.Namespace) -> int:
    d = decompose(golden.P)
    partition = verify_partition(d)
    fixture_ok = (
        d.r == golden.ORDER
        and d.k == len(golden.COSETS)
        and d.reps == golden.REPS
        and d.cosets == golden.COSETS
        and partition.all_passed
    )
    report = run_test(golden.BASE, golden.P, Path.BOTH)
    naive, structured = report.residues["naive"], report.residues["structured"]
    residues_ok = naive == structured == golden.EXPECTED_RESIDUE
    ok = fixture_ok and residues_ok

    def record() -> dict:
        return {
            "p": str(golden.P),
            "b": str(golden.BASE),
            "decomposition": d.to_record(),
            "naive_residue": str(naive),
            "structured_residue": str(structured),
            "fixture_match": ok,
        }

    def text() -> str:
        return "\n".join([
            f"p = {golden.P}, b = {golden.BASE}: order of 2 is r = {d.r}, k = {d.k} cosets",
            d.to_table(),
            f"reps: {', '.join(str(a) for a in d.reps)}",
            f"naive residue: {naive}",
            f"structured residue: {structured}",
            f"fixture match: {'yes' if ok else 'NO'}",
        ])

    _emit(args, record, text)
    return 0 if ok else 1


def cmd_bench(args: argparse.Namespace) -> int:
    p, b = args.p, args.b
    if args.reps < 1:
        raise DomainError(f"reps must be >= 1, got {args.reps}")
    reports = [
        run_test(b, p, Path.BOTH, allow_large_base=args.allow_large_base) for _ in range(args.reps)
    ]
    naive_ms = statistics.mean(r.elapsed["naive"] for r in reports)
    structured_ms = statistics.mean(r.elapsed["structured"] for r in reports)
    agree = len({x for r in reports for x in r.residues.values()}) == 1
    residue = reports[-1].residue

    # Reduction micro-benchmark: fold vs generic remainder on identical
    # inputs, meaningful only for the Mersenne case b = 2.
    reduction: dict = {}
    if b == 2:
        mersenne = (1 << p) - 1
        rng = random.Random(BENCH_SEED)
        xs = [rng.getrandbits(2 * p + 1) for _ in range(BENCH_REDUCTION_SAMPLES)]
        t0 = time.perf_counter()
        folded = [fold_reduce_pow2(x, p) for x in xs]
        fold_us = (time.perf_counter() - t0) * 1e6 / len(xs)
        t0 = time.perf_counter()
        generic = [x % mersenne for x in xs]
        generic_us = (time.perf_counter() - t0) * 1e6 / len(xs)
        agree = agree and folded == generic
        reduction = {
            "fold_us_per_call": fold_us,
            "generic_us_per_call": generic_us,
            "reductions_agree": folded == generic,
        }

    def record() -> dict:
        return {
            "p": str(p),
            "b": str(b),
            "reps": str(args.reps),
            "naive_ms": naive_ms,
            "structured_ms": structured_ms,
            **reduction,
            "residue": str(residue),
            "paths_agree": agree,
        }

    def text() -> str:
        lines = [
            f"p = {p}, b = {b}, modulus digits = {reports[-1].modulus_digits}, reps = {args.reps}",
            f"naive:      mean {naive_ms:10.3f} ms",
            f"structured: mean {structured_ms:10.3f} ms",
        ]
        if reduction:
            lines.append(f"reduce (fold):    {reduction['fold_us_per_call']:10.3f} us/call")
            lines.append(f"reduce (generic): {reduction['generic_us_per_call']:10.3f} us/call")
        lines.append(f"residue: {residue}  paths agree: {'yes' if agree else 'NO'}")
        return "\n".join(lines)

    _emit(args, record, text)
    return 0 if agree else 1


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--output-format",
        choices=("text", "structured-record"),
        default="text",
        help="human-readable text or one JSON record (default: text)",
    )
    shared.add_argument(
        "--allow-large-base",
        action="store_true",
        help="permit b > p-1 (outside the criterion's stated range)",
    )

    parser = argparse.ArgumentParser(
        prog="vantieghem",
        description="Vantieghem's primality criterion: product tests, coset tables, and checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("test", parents=[shared], help="evaluate the criterion for one (b, p)")
    s.add_argument("--p", type=_nonnegative_int, required=True, help="odd exponent >= 3")
    s.add_argument("--b", type=_nonnegative_int, required=True, help="base >= 2")
    s.add_argument(
        "--path",
        choices=tuple(p.value for p in Path),
        default=Path.CLOSED.value,
        help="evaluation path: closed form, naive product, structured product, "
        "or both products (structured/both need prime p; default: closed)",
    )
    s.set_defaults(func=cmd_test)

    s = sub.add_parser("cosets", parents=[shared], help="print the coset table for an odd prime")
    s.add_argument("--p", type=_nonnegative_int, required=True, help="odd prime")
    s.set_defaults(func=cmd_cosets)

    s = sub.add_parser("sweep", parents=[shared], help="compare verdicts with a sieve's primality over a range")
    s.add_argument("--p-min", type=_nonnegative_int, required=True)
    s.add_argument("--p-max", type=_nonnegative_int, required=True)
    s.add_argument("--bases", type=_base_list, required=True, help="comma-separated bases, each >= 2")
    s.add_argument("--per-p", action="store_true", help="print one row per (p, b)")
    s.set_defaults(func=cmd_sweep)

    s = sub.add_parser("lemma", parents=[shared], help="verify the cyclotomic root-product identity")
    s.add_argument("--m-max", type=_nonnegative_int, required=True, help="check indices 2..m-max")
    s.set_defaults(func=cmd_lemma)

    s = sub.add_parser(
        "paper-example",
        parents=[shared],
        help="reproduce the classical p=89, b=2 worked example against the golden fixture",
    )
    s.set_defaults(func=cmd_paper_example)

    s = sub.add_parser(
        "bench",
        parents=[shared],
        help="time both product paths (the rotation kernel for b = 2**k) and, for b = 2, "
        "the two reduction strategies",
    )
    s.add_argument("--p", type=_nonnegative_int, required=True, help="odd prime")
    s.add_argument("--b", type=_nonnegative_int, default=2, help="base (default 2)")
    s.add_argument("--reps", type=_nonnegative_int, default=5, help="repetitions per path (default 5)")
    s.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    # Residues can exceed CPython's default int-to-str conversion limit.
    try:
        sys.set_int_max_str_digits(2_000_000)
    except AttributeError:
        pass
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (None, 0) else 2
    func: Callable[[argparse.Namespace], int] = args.func
    try:
        return func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotDivisible as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
