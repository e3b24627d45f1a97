"""One workload process: import the package, warm up, run ops in a closed loop.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
Each op is one CLI command, `vantieghem.cli.main(argv)` with stdout
captured; the timed region is exactly that call.  Every op's output is
checked afterwards, outside the timed region.  With --trace 1 the loop runs
rounds of one untraced pass over the workload's commands followed by one
traced pass, so both halves see the same host phases and every round adds
the same call counts.

Prints one JSON object on stdout; exits non-zero if the package cannot be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def import_cli():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        from vantieghem import cli
    except ImportError as exc:
        sys.exit(f"worker: cannot import vantieghem from {src}: {exc}")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"worker: imported vantieghem from {cli.__file__}, not from {src}")
    return cli


class Runner:
    """Runs ops and keeps their times, output sizes and check results."""

    def __init__(self, main) -> None:
        self.main = main
        self.attempted = 0
        self.failures: list[str] = []
        self.out_bytes = 0

    def run(self, op: workloads.Op, main=None) -> float:
        """Run one op, check it, and return its wall time in ms."""
        call = main or self.main
        buf = io.StringIO()
        error = None
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            try:
                code = call(list(op.argv))
            except Exception as exc:  # a crashing op is a failed op; keep measuring
                error = f"{op.label}: {type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
        out = buf.getvalue()
        self.attempted += 1
        self.out_bytes += len(out.encode())
        if error is None:
            error = workloads.check(op, code, out)
        if error:
            self.failures.append(error)
        return (t1 - t0) * 1000.0


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    cli = import_cli()
    ops = workloads.build(args.workload, args.seed)
    runner = Runner(cli.main)
    for op in ops:
        runner.run(op)
    first_op = time.monotonic()

    deadline = time.perf_counter() + args.seconds
    times: list[list[float]] = [[] for _ in ops]
    traced_times: list[list[float]] = [[] for _ in ops]
    verdicts = 0
    recorder = spans.Recorder() if args.trace else None
    if recorder is not None:
        traced_main = recorder.wrap(spans.ROOT, cli.main)
    while True:
        for i, op in enumerate(ops):
            times[i].append(runner.run(op))
            verdicts += op.verdicts
        if recorder is not None:
            recorder.install()
            try:
                for i, op in enumerate(ops):
                    traced_times[i].append(runner.run(op, traced_main))
                    recorder.fold()
            finally:
                recorder.uninstall()
        if time.perf_counter() >= deadline:
            break

    result = {
        "first_op": first_op,
        "labels": [op.label for op in ops],
        "times_ms": times,
        "attempted": runner.attempted,
        "failures": runner.failures,
        "verdicts": verdicts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        result["traced_ms"] = traced_times
        result["layers"] = recorder.per_op()
        result["out_bytes_per_op"] = runner.out_bytes / runner.attempted
    print(json.dumps(result))


if __name__ == "__main__":
    main()
