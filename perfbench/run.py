"""Benchmark of the vantieghem CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  NAME is one of mersenne, repunit, sweep,
lemma, or `all` to run each in turn.  One client drives the CLI in a closed
loop: each op is `vantieghem.cli.main(argv)` in a worker process, and each
op's output is checked (see workloads.py and DESIGN.md).

--trace 0 splits the S seconds over SETUPS worker processes, one after the
other, and reports the end-to-end metrics; setup_s is the upper quartile of
their set-ups.  --trace 1 runs one worker that alternates untraced and traced
passes and reports the per-layer metrics.  Every metric is printed as
`<workload>/<metric> value unit`, with the host-speed probe before and after
the run beside them; the last line is one JSON object with the keys
correct, attempted, failed and metrics.  Exits 1 without that line if a
worker cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Set-ups per run.  setup_s is their upper quartile: on a host that switches
# between a fast and a slow state it sits in the slow state whenever at least
# a quarter of the set-ups are slow, instead of flipping with the mixture as
# the median does (see DESIGN.md).
SETUPS = 12
RUN_DEADLINE_S = 170.0
TAIL_BEYOND = 10

# Printed beside the metrics of BENCHMARK.json, but left out of the JSON line
# and carrying no bound: on the 2-vCPU host the benchmark was built on, their
# run-to-run spread reached 43% and 25% (see DESIGN.md).
PRINTED_ONLY_UNITS = {
    "op_ms.p50": "ms",
    "verdicts_per_s": "1/s",
}


class WorkerFailed(Exception):
    pass


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, from BENCHMARK.json's end_to_end or per_layer list."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in declared}


def host_probe() -> dict[str, float]:
    """Milliseconds for a fixed pure-Python loop and a fixed big-int square-mod
    loop, median of three.  A diagnostic of host speed only: it never scales or
    filters a metric, and it does not import the package under test."""
    loop, sqmod = [], []
    modulus = (1 << 4096) - 159
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc = (acc + i * i) % 1_000_003
        t1 = time.perf_counter()
        x = 3**2500
        for _ in range(400):
            x = x * x % modulus
        t2 = time.perf_counter()
        loop.append((t1 - t0) * 1000.0)
        sqmod.append((t2 - t1) * 1000.0)
    return {"python_loop": statistics.median(loop), "bigint_sqmod": statistics.median(sqmod)}


def run_workers(name: str, seed: int, seconds: float, trace: int, deadline: float) -> list[dict]:
    """Run the workload's worker processes one after the other."""
    n = 1 if trace else SETUPS
    results = []
    for _ in range(n):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
               "--seed", str(seed), "--seconds", repr(seconds / n), "--trace", str(trace)]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, deadline - spawned))
        except subprocess.TimeoutExpired:
            raise WorkerFailed(f"{name}: worker did not finish within the run's deadline")
        if proc.returncode != 0:
            raise WorkerFailed(f"{name}: worker exited with code {proc.returncode}")
        result = json.loads(proc.stdout.splitlines()[-1])
        result["setup_s"] = result["first_op"] - spawned
        results.append(result)
    return results


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    That is the (TAIL_BEYOND + 1)-th largest sample; returns (value, percentile).
    With TAIL_BEYOND samples or fewer it is the largest one.
    """
    ordered = sorted(times)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        k = len(ordered) - 1
    return ordered[k], 100.0 * k / len(ordered)


def end_to_end(results: list[dict]) -> tuple[dict[str, float], list[str]]:
    times = [t for r in results for per_input in r["times_ms"] for t in per_input]
    tail_ms, pct = tail(times)
    metrics = {
        "op_ms.p50": statistics.median(times),
        "op_ms.tail": tail_ms,
        "verdicts_per_s": sum(r["verdicts"] for r in results) / (sum(times) / 1000.0),
        "setup_s": statistics.quantiles([r["setup_s"] for r in results], n=4)[2],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    notes = [f"op_ms.tail is p{pct:.2f} of {len(times)} timed ops",
             "setup_s per worker: " + " ".join(f"{r['setup_s']:.3f}" for r in results)]
    return metrics, notes


def per_layer(results: list[dict]) -> tuple[dict[str, float], list[str]]:
    (r,) = results
    untraced = [t for per_input in r["times_ms"] for t in per_input]
    traced = [t for per_input in r["traced_ms"] for t in per_input]
    metrics = dict(r["layers"])
    metrics["cli.out_bytes"] = r["out_bytes_per_op"]
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    notes = [f"{len(traced)} traced and {len(untraced)} untraced ops"]
    for label, u, t in zip(r["labels"], r["times_ms"], r["traced_ms"]):
        notes.append(f"input {label}: untraced p50 {statistics.median(u):.2f} ms, "
                     f"traced p50 {statistics.median(t):.2f} ms, {len(t)} traced")
    return metrics, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*workloads.NAMES, "all"), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    try:
        units = declared_units(args.trace)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"benchmark failed: cannot read the metrics of BENCHMARK.json: {exc}", file=sys.stderr)
        return 1
    deadline = time.monotonic() + RUN_DEADLINE_S * len(names)
    before = host_probe()
    lines, metrics = [], {}
    attempted = failed = 0
    for name in names:
        try:
            results = run_workers(name, args.seed, args.seconds, args.trace, deadline)
        except (WorkerFailed, ValueError, KeyError, IndexError) as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        found, notes = (per_layer if args.trace else end_to_end)(results)
        undeclared = set(found) - set(units) - set(PRINTED_ONLY_UNITS)
        unmeasured = set(units) - set(found)
        if undeclared or unmeasured:
            print(f"benchmark failed: {name} measured {sorted(undeclared)} beyond BENCHMARK.json "
                  f"and not {sorted(unmeasured)}", file=sys.stderr)
            return 1
        tried = sum(r["attempted"] for r in results)
        failures = [f for r in results for f in r["failures"]]
        attempted += tried
        failed += len(failures)
        prefix = f"{name}/" if args.workload == "all" else ""
        for metric, value in found.items():
            if metric in PRINTED_ONLY_UNITS:
                lines.append(f"{name}/{metric} {value:.6g} {PRINTED_ONLY_UNITS[metric]} (printed only, no bound)")
                continue
            unit = units[metric]
            metrics[prefix + metric] = {"value": value, "unit": unit}
            lines.append(f"{name}/{metric} {value:.6g} {unit}")
        lines.append(f"{name}/failed_frac {len(failures) / tried:.6g} ({len(failures)} of {tried} ops)")
        lines += [f"{name}: {note}" for note in notes]
        lines += [f"{name}: FAILED {f}" for f in failures[:5]]
    after = host_probe()
    for when, probe in (("before", before), ("after", after)):
        lines.append(f"host.probe_ms {when}: " + " ".join(f"{k}={v:.3f}" for k, v in probe.items()))
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
