"""bidiforms benchmark: three seeded workloads, end-to-end or traced per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload classify --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py for the inputs and BENCHMARK.json for why):
`classify`, `walk_roots` and `solve_sweep`. Each is a closed loop with one
caller and one thread. Every measured process is a fresh interpreter, so the
library's caches start cold and there is no warm-up over measured inputs.

Operation times are in reference seconds (calibrate.py): wall time scaled by
the speed of a fixed kernel timed between operations, which removes most of
the slowdown other jobs on a shared machine cause. The loop runs for
`--seconds` reference seconds.

`--trace 0` runs set-up alone in SETUP_SAMPLES - 1 processes, then one
process that sets up and runs operations, and reports:

- ops_per_s: operations per reference second of library time, over the
  run's complete blocks (each block holds the workload's full mix);
- op_p50_ms, op_p90_ms: latency percentiles over the complete blocks;
- error_rate: one-sided 95 % Clopper-Pearson upper bound on the share of
  failed operations (exceptions of any kind and failed output checks). The
  observed counts are `attempted` and `failed`; the bound is reported
  because the observed share is 0 when nothing fails;
- setup_s: median time to import `bidiforms` and `bidiforms.cli` and to
  generate the first block, over SETUP_SAMPLES processes, calibrated with
  the kernel timed just before and after;
- peak_rss_mb: peak resident memory of the measuring process.

`--trace 1` runs a fixed number of blocks twice, untraced and then with
spans recorded (tracing.py), and reports per-layer calls, self time and
counters. The counts repeat exactly for a given seed and `--seconds`.
Metrics of a layer a workload does not reach read 0. The spans are written
to `.bench_traces/` in the checkout.

The last line of stdout is one JSON object; the exit code is 0 on success.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import SIZES as CLASSIFY_SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9
# blocks of the traced runs per 20 s of --seconds, sized so that the
# untraced and the traced pass together take about --seconds
TRACE_BLOCKS_PER_20S = {"classify": 2, "walk_roots": 22, "solve_sweep": 4}
DEADLINE_S = 170


class BenchError(Exception):
    pass


def child(mode, workload, seed, arg, deadline):
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed), str(arg)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker did not finish in {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def clopper_pearson_upper(failed, attempted, alpha=0.05):
    """Smallest p with P(X <= failed) <= alpha for X ~ Binomial(attempted, p)."""
    if failed >= attempted:
        return 1.0

    def cdf(p):
        logs = [
            math.lgamma(attempted + 1) - math.lgamma(k + 1) - math.lgamma(attempted - k + 1)
            + k * math.log(p) + (attempted - k) * math.log1p(-p)
            for k in range(failed + 1)
        ]
        return sum(math.exp(v) for v in logs)

    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = (lo + hi) / 2
        if cdf(mid) > alpha:
            lo = mid
        else:
            hi = mid
    return hi


def report_failures(result):
    for line in result.get("failures", []):
        print(f"FAILED {line}", file=sys.stderr)


def end_to_end(workload, seed, seconds, deadline):
    setups = [child("setup", workload, seed, 0, deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    res = child("timed", workload, seed, seconds, deadline)
    report_failures(res)
    setups.append(res["setup_s"])
    records = res["records"]
    full = [r for r in records if r[0] < res["last_block"]] or records
    lat_ms = sorted(ns / 1e6 for _, _, _, _, ns, _ in full)
    attempted = len(records)
    failed = sum(1 for r in records if not r[5])
    metrics = {
        "ops_per_s": (len(lat_ms) / (sum(lat_ms) / 1e3), "1/s"),
        "op_p50_ms": (percentile(lat_ms, 50), "ms"),
        "op_p90_ms": (percentile(lat_ms, 90), "ms"),
        "error_rate": (clopper_pearson_upper(failed, attempted), "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    print(
        f"{workload}: {attempted} operations, {failed} failed, {len(full)} in complete blocks, "
        f"{sum(1 for v in lat_ms if v > metrics['op_p90_ms'][0])} beyond p90", file=sys.stderr,
    )
    return attempted, failed, metrics


def size_scaling(records):
    """Median op time per classify vertex count and the fitted log-log exponent."""
    by_size = {m: sorted(ns / 1e6 for _, _, size, _, ns, _ in records if size == m) for m in CLASSIFY_SIZES}
    medians = {m: statistics.median(v) for m, v in by_size.items() if v}
    out = {f"classify.op_p50_ms.m{m}": (medians.get(m, 0.0), "ms") for m in CLASSIFY_SIZES}
    if len(medians) >= 2:
        xs = [math.log(m) for m in medians]
        ys = [math.log(v) for v in medians.values()]
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
    else:
        slope = 0.0
    out["classify.size_exponent"] = (slope, "1")
    return out


def per_layer(workload, seed, seconds, deadline):
    nblocks = max(1, round(TRACE_BLOCKS_PER_20S[workload] * seconds / 20))
    plain = child("fixed", workload, seed, nblocks, deadline)
    traced = child("traced", workload, seed, nblocks, deadline)
    report_failures(plain)
    report_failures(traced)
    ok_plain = [r[5] for r in plain["records"]]
    ok_traced = [r[5] for r in traced["records"]]

    def ops_per_s(res):
        return len(res["records"]) / (sum(r[4] for r in res["records"]) / 1e9)

    metrics = {k: (v["value"], v["unit"]) for k, v in traced["layers"].items()}
    metrics["tracing.overhead_ratio"] = (ops_per_s(traced) / ops_per_s(plain), "ratio")
    if workload == "classify":
        metrics.update(size_scaling(plain["records"]))
    else:
        metrics.update({k: (0.0, u) for k, (_, u) in size_scaling([]).items()})
    attempted = len(ok_plain) + len(ok_traced)
    failed = ok_plain.count(False) + ok_traced.count(False)
    if ok_plain != ok_traced:
        raise BenchError("the traced pass and the untraced pass disagree on which operations failed")
    return attempted, failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not (ROOT / "src" / "bidiforms" / "__init__.py").is_file():
        print(f"bench: no library source at {ROOT / 'src' / 'bidiforms'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    measure = per_layer if args.trace else end_to_end
    try:
        attempted, failed, metrics = measure(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
