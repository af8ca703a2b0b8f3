#!/usr/bin/env python3
"""Compare a fresh benchmark JSON against the pinned baseline.

Usage:
    scripts/perf_gate.py --baseline BENCH_headline.json \
        --current bench_results.json [--tolerance 0.10] [--configs pcm,a-pcm] \
        [--latency-configs connections=10000] [--latency-tolerance 1.0]

Reads the `throughput` field for each gated config from both files and fails
(exit 1) if the current run is more than `tolerance` below the baseline.
Faster-than-baseline runs always pass: the gate catches regressions, not
improvements — improvements get locked in by regenerating the baseline with
scripts/bench_baseline.sh.

`--latency-configs` gates the other direction on the `p99` field: those
configs fail when current p99 latency exceeds baseline p99 by more than
`--latency-tolerance` (a fraction of the baseline, so 1.0 allows up to 2x).
Latency tails are far noisier than throughput means on shared CI hosts,
hence the separate, wider default band.

The default gated configs are the paper's algorithms (pcm, a-pcm): the naive
baselines (scan, counting, ...) exist for comparison and are allowed to
drift.
CI hosts are noisy, so the default tolerance is a wide 10%; the committed
baseline still pins the trajectory because every regeneration is a commit.
"""

import argparse
import json
import sys


def load_rows(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            rows = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"perf_gate: cannot read {path}: {e}")
    if not isinstance(rows, list):
        sys.exit(f"perf_gate: {path}: expected a JSON array of result rows")
    by_config = {}
    for row in rows:
        if not isinstance(row, dict) or "config" not in row:
            sys.exit(f"perf_gate: {path}: row without a 'config' field")
        by_config[row["config"]] = row
    return by_config


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="pinned baseline JSON (e.g. BENCH_headline.json)")
    parser.add_argument("--current", required=True,
                        help="fresh benchmark JSON from this build")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed fractional regression (default 0.10)")
    parser.add_argument("--configs", default="pcm,a-pcm",
                        help="comma-separated configs to gate "
                             "(default: pcm,a-pcm)")
    parser.add_argument("--latency-configs", default="",
                        help="comma-separated configs whose p99 latency is "
                             "gated against the baseline (default: none)")
    parser.add_argument("--latency-tolerance", type=float, default=1.0,
                        help="allowed fractional p99 increase for "
                             "--latency-configs (default 1.0, i.e. 2x)")
    args = parser.parse_args()

    if not 0 <= args.tolerance < 1:
        sys.exit("perf_gate: --tolerance must be in [0, 1)")
    if args.latency_tolerance < 0:
        sys.exit("perf_gate: --latency-tolerance must be >= 0")

    baseline = load_rows(args.baseline)
    current = load_rows(args.current)

    failed = False
    for config in [c.strip() for c in args.configs.split(",") if c.strip()]:
        if config not in baseline:
            sys.exit(f"perf_gate: config '{config}' missing from "
                     f"{args.baseline}")
        if config not in current:
            sys.exit(f"perf_gate: config '{config}' missing from "
                     f"{args.current}")
        base = float(baseline[config]["throughput"])
        cur = float(current[config]["throughput"])
        if base <= 0:
            sys.exit(f"perf_gate: baseline throughput for '{config}' is "
                     f"non-positive ({base})")
        ratio = cur / base
        verdict = "OK" if ratio >= 1 - args.tolerance else "REGRESSION"
        print(f"{config:>12}: baseline {base:12.1f}  current {cur:12.1f}  "
              f"({ratio:6.1%})  {verdict}")
        if verdict != "OK":
            failed = True

    for config in [c.strip() for c in args.latency_configs.split(",")
                   if c.strip()]:
        if config not in baseline:
            sys.exit(f"perf_gate: config '{config}' missing from "
                     f"{args.baseline}")
        if config not in current:
            sys.exit(f"perf_gate: config '{config}' missing from "
                     f"{args.current}")
        base = float(baseline[config]["p99"])
        cur = float(current[config]["p99"])
        if base <= 0:
            sys.exit(f"perf_gate: baseline p99 for '{config}' is "
                     f"non-positive ({base})")
        ratio = cur / base
        verdict = "OK" if ratio <= 1 + args.latency_tolerance else "REGRESSION"
        print(f"{config:>12}: baseline p99 {base:10.0f}ns  current p99 "
              f"{cur:10.0f}ns  ({ratio:6.1%})  {verdict}")
        if verdict != "OK":
            failed = True

    if failed:
        print("\nperf_gate: performance regressed beyond the allowed band "
              "of the pinned baseline.", file=sys.stderr)
        print("If the slowdown is intentional, regenerate the baseline with "
              "scripts/bench_baseline.sh and commit it.", file=sys.stderr)
        return 1
    print("\nperf_gate: all gated configs within tolerance.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
