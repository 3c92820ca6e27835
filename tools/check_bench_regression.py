#!/usr/bin/env python3
"""Compare a benchmark's --json output against a committed baseline.

Usage:
  check_bench_regression.py --baseline bench/baselines/parallel_scaling.json \
      --current out/parallel_scaling.json [--max-slowdown 3.0]

Row semantics (see bench/bench_runner.h JsonSink):
  * the row with "row": "params" pins the benchmark's shape; it must match
    the baseline exactly, otherwise the comparison is meaningless and the
    script fails loudly rather than comparing apples to oranges;
  * the row with "row": "host" records where the bench ran (hardware
    threads, build type); it is printed for both files but not compared,
    and a baseline without one is accepted;
  * every other row is identified by its non-metric keys (algo, threads,
    ...) and carries the metrics "seconds", "speedup" and "cover".

Checks per baseline row:
  * presence — a row that disappeared is a regression;
  * cover    — exact match: the solvers are deterministic, so any drift in
               cover size is a correctness/quality regression, not noise;
  * seconds  — current <= baseline * max-slowdown + grace. The threshold
               is deliberately generous (default 3x plus a 50 ms absolute
               grace) so shared-runner noise does not flake the job while
               an accidental O(n) -> O(n^2) still fails it.

Speedup is reported but not gated here: the bench binary itself enforces
the TDB_BENCH_MIN_SPEEDUP floor where configured.
"""

import argparse
import json
import sys

# Latency percentiles (admit_p*_us) are machine-dependent measurements
# like seconds/speedup: excluded from row identity so runs with and
# without them still match the same baseline rows.
METRIC_KEYS = {"seconds", "speedup", "cover", "would_close",
               "admit_p50_us", "admit_p95_us", "admit_p99_us"}
ABSOLUTE_GRACE_SECONDS = 0.05


def identity(row):
    return tuple(sorted((k, v) for k, v in row.items()
                        if k not in METRIC_KEYS))


def load(path):
    with open(path) as f:
        doc = json.load(f)
    params = {}
    rows = {}
    host = None
    for row in doc.get("rows", []):
        tag = row.get("row")
        if tag == "host":
            host = {k: v for k, v in row.items() if k != "row"}
        elif tag is not None:
            # A tagged row ("params", "admit_params", ...) pins benchmark
            # shape rather than carrying metrics.
            params[tag] = {k: v for k, v in row.items() if k != "row"}
        else:
            rows[identity(row)] = row
    return doc.get("bench", "?"), params or None, rows, host


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True)
    parser.add_argument("--max-slowdown", type=float, default=3.0)
    args = parser.parse_args()

    base_name, base_params, base_rows, base_host = load(args.baseline)
    cur_name, cur_params, cur_rows, cur_host = load(args.current)

    failures = []
    if base_name != cur_name:
        failures.append(f"bench name mismatch: {base_name} vs {cur_name}")
    if base_params != cur_params:
        failures.append(
            f"benchmark shape changed: baseline params {base_params} vs "
            f"current {cur_params}; regenerate the baseline")

    print(f"== {cur_name}: {len(base_rows)} baseline rows, "
          f"max slowdown {args.max_slowdown:.2f}x ==")
    print(f"  host: baseline {base_host or 'not recorded'}, "
          f"current {cur_host or 'not recorded'}")
    for key, base in sorted(base_rows.items()):
        label = " ".join(f"{k}={v}" for k, v in key)
        cur = cur_rows.get(key)
        if cur is None:
            failures.append(f"missing row: {label}")
            continue
        allowed = (base["seconds"] * args.max_slowdown +
                   ABSOLUTE_GRACE_SECONDS)
        ratio = (cur["seconds"] / base["seconds"]
                 if base["seconds"] > 0 else float("inf"))
        verdict = "ok"
        if cur["seconds"] > allowed:
            verdict = "SLOW"
            failures.append(
                f"{label}: {cur['seconds']:.3f}s vs baseline "
                f"{base['seconds']:.3f}s (allowed {allowed:.3f}s)")
        if cur.get("cover") != base.get("cover"):
            verdict = "COVER"
            failures.append(
                f"{label}: cover {cur.get('cover')} != baseline "
                f"{base.get('cover')} (deterministic output drifted)")
        # would_close is a deterministic verdict count (admission mode
        # rows): like cover, any drift is a correctness regression.
        if cur.get("would_close") != base.get("would_close"):
            verdict = "VERDICTS"
            failures.append(
                f"{label}: would_close {cur.get('would_close')} != "
                f"baseline {base.get('would_close')} (admission verdicts "
                f"drifted)")
        print(f"  {label:<30} {cur['seconds']:>8.3f}s "
              f"({ratio:>5.2f}x of baseline, "
              f"speedup {cur.get('speedup', 0):.2f}x) {verdict}")

    if failures:
        print("\nFAILURES:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("all rows within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
