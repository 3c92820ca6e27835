#!/usr/bin/env python3
"""Aggregates a Chrome trace written by bench_e2e --trace.

For every span name it reports the count, the total time and the self time
(the span's duration minus the time its direct children on the same thread
cover). Spans on one thread nest because they are RAII scopes, so a stack
walk over each thread's spans, sorted by start time, finds every parent.

It also reports `coverage`: the share of time inside the benchmark's own
`bench.*` spans (wrapped around each public call) that the program's spans
account for.

Usage: python3 bench/e2e/trace_agg.py TRACE.json
"""
import json
import sys
from collections import defaultdict


def aggregate(path):
    with open(path) as f:
        events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
    by_thread = defaultdict(list)
    for e in events:
        # ts/dur are microseconds printed with nanosecond resolution.
        start = round(e["ts"] * 1000)
        by_thread[e["tid"]].append((start, round(e["dur"] * 1000), e["name"]))

    spans = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
    bench_ns = 0
    bench_child_ns = 0
    for thread_spans in by_thread.values():
        thread_spans.sort(key=lambda s: (s[0], -s[1]))
        stack = []  # [end_ns, name, dur_ns, child_ns]

        def close(entry):
            nonlocal bench_ns, bench_child_ns
            _, name, dur, child = entry
            agg = spans[name]
            agg["count"] += 1
            agg["total_s"] += dur * 1e-9
            agg["self_s"] += (dur - child) * 1e-9
            if name.startswith("bench."):
                bench_ns += dur
                bench_child_ns += child

        for start, dur, name in thread_spans:
            while stack and stack[-1][0] <= start:
                close(stack.pop())
            if stack:
                stack[-1][3] += dur
            stack.append([start + dur, name, dur, 0])
        while stack:
            close(stack.pop())

    return {
        "spans_written": len(events),
        "coverage": bench_child_ns / bench_ns if bench_ns else 0.0,
        "spans": dict(spans),
    }


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    agg = aggregate(sys.argv[1])
    print(f"{'span':32} {'count':>8} {'total_s':>10} {'self_s':>10}")
    for name, s in sorted(agg["spans"].items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:32} {s['count']:>8} {s['total_s']:>10.4f} {s['self_s']:>10.4f}")
    print(f"spans written: {agg['spans_written']}, "
          f"coverage of bench.* spans: {agg['coverage']:.3f}")


if __name__ == "__main__":
    main()
