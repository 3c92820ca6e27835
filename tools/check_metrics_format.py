#!/usr/bin/env python3
"""Validates a live /metrics endpoint against the Prometheus text
exposition format (0.0.4) and the registry's own invariants.

Spawns the command given after `--` (typically tdb_serve with
--metrics-port and a --metrics-hold long enough to survive two
scrapes), polls the port until it answers, takes two scrapes a short
interval apart, then terminates the process. Hard-fails on:

  * malformed exposition lines, or samples without a # TYPE family;
  * illegal metric names ([a-zA-Z_:][a-zA-Z0-9_:]*);
  * counter samples that are not non-negative integers, or counter
    names missing the _total suffix;
  * histogram bucket series that are not cumulative, missing the +Inf
    bucket, or whose +Inf count disagrees with _count;
  * any counter that moved backwards between the two scrapes, or a
    required counter (REQUIRED_COUNTERS) missing from either scrape;
  * a /metrics.json body that does not parse as a JSON object with
    counters/gauges/histograms keys.

Usage:
  check_metrics_format.py --port 9464 [--timeout 30] [--interval 0.2] \
      -- build/tdb_serve --stream s.txt --metrics-port 9464 ...
"""

import argparse
import http.client
import json
import re
import subprocess
import sys
import time

NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})? "
    r"(?P<value>\S+)$"
)


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def fetch(port, path, timeout=5.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        conn.close()


def wait_for_port(port, process, deadline):
    while time.monotonic() < deadline:
        if process.poll() is not None:
            fail(f"server exited early with code {process.returncode}")
        try:
            status, _ = fetch(port, "/metrics", timeout=1.0)
            if status == 200:
                return
        except OSError:
            pass
        time.sleep(0.1)
    fail("server never answered /metrics")


def base_family(name):
    """The family a histogram series line belongs to."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def parse_exposition(body):
    """Returns (types: name -> type, samples: list of (name, labels,
    value_str)) after validating line-level syntax."""
    types = {}
    samples = []
    for lineno, line in enumerate(body.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) != 4:
                fail(f"line {lineno}: malformed TYPE: {line!r}")
            _, _, name, mtype = parts
            if not NAME_RE.match(name):
                fail(f"line {lineno}: illegal metric name {name!r}")
            if mtype not in ("counter", "gauge", "histogram", "summary",
                            "untyped"):
                fail(f"line {lineno}: unknown type {mtype!r}")
            if name in types:
                fail(f"line {lineno}: duplicate TYPE for {name}")
            types[name] = mtype
            continue
        if line.startswith("# HELP "):
            if len(line.split(" ", 3)) < 4:
                fail(f"line {lineno}: malformed HELP: {line!r}")
            continue
        if line.startswith("#"):
            continue  # comment
        m = SAMPLE_RE.match(line)
        if not m:
            fail(f"line {lineno}: malformed sample: {line!r}")
        name = m.group("name")
        family = base_family(name)
        if name not in types and family not in types:
            fail(f"line {lineno}: sample {name} has no TYPE family")
        try:
            float(m.group("value"))
        except ValueError:
            if m.group("value") != "+Inf":
                fail(f"line {lineno}: non-numeric value: {line!r}")
        samples.append((name, m.group("labels"), m.group("value")))
    return types, samples


def collect_counters(types, samples):
    counters = {}
    for name, labels, value in samples:
        if types.get(name) != "counter":
            continue
        if not name.endswith("_total"):
            fail(f"counter {name} does not end in _total")
        if labels is not None:
            fail(f"counter {name} unexpectedly carries labels")
        try:
            numeric = int(value)
        except ValueError:
            fail(f"counter {name} value {value!r} is not an integer")
        if numeric < 0:
            fail(f"counter {name} is negative: {numeric}")
        counters[name] = numeric
    return counters


# Counters every tdb_serve scrape must expose (beyond the generic checks,
# which already hold every exposed counter to monotonicity).
REQUIRED_COUNTERS = ("tdb_service_probe_dfs_total",
                     "tdb_service_admission_probes_total",
                     "tdb_service_admission_probe_dfs_total",
                     "tdb_service_augment_nanoseconds_total",
                     "tdb_service_publish_nanoseconds_total")


def require_counters(counters, scrape):
    for name in REQUIRED_COUNTERS:
        if name not in counters:
            fail(f"{scrape} scrape lacks counter {name}")


LE_RE = re.compile(r'^le="(?P<le>[^"]+)"$')


def check_histograms(types, samples):
    series = {}  # family -> {"buckets": [(le, count)], "count": int}
    for name, labels, value in samples:
        family = base_family(name)
        if types.get(family) != "histogram":
            continue
        entry = series.setdefault(family, {"buckets": [], "count": None})
        if name.endswith("_bucket"):
            m = LE_RE.match(labels or "")
            if not m:
                fail(f"histogram {family}: bucket without le label")
            entry["buckets"].append((m.group("le"), int(value)))
        elif name.endswith("_count"):
            entry["count"] = int(value)
    for family, entry in series.items():
        buckets = entry["buckets"]
        if not buckets or buckets[-1][0] != "+Inf":
            fail(f"histogram {family}: missing +Inf bucket")
        previous_le = None
        previous_count = -1
        for le, count in buckets:
            if count < previous_count:
                fail(f"histogram {family}: buckets not cumulative at "
                     f"le={le}")
            if le != "+Inf":
                le_value = float(le)
                if previous_le is not None and le_value <= previous_le:
                    fail(f"histogram {family}: le edges not increasing")
                previous_le = le_value
            previous_count = count
        if entry["count"] is None:
            fail(f"histogram {family}: missing _count")
        if buckets[-1][1] != entry["count"]:
            fail(f"histogram {family}: +Inf bucket {buckets[-1][1]} != "
                 f"_count {entry['count']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="seconds to wait for the port")
    parser.add_argument("--interval", type=float, default=0.2,
                        help="seconds between the two scrapes")
    parser.add_argument("command", nargs="+",
                        help="server command (after --)")
    args = parser.parse_args()

    process = subprocess.Popen(args.command)
    try:
        wait_for_port(args.port, process,
                      time.monotonic() + args.timeout)

        status, first_body = fetch(args.port, "/metrics")
        if status != 200:
            fail(f"first scrape returned {status}")
        first_types, first_samples = parse_exposition(first_body)
        if not first_samples:
            fail("first scrape exposed no samples")
        check_histograms(first_types, first_samples)
        first_counters = collect_counters(first_types, first_samples)
        require_counters(first_counters, "first")

        time.sleep(args.interval)
        status, second_body = fetch(args.port, "/metrics")
        if status != 200:
            fail(f"second scrape returned {status}")
        second_types, second_samples = parse_exposition(second_body)
        check_histograms(second_types, second_samples)
        second_counters = collect_counters(second_types, second_samples)
        require_counters(second_counters, "second")

        for name, first_value in first_counters.items():
            second_value = second_counters.get(name)
            if second_value is None:
                fail(f"counter {name} vanished between scrapes")
            if second_value < first_value:
                fail(f"counter {name} moved backwards: "
                     f"{first_value} -> {second_value}")

        status, json_body = fetch(args.port, "/metrics.json")
        if status != 200:
            fail(f"/metrics.json returned {status}")
        try:
            dump = json.loads(json_body)
        except json.JSONDecodeError as error:
            fail(f"/metrics.json is not valid JSON: {error}")
        for key in ("counters", "gauges", "histograms"):
            if key not in dump:
                fail(f"/metrics.json missing {key!r}")

        print(f"OK: {len(first_samples)} samples, "
              f"{len(first_counters)} counters monotonic across scrapes, "
              f"{sum(1 for t in first_types.values() if t == 'histogram')}"
              f" histograms well-formed")
    finally:
        process.terminate()
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


if __name__ == "__main__":
    main()
