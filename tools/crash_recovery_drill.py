#!/usr/bin/env python3
"""Kill/restart drill for the durable cycle-break service.

For each (seed, durability) configuration this script:
  1. generates a timestamped edge stream (tdb_graphgen --stream);
  2. runs tdb_serve --data-dir once, uninterrupted, and keeps its
     canonical --state-dump as the oracle;
  3. replays the same command line against a fresh store, SIGKILLing the
     process after a randomized number of batches (tdb_serve
     --kill-after raises SIGKILL on itself — no flush, no destructor),
     optionally tearing extra bytes off the journal tail between
     restarts, and rerunning until a run completes;
  4. hard-fails unless the crashed-and-recovered state dump is
     byte-identical to the uninterrupted one (epoch, base checksum,
     delta, base cover and S/W sets all included).

Runs use --sync-compaction so the epoch sequence is deterministic and
--admit-threads 0 so the comparison is pure ingest state. They also pass
--admission-index 8, so every restart builds the landmark index on its
one recovery publish; state dumps do not depend on the index. The stream
is consumed verbatim (no --gate), matching the resume arithmetic.

Usage:
  crash_recovery_drill.py --serve build/tdb_serve \
      --graphgen build/tdb_graphgen --workdir out/drill \
      [--seeds 3] [--durability batch,always] [--events 600]
"""

import argparse
import os
import random
import shutil
import signal
import subprocess
import sys
import zlib

JOURNAL_HEADER_BYTES = 16  # "TDBJ" + version u32 + base_seq u64


def run(cmd, **kwargs):
    return subprocess.run(cmd, capture_output=True, text=True, **kwargs)


def generate_stream(graphgen, path, n, m, seed):
    result = run([graphgen, "--er", str(n), str(m), "--stream",
                  "--seed", str(seed), "--out", path])
    if result.returncode != 0:
        sys.exit(f"graphgen failed: {result.stderr}")


def serve_cmd(serve, stream, data_dir, durability, dump=None,
              kill_after=None):
    cmd = [serve, "--stream", stream, "--k", "4", "--batch", "16",
           "--admit-threads", "0", "--sync-compaction",
           "--compact-threshold", "64", "--admission-index", "8",
           "--data-dir", data_dir, "--durability", durability]
    if dump:
        cmd += ["--state-dump", dump]
    if kill_after:
        cmd += ["--kill-after", str(kill_after)]
    return cmd


def tear_journal_tail(data_dir, rng):
    """Simulates a torn write: drops 1..12 bytes off the journal tail
    (never into the fsync'd header — a manifest-named journal always has
    a durable header, so tearing it would simulate impossible damage)."""
    journals = [f for f in os.listdir(data_dir) if f.startswith("journal-")]
    if len(journals) != 1:
        return False
    path = os.path.join(data_dir, journals[0])
    size = os.path.getsize(path)
    if size <= JOURNAL_HEADER_BYTES:
        return False
    cut = min(rng.randint(1, 12), size - JOURNAL_HEADER_BYTES)
    with open(path, "ab") as f:
        f.truncate(size - cut)
    return True


def drill_one(args, seed, durability):
    tag = f"seed{seed}-{durability}"
    workdir = os.path.join(args.workdir, tag)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    stream = os.path.join(workdir, "stream.txt")
    generate_stream(args.graphgen, stream, args.vertices, args.events, seed)

    # Oracle: one uninterrupted durable run.
    ref_dump = os.path.join(workdir, "ref-state.txt")
    result = run(serve_cmd(args.serve, stream,
                           os.path.join(workdir, "ref-store"), durability,
                           dump=ref_dump))
    if result.returncode != 0:
        sys.exit(f"[{tag}] reference run failed:\n{result.stderr}")

    # Crash loop: kill at randomized batch offsets until a run finishes.
    # The derivation must be stable across interpreter runs (str hash is
    # salted per process) so a failing drill reproduces from its seed.
    rng = random.Random(seed * 7919 + zlib.crc32(durability.encode()))
    crash_store = os.path.join(workdir, "crash-store")
    crash_dump = os.path.join(workdir, "crash-state.txt")
    kills = 0
    tears = 0
    for attempt in range(args.max_restarts):
        kill_after = rng.randint(1, args.kill_span)
        result = run(serve_cmd(args.serve, stream, crash_store, durability,
                               dump=crash_dump, kill_after=kill_after))
        if result.returncode == 0:
            break
        if result.returncode != -signal.SIGKILL:
            sys.exit(f"[{tag}] unexpected exit {result.returncode}:\n"
                     f"{result.stderr}")
        kills += 1
        if rng.random() < 0.5 and tear_journal_tail(crash_store, rng):
            tears += 1
    else:
        sys.exit(f"[{tag}] did not complete in {args.max_restarts} "
                 f"restarts")

    with open(ref_dump) as f:
        ref = f.read()
    with open(crash_dump) as f:
        crash = f.read()
    if ref != crash:
        print(f"[{tag}] RECOVERED STATE DIVERGES after {kills} kills:",
              file=sys.stderr)
        for i, (a, b) in enumerate(zip(ref.splitlines(),
                                       crash.splitlines())):
            if a != b:
                print(f"  line {i + 1}: ref '{a}' vs crash '{b}'",
                      file=sys.stderr)
                break
        sys.exit(1)
    print(f"[{tag}] OK: {kills} kills, {tears} torn tails, "
          f"state bit-identical to the uninterrupted run")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--serve", required=True)
    parser.add_argument("--graphgen", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--durability", default="batch,always")
    parser.add_argument("--vertices", type=int, default=60)
    parser.add_argument("--events", type=int, default=600)
    parser.add_argument("--kill-span", type=int, default=12,
                        help="kill after 1..N batches of each attempt")
    parser.add_argument("--max-restarts", type=int, default=50)
    args = parser.parse_args()

    for seed in range(1, args.seeds + 1):
        for durability in args.durability.split(","):
            drill_one(args, seed, durability)
    print("crash-recovery drill: all configurations recovered exactly")


if __name__ == "__main__":
    main()
