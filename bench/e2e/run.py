#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (bench/e2e/bench_e2e.cc).

  python3 bench/e2e/run.py                      every workload, default seed
  python3 bench/e2e/run.py --repeat 5           5 seeds each; median, quartiles
                                                and spread of every metric
  python3 bench/e2e/run.py --trace              traced run: per-layer metrics
  python3 bench/e2e/run.py --workload W --seed S --seconds T --trace 0|1
                                                one run; the last stdout line
                                                is its JSON result
  python3 bench/e2e/run.py --pin                rewrite expected.json from the
                                                default seed, oracles forced

The build goes to build-e2e/ under the repository root; durable stores,
results and traces go there too.
Metric names, units and bounds come from BENCHMARK.json at the root. The
runner refuses a build that is not Release, and exits non-zero when any
check fails.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
PINS = HERE / "expected.json"
BUILD = ROOT / "build-e2e"
DEFAULT_SEED = 1
# A run takes about --seconds plus 15 s, a traced one about 45 s more; a
# run past this is stuck, and killing it keeps the whole invocation under
# three minutes.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds bench_e2e; output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "bench_e2e",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return BUILD / "bench_e2e"


def git_rev():
    # The ceiling keeps git from taking a repository above ROOT for ours.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def load_pins():
    return json.loads(PINS.read_text()) if PINS.exists() else {}


def run_workload(binary, spec, name, seed, seconds, trace, pinning=False):
    """One bench_e2e process. Returns its result dict with `correct` set.
    When `pinning`, the old pins are left out, so every oracle runs."""
    stem = f"{name}-seed{seed}-{os.getpid()}"
    result_file = BUILD / "results" / f"{stem}.json"
    trace_file = BUILD / "traces" / f"{stem}.trace.json"
    work_dir = BUILD / "work" / stem
    result_file.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--json", str(result_file),
           "--work-dir", str(work_dir)]
    pins = load_pins()
    if not pinning and name in pins:
        # The solve input and its cover do not depend on the seed: the
        # first part of each digest holds for every seed.
        first = [pins[name][k].split(";")[0] for k in ("inputs", "outputs")]
        cmd += ["--expect-solve", ";".join(first)]
        if seed == pins["seed"]:
            cmd += ["--expect-inputs", pins[name]["inputs"],
                    "--expect-outputs", pins[name]["outputs"]]
    if trace:
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", str(trace_file)]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr,
                              timeout=max(RUN_TIMEOUT_S, 4 * seconds))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"bench_e2e {name} timed out") from None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if not result_file.exists():
        raise RuntimeError(f"bench_e2e {name} exited {proc.returncode} "
                           "without a result")
    res = json.loads(result_file.read_text())
    res["host"]["git_rev"] = git_rev()
    checks = res["checks"]
    if res["host"]["build_type"] != "Release":
        checks.append({"name": "release_build", "ok": False,
                       "detail": f"refusing a {res['host']['build_type']} build"})
    if trace and trace_file.exists():
        add_trace_metrics(res, spec, trace_file, checks)
    res["correct"] = proc.returncode == 0 and all(c["ok"] for c in checks)
    result_file.write_text(json.dumps(res, indent=1))
    return res


def add_trace_metrics(res, spec, trace_file, checks):
    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
    sys.path.insert(0, str(HERE))
    from trace_agg import aggregate
    agg = aggregate(trace_file)
    metrics = res["metrics"]
    for m in spec["per_layer"]:
        if m["name"].endswith(".self_s"):
            span = agg["spans"].get(m["name"][:-len(".self_s")])
            metrics[m["name"]] = span["self_s"] if span else 0.0
    dropped = metrics["trace.total_spans"] - agg["spans_written"]
    metrics["trace.dropped_spans"] = dropped
    metrics["trace.coverage"] = agg["coverage"]
    checks.append({"name": "trace_complete", "ok": dropped == 0,
                   "detail": f"{dropped} spans dropped"})


def select_metrics(res, spec, trace):
    """The listed metrics of one run, or None if the run stopped early."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    if any(m["name"] not in res["metrics"] for m in listed):
        return None
    return {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]}
            for m in listed}


def print_run(res, metrics):
    host = res["host"]
    print(f"== {res['workload']} seed={res['seed']} nproc={host['nproc']} "
          f"build={host['build_type']} compiler={host['compiler']} "
          f"rev={host['git_rev']} oracle={'ran' if res['oracle'] else 'pinned'}"
          f" correct={res['correct']}")
    for c in res["checks"]:
        if not c["ok"]:
            print(f"   CHECK FAILED {c['name']}: {c['detail']}")
    for name, m in metrics.items():
        print(f"   {name:32} {m['value']:>16.6g} {m['unit']}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(spec, runs, trace, show):
    """Median per workload and metric; with `show`, prints the median,
    quartiles and spread (IQR / median) of each."""
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    if show:
        print(f"\n{'workload':10} {'metric':32} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>8} {'bound':>6}")
    summary = {}
    for workload, results in runs.items():
        metrics = [select_metrics(r, spec, trace) for r in results]
        for name, first in metrics[0].items():
            values = [m[name]["value"] for m in metrics]
            q1, q2, q3 = quartiles(values)
            spread = (q3 - q1) / q2 if q2 else 0.0
            bound = bounds.get(name)
            flag = " <-- over bound/3" if bound and spread > bound / 3 else ""
            if show:
                print(f"{workload:10} {name:32} {q2:>12.6g} {q1:>12.6g} "
                      f"{q3:>12.6g} {spread:>8.2%} "
                      f"{'' if bound is None else f'{bound:.2f}':>6}{flag}")
            summary[f"{workload}.{name}"] = {"value": q2, "unit": first["unit"]}
    return summary


def pin(binary, spec, seconds):
    pins = {"seed": DEFAULT_SEED}
    for w in spec["workloads"]:
        res = run_workload(binary, spec, w["name"], DEFAULT_SEED, seconds,
                           False, pinning=True)
        if not res["correct"]:
            sys.exit(f"cannot pin {w['name']}: checks failed")
        pins[w["name"]] = {"inputs": res["inputs"], "outputs": res["outputs"]}
    PINS.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"wrote {PINS}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        choices=["0", "1"],
                        help="traced run reporting the per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds seed..seed+N-1")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite expected.json (default seed, oracles on)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1 or args.repeat < 1:
        parser.error("--seed, --seconds and --repeat must be positive")
    trace = args.trace == "1"

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"build failed: {e}")
    if args.pin:
        pin(binary, spec, args.seconds)
        return 0

    workloads = [args.workload] if args.workload else names
    runs = {}
    for name in workloads:
        for i in range(args.repeat):
            started = time.time()
            try:
                res = run_workload(binary, spec, name, args.seed + i,
                                   args.seconds, trace)
            except RuntimeError as e:
                sys.exit(str(e))
            metrics = select_metrics(res, spec, trace)
            print_run(res, metrics or {})
            print(f"   ({time.time() - started:.1f} s)", flush=True)
            if metrics is None:
                sys.exit(f"{name} seed {args.seed + i} stopped before "
                         "reporting its metrics")
            runs.setdefault(name, []).append(res)

    results = [r for rs in runs.values() for r in rs]
    if len(results) == 1:
        metrics = select_metrics(results[0], spec, trace)
    else:
        metrics = summarize(spec, runs, trace, show=args.repeat > 1)
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
