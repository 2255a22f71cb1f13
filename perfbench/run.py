#!/usr/bin/env python3
"""Build and run the end-to-end dashboard benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload crossfilter_server --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

The first call configures and builds the library modules and the driver with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later
calls rebuild incrementally. Build output goes to standard error. The
driver's report goes to standard output, and its result JSON is the last
line. --smoke runs every workload at a tiny size, untraced and traced, and
checks that each emits every metric BENCHMARK.json names, with its unit, and
that the output oracle passes.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["crossfilter_server", "crossfilter_client", "crossfilter_shard", "dashboard_fleet"]
RUN_TIMEOUT_S = 170
SMOKE_ARGS = ["--rows", "20000", "--session-interactions", "4", "--max-sessions", "2",
              "--setups", "1", "--seconds", "6"]


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")


def build():
    bdir = build_dir()
    configure = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")) and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(len(os.sched_getaffinity(0)))
    for cmd in (configure, ["cmake", "--build", bdir, "-j", jobs, "--target", "perfbench"]):
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    return os.path.join(bdir, "perfbench")


def run_driver(exe, args):
    """Run the driver; return (report lines, result dict)."""
    out_dir = os.path.join(build_dir(), "out")
    os.makedirs(out_dir, exist_ok=True)
    proc = subprocess.run([exe] + args + ["--out-dir", out_dir], stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"driver exited with code {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    return lines[:-1], result


def declared_metrics(trace):
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def smoke(exe):
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = ["--workload", workload, "--seed", "1", "--trace", str(trace)] + SMOKE_ARGS
            _, result = run_driver(exe, args)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            want = declared_metrics(trace)
            problems = []
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                units = sorted(n for n in set(got) & set(want) if got[n] != want[n])
                problems.append(f"metrics differ: missing {missing}, extra {extra}, unit {units}")
            if not result["correct"]:
                problems.append("output oracle failed")
            if result["failed"]:
                problems.append(f"{result['failed']} of {result['attempted']} failed")
            print(f"smoke {workload} trace={trace}: {'; '.join(problems) or 'ok'}")
            ok = ok and not problems
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    try:
        exe = build()
        if args.smoke:
            return 0 if smoke(exe) else 1
        report, result = run_driver(exe, ["--workload", args.workload, "--seed", str(args.seed),
                                          "--seconds", str(args.seconds),
                                          "--trace", str(args.trace)])
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, RuntimeError, ValueError,
            OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    for line in report:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
