#!/usr/bin/env python3
"""Builds and runs the daisy source-to-result benchmark (see README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve --seed 1 --seconds 25 --trace 0

The benchmark is compiled from the checkout's own sources into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
With --trace 1 the run also writes a Chrome trace next to the build and
checks that it parses as JSON.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cloudsc", "serve")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the benchmark; build output -> stderr."""
    if not os.path.isdir(os.path.join(os.path.dirname(BENCH_DIR), "src")):
        fail("no daisy sources next to the benchmark (expected ../src)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def check_trace(path):
    """The Chrome trace must parse and hold the benchmark's own spans."""
    try:
        with open(path, encoding="utf-8") as f:
            trace = json.load(f)
    except (OSError, ValueError) as e:
        print("perfbench: trace %s does not parse: %s" % (path, e),
              file=sys.stderr)
        return False
    bench = sum(1 for e in trace.get("traceEvents", [])
                if e.get("cat") == "bench" and e.get("ph") == "B")
    print("perfbench: trace %s parses: %d events, %d bench spans"
          % (path, len(trace.get("traceEvents", [])), bench), file=sys.stderr)
    return bench > 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in [1, 60]")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    exe = build(build_dir)

    trace_file = os.path.join(
        build_dir, "trace_%s_%d.json" % (args.workload, args.seed))
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-file", trace_file]
    # Threads are pinned by the benchmark itself; keep the library's
    # environment hooks (thread count, tracing, fail points) out of the run.
    env = {k: v for k, v in os.environ.items() if not k.startswith("DAISY_")}
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail("benchmark exited with code %d" % done.returncode)
    result = json.loads(lines[-1])
    if args.trace and not check_trace(trace_file):
        result["correct"] = False
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
