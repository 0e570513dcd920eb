#!/usr/bin/env python3
"""Builds the perfbench binary in the Release configuration and runs one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload serve-wide --seed 1 --seconds 45 --trace 0
  python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the current
directory; the binary's temporary artifact store and span files go there too.
The binary prints every metric it measured, by name, as its last line.
BENCHMARK.json at the repository root is the one list of workloads, metrics
and units:
this script keeps the end-to-end set (--trace 0) or the per-layer set
(--trace 1), attaches each unit, and prints the result as its own last line.
A metric the workload does not reach prints 0. A failed build, a binary that
prints no result, or a name BENCHMARK.json does not list exits non-zero with
no result line.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, "..", "BENCHMARK.json")


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(step))
            return None
    return os.path.join(build_dir, "perfbench")


def main(argv):
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    with open(SPEC) as f:
        spec = json.load(f)
    selftest = "--selftest" in argv
    if not selftest:
        workloads = [w["name"] for w in spec["workloads"]]
        try:
            workload = argv[argv.index("--workload") + 1]
        except (ValueError, IndexError):
            workload = None
        if workload not in workloads:
            sys.stderr.write("perfbench: --workload must be one of %s\n" % ", ".join(workloads))
            return 2
    binary = build(build_dir)
    if binary is None:
        return 1
    command = [binary] + list(argv) + ["--out-dir", build_dir]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0 or selftest:
        sys.stdout.write(done.stdout)
        return done.returncode
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write("perfbench: the binary printed no result line\n")
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write("perfbench: malformed result line\n")
        return 1
    listed = spec["end_to_end"] + spec["per_layer"]
    unknown = sorted(set(result["metrics"]) - {m["name"] for m in listed})
    if unknown:
        sys.stderr.write("perfbench: metrics not in BENCHMARK.json: %s\n" % ", ".join(unknown))
        return 1
    trace = argv[argv.index("--trace") + 1] == "1" if "--trace" in argv else False
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = result["metrics"].get(m["name"], 0)
        if not isinstance(value, (int, float)):
            sys.stderr.write("perfbench: %s is not a number: %r\n" % (m["name"], value))
            return 1
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    sys.stdout.write("\n".join(lines[:-1] + [""]))
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
