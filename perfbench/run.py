#!/usr/bin/env python3
"""Builds and runs the Swift-Sim benchmark for one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rtx2080ti --seed 1 --seconds 42 --trace 0

The first run configures and builds perfbench/ (the simulator sources plus
the benchmark) into .bench_build, or into $CARGO_TARGET_DIR when that is
set; later runs rebuild only what changed. Each run then executes the
benchmark's arithmetic self-test and one swiftbench process, and prints as
its last stdout line the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics; the traced run also writes a Chrome
trace-event file to <build dir>/traces/. Exits non-zero, without a result,
when the sources are missing, the build or self-test fails, the benchmark
fails a correctness check, or its output does not match BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, what):
    """Runs a build step with its output on stderr, so stdout stays clean."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          check=False)
    if proc.returncode != 0:
        fail(f"{what} failed (exit {proc.returncode})")


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "swiftsim", "simulator.h")):
        fail("no Swift-Sim sources under ./src; run from a checkout's root")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], "cmake configure")
    run_quiet(["cmake", "--build", build_dir, "-j4"], "build")
    run_quiet([os.path.join(build_dir, "perfbench_selftest"),
               "--gtest_brief=1"], "self-test")


def source_digest():
    """SHA-256 over the simulator and benchmark sources, for provenance
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_provenance():
    """(sha, dirty) of the checkout, or ("none", False) outside git."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True,
                             timeout=10).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True, check=True,
                                timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return "none", False
    return sha, bool(status.strip())


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"], spec["workloads"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    metrics, workloads = expected_metrics(args.trace)
    if args.workload not in {w["name"] for w in workloads}:
        fail(f"unknown workload '{args.workload}'")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    build(build_dir)

    sha, dirty = git_provenance()
    cmd = [os.path.join(build_dir, "swiftbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", sha, "--git-dirty", "1" if dirty else "0",
           "--source-digest", source_digest()]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"swiftbench did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        # The output, with any failed checks' result object, is shown as
        # it came; the run has no valid result.
        sys.stderr.write(proc.stdout)
        fail(f"swiftbench exited {proc.returncode}")
    for line in lines[:-1]:
        print(line)

    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result object has the wrong keys")
    got = result["metrics"]
    for m in metrics:
        if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]:
            fail(f"metric {m['name']} missing or not in {m['unit']}")
    result["metrics"] = {m["name"]: got[m["name"]] for m in metrics}
    extra = sorted(set(got) - set(result["metrics"]))
    if extra:
        fail("metrics not declared in BENCHMARK.json: " + ", ".join(extra))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
