#!/usr/bin/env python3
"""End-to-end benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload oneshot-rmat16 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. Builds the benchmark from source (CMake,
Release) under .bench_build/, runs one workload in a fresh working directory
under .bench_build/, removes that directory, and prints its result
as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 1 the Chrome trace of the benchmark's spans is kept at
.bench_build/traces/<workload>-seed<n>.json. Exits non-zero without a result
line when the build, the run or the result check fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("oneshot-rmat16", "oneshot-mesh200k", "stream-lfr100k", "service-lfr20k")
RUN_TIMEOUT_S = 170


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.abspath(os.path.join(root, "perfbench"))


def build():
    """Configures and builds the benchmark; both steps are quick when up to date."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log = open(os.path.join(os.path.dirname(out), "perfbench-build.log"), "a")
    try:
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log)
        subprocess.run(["cmake", "--build", out, "--target", "dlouvain_perfbench", "-j", "4"],
                       check=True, stdout=log, stderr=log)
    finally:
        log.close()
    return os.path.join(out, "dlouvain_perfbench")


def run_benchmark(exe, args, extra=()):
    """Runs one workload in a fresh working directory; returns its stdout lines."""
    work = os.path.join(os.path.dirname(build_dir()), "work-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    try:
        proc = subprocess.run(cmd, cwd=work, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        raise RuntimeError("benchmark exited with code %d" % proc.returncode)
    return proc.stdout.splitlines()


def check_result(line, trace):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise RuntimeError("unexpected result keys %s" % sorted(result))
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        raise RuntimeError("metrics differ from BENCHMARK.json: %s" %
                           sorted(set(got.items()) ^ set(want.items())))
    if result["attempted"] < 1:
        raise RuntimeError("no operation attempted")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        exe = build()
        extra = []
        if args.trace:
            traces = os.path.join(os.path.dirname(build_dir()), "traces")
            os.makedirs(traces, exist_ok=True)
            extra = ["--trace-out", os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
        lines = run_benchmark(exe, args, extra)
        if not lines:
            raise RuntimeError("benchmark printed nothing")
        result = check_result(lines[-1], args.trace)
    except (OSError, subprocess.SubprocessError, RuntimeError, ValueError) as err:
        print("perfbench: %s" % err, file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
