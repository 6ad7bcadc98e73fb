#!/usr/bin/env python3
"""Tests of the benchmark itself (see perfbench/README.md).

    python3 perfbench/test_perfbench.py

Run from the root of a source checkout. Builds the benchmark like run.py does,
then runs each workload briefly. Takes a few minutes.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

with open(os.path.join(run.HERE, "..", "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)
NAME = re.compile(r"[A-Za-z0-9_.-]+")
REPEATABLE_TRACED = ("comm.messages", "comm.bytes", "core.phases", "core.iterations")


def bench_lines(*args):
    """Runs the benchmark binary in a fresh empty directory; returns its stdout lines."""
    work = os.path.join(os.path.dirname(run.build_dir()), "test-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        proc = subprocess.run([EXE, *map(str, args)], cwd=work, stdout=subprocess.PIPE,
                              text=True, timeout=run.RUN_TIMEOUT_S, check=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return proc.stdout.splitlines()


def measure(workload, seed, trace):
    lines = bench_lines("--workload", workload, "--seed", seed, "--seconds", 1,
                         "--trace", trace)
    result = run.check_result(lines[-1], trace)
    inputs = [l[len("inputs: "):] for l in lines if l.startswith("inputs: ")]
    return result, json.loads(inputs[0])


def describe(workload, seed):
    lines = bench_lines("--workload", workload, "--seed", seed, "--seconds", 1,
                         "--trace", 0, "--describe-inputs")
    return json.loads(lines[-1])


class MetricNames(unittest.TestCase):
    def test_names_are_well_formed_and_unique(self):
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        names += [w["name"] for w in SPEC["workloads"]]
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)))

    def test_workloads_match_runner(self):
        self.assertEqual(tuple(w["name"] for w in SPEC["workloads"]), run.WORKLOADS)


class Workloads(unittest.TestCase):
    """Two runs per workload and mode with one seed, one with another seed."""

    def check_workload(self, workload):
        first, inputs = measure(workload, 5, 0)
        second, inputs_again = measure(workload, 5, 0)
        for result in (first, second):
            self.assertTrue(result["correct"], result)
            self.assertEqual(result["failed"], 0)
            for m in result["metrics"].values():
                self.assertGreater(m["value"], 0)
        self.assertEqual(first["metrics"]["modularity"]["value"],
                         second["metrics"]["modularity"]["value"])

        traced, traced_inputs = measure(workload, 5, 1)
        traced_again, _ = measure(workload, 5, 1)
        for name in REPEATABLE_TRACED:
            self.assertEqual(traced["metrics"][name]["value"],
                             traced_again["metrics"][name]["value"], name)
            self.assertGreater(traced["metrics"][name]["value"], 0, name)

        # What the program was handed is exactly what the seed generates
        # without calling the program, and only that.
        generated = describe(workload, 5)
        self.assertEqual(inputs, generated)
        self.assertEqual(inputs_again, generated)
        self.assertEqual(traced_inputs, generated)
        self.assertNotEqual(describe(workload, 6), generated)

    def test_oneshot_rmat16(self):
        self.check_workload("oneshot-rmat16")

    def test_oneshot_mesh200k(self):
        self.check_workload("oneshot-mesh200k")

    def test_stream_lfr100k(self):
        self.check_workload("stream-lfr100k")

    def test_service_lfr20k(self):
        self.check_workload("service-lfr20k")


if __name__ == "__main__":
    EXE = run.build()
    unittest.main()
