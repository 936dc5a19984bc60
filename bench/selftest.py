"""Self-test of the benchmark, at tiny sizes.

    python3 bench/selftest.py

Checks that every workload emits every metric of BENCHMARK.json with its
unit, that a deliberately wrong output makes the command fail, that inputs
depend only on the seed, and that the command refuses `python -O` and a
directory without the program.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(*args, python_flags=(), cwd=ROOT, script=os.path.join(BENCH, "run.py")):
    proc = subprocess.run(
        [sys.executable, *python_flags, script, "--seconds", "0.5", "--tiny", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


class WorkloadsEmitEveryMetric(unittest.TestCase):
    def check_run(self, workload, trace, section):
        code, lines = bench("--workload", workload, "--seed", "3", "--trace", str(trace))
        self.assertEqual(code, 0, lines[-6:])
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for m in result["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))
        self.assertTrue(any(line.startswith("env ") and '"input_digest"' in line for line in lines))

    def test_end_to_end_metrics(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 0, "end_to_end")

    def test_per_layer_metrics(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 1, "per_layer")


class WrongOutputFails(unittest.TestCase):
    def test_every_corrupted_output_is_caught(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = bench("--workload", workload, "--seed", "4", "--trace", "0", "--corrupt")
                self.assertEqual(code, 1)
                result = json.loads(lines[-1])
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], result["attempted"])


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in workloads.WORKLOADS:
            for tiny in (True, False):
                a = workloads.digest(workloads.build(workload, 7, tiny))
                self.assertEqual(a, workloads.digest(workloads.build(workload, 7, tiny)))
                self.assertNotEqual(a, workloads.digest(workloads.build(workload, 8, tiny)))

    def test_generated_inputs_are_zero_sum(self):
        for op in workloads.build("biject-scale", 5):
            if op[0] == "bij" and op[1] == "pair":
                fs, seq, bits = op[2], op[3], op[4]
                self.assertEqual(workloads.add(fs, workloads.vec_sum(fs, seq), workloads.vec_sum(fs, bits)), 0)
            elif op[0] == "bij":
                self.assertEqual(workloads.vec_sum(op[2], op[3]), 0, op[1])
            elif op[0] == "to_subset":
                self.assertTrue(workloads.is_dyck_word(op[2]))


class Refusals(unittest.TestCase):
    def test_refuses_optimized_interpreter(self):
        code, lines = bench("--workload", "verify-sweep", "--seed", "1", "--trace", "0",
                            python_flags=("-O",))
        self.assertEqual(code, 2)
        self.assertEqual(lines, [])

    def test_fails_without_program(self):
        with tempfile.TemporaryDirectory(prefix=".bench-selftest-", dir=ROOT) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH, os.path.join(bare, "bench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines = bench("--workload", "verify-sweep", "--seed", "1", "--trace", "0",
                                cwd=bare, script=os.path.join(bare, "bench", "run.py"))
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
