"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The unit tests run in well under a second. EmittedMetricsTest builds mgbench
and runs every workload once timed and once traced, one to two minutes on a
4-core machine.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def rep(fnv="aa", json_fnv=None, checks=()):
    r = {"run_s": 2.0, "sim_s": 70.0, "fnv1a": fnv, "peak_rss_kb": 2048.0,
         "setup_s": [0.1, 0.2, 0.3], "failed_checks": list(checks)}
    if json_fnv is not None:
        r["json_fnv1a"] = json_fnv
    return r


class SpecTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def test_metric_and_workload_names_are_valid_and_unique(self):
        names = [w["name"] for w in self.spec["workloads"]]
        names += [m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]]
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_units_and_bounds(self):
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for m in self.spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in self.spec["end_to_end"]))

    def test_workloads_match_the_runner(self):
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]), run.WORKLOADS)


class OutputCheckTest(unittest.TestCase):
    def setUp(self):
        spec = run.load_spec()
        self.names = [m["name"] for m in spec["end_to_end"]]
        self.units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    def finish(self, reps):
        values, failed = run.end_to_end(reps)
        return run.result(values, self.names, self.units, len(reps), failed)

    def test_agreeing_repetitions_pass_and_emit_every_metric(self):
        res = self.finish([rep(), rep(), rep()])
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertEqual(sorted(res["metrics"]), sorted(self.names))
        self.assertAlmostEqual(res["metrics"]["sim_per_wall"]["value"], 35.0)
        self.assertAlmostEqual(res["metrics"]["peak_rss_mb"]["value"], 2.0)

    def test_forced_fingerprint_mismatch_is_a_failure(self):
        res = self.finish([rep("aa"), rep("aa"), rep("bb")])
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)

    def test_forced_campaign_json_mismatch_is_a_failure(self):
        res = self.finish([rep(json_fnv="x"), rep(json_fnv="y")])
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)

    def test_failed_output_check_is_a_failure(self):
        res = self.finish([rep(), rep(checks=["acked_le_sent"])])
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)

    def test_missing_metric_is_an_error(self):
        with self.assertRaises(RuntimeError):
            run.result({"setup_s": 1.0}, self.names, self.units, 1, 0)


class EmittedMetricsTest(unittest.TestCase):
    """Every listed metric is emitted, by name and unit, for every workload."""

    def bench(self, workload, trace):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "3", "--seconds", "1", "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=900)
        self.assertEqual(proc.returncode, 0)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_every_workload(self):
        spec = run.load_spec()
        for w in run.WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    res = self.bench(w, trace)
                    self.assertEqual(sorted(res), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(res["correct"])
                    self.assertGreaterEqual(res["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in spec[section]}
                    got = {n: m["unit"] for n, m in res["metrics"].items()}
                    self.assertEqual(got, want)
                    for m in res["metrics"].values():
                        self.assertIsInstance(m["value"], (int, float))


if __name__ == "__main__":
    unittest.main()
