"""Tests of the benchmark itself (kept out of the repository's test suite):

    python3 perfbench/selftest.py

They check BENCHMARK.json against the benchmark's own metric names, show
that every correctness check passes real program output and rejects a
deliberately perturbed copy of it, and that the benchmark refuses to run
without the program's sources.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from boxdet import success  # noqa: E402
from boxdet.gaussbox import IntegratorConfig  # noqa: E402
from boxdet.model import BoxConstraint, parse_pattern  # noqa: E402
from boxdet.rng import RngStream  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
END_TO_END = {"setup_s", "ops_per_s", "pbr_stderr", "peak_rss_mb"}


class BenchmarkJson(unittest.TestCase):
    def setUp(self):
        self.doc = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_keys_command_and_paths(self):
        self.assertEqual(set(self.doc), {"command", "paths", "run_seconds", "workloads",
                                         "end_to_end", "per_layer"})
        self.assertEqual(self.doc["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(self.doc["paths"], ["perfbench"])
        self.assertIsInstance(self.doc["run_seconds"], int)
        self.assertTrue(1 <= self.doc["run_seconds"] <= 60)

    def test_workloads_match_the_runner(self):
        names = [w["name"] for w in self.doc["workloads"]]
        self.assertEqual(tuple(names), run.WORKLOAD_NAMES)
        self.assertEqual(set(names), set(workloads.WORKLOADS))
        for w in self.doc["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"])

    def test_metrics(self):
        e2e = {m["name"]: m for m in self.doc["end_to_end"]}
        self.assertEqual(set(e2e), END_TO_END)
        self.assertEqual((e2e["setup_s"]["unit"], e2e["setup_s"]["better"]), ("s", "lower"))
        for m in self.doc["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        self.assertEqual(max(m["bound"] for m in self.doc["end_to_end"]),
                         e2e["setup_s"]["bound"])
        # The traced run reports exactly the per-layer metrics listed.
        traced = set(spans.Tracer().metrics(1)) | {"trace.wall_s", "trace.slowdown"}
        self.assertEqual({m["name"] for m in self.doc["per_layer"]}, traced)
        all_metrics = self.doc["end_to_end"] + self.doc["per_layer"]
        names = [m["name"] for m in all_metrics] + [w["name"] for w in self.doc["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for m in all_metrics:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))


class SweepChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.mkdtemp()
        sweep = workloads.SweepEmpirical(7, cls.tmp)
        sweep.TRIALS_PER_MATRIX = 4096
        result = sweep.run_round()[0]
        cls.rows = workloads._parse_csv(result[1])
        cls.trials = sweep.MATRICES * sweep.TRIALS_PER_MATRIX
        cls.grid = sweep.SIGMA_GRID

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def failures(self, rows):
        return [f for f in checks.sweep_rows(rows, self.grid, self.trials) if f]

    def perturbed(self, i, **values):
        rows = [dict(row) for row in self.rows]
        rows[i].update(values)
        return rows

    def test_real_sweep_passes(self):
        self.assertEqual(self.failures(self.rows), [])

    def test_emp_pbb_ten_stderr_off(self):
        row = self.rows[4]
        se = math.sqrt(row["theo_pbb"] * (1 - row["theo_pbb"]) / self.trials)
        self.assertTrue(self.failures(self.perturbed(4, emp_pbb=row["theo_pbb"] + 10 * se)))
        self.assertTrue(self.failures(self.perturbed(4, emp_pbb=row["theo_pbb"] - 10 * se)))

    def test_theo_pbb_not_decreasing(self):
        self.assertTrue(self.failures(self.perturbed(3, theo_pbb=self.rows[2]["theo_pbb"])))

    def test_value_outside_unit_interval(self):
        self.assertTrue(self.failures(self.perturbed(0, emp_pbr_stderr=1.5)))

    def test_rounding_above_babai(self):
        row = self.rows[6]
        se = math.sqrt(2 * (1 - row["emp_pbr"]) / self.trials)
        bad = self.failures(self.perturbed(6, emp_pbr=row["emp_pbb"] + 10 * se))
        self.assertTrue(any("exceeds emp_pbb" in m for f in bad for m in f))

    def test_wrong_sigma_and_stray_theory_column(self):
        self.assertTrue(self.failures(self.perturbed(1, sigma=0.11)))
        self.assertTrue(self.failures(self.perturbed(1, theo_pbr=0.5)))


class TheoryChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        r = reference.random_r(np.random.default_rng(3), 3)
        cls.sigma = reference.sigma_for(0.5, lambda s: reference.p_bb_uniform(r, s, 3))
        est = success.p_br_uniform(r, cls.sigma, BoxConstraint.cube(0, 3, 3),
                                   IntegratorConfig(method="qmc", samples=2048), RngStream(5))
        cls.value, cls.stderr = est.value, est.stderr
        cls.trials = 1_000_000
        cls.hits = reference.simulate_rounding_uniform(r, cls.sigma, 3, cls.trials,
                                                       np.random.default_rng(9))
        cls.p_bb = reference.p_bb_uniform(r, cls.sigma, 3)

    def test_real_cell_passes(self):
        self.assertEqual(checks.theory_cell(self.value, self.stderr, self.p_bb,
                                            self.hits, self.trials), [])

    def test_ten_combined_stderr_off(self):
        p = self.hits / self.trials
        combined = math.hypot(self.stderr, math.sqrt(p * (1 - p) / self.trials))
        for sign in (1, -1):
            bad = checks.theory_cell(self.value + sign * 10 * combined, self.stderr,
                                     self.p_bb, self.hits, self.trials)
            self.assertTrue(any("disagrees" in m for m in bad))

    def test_rounding_above_babai(self):
        value = self.p_bb + 2 * reference.STDERR_MULTIPLE * self.stderr
        hits = round(value * self.trials)  # the simulation agrees; the theorem does not
        bad = checks.theory_cell(value, self.stderr, self.p_bb, hits, self.trials)
        self.assertEqual(len(bad), 1)
        self.assertIn("exceeds P_R^BB", bad[0])

    def test_missing_stderr(self):
        self.assertTrue(checks.theory_cell(self.value, 0.0, self.p_bb, self.hits, self.trials))


class IntegralChecks(unittest.TestCase):
    EXAMPLE = np.array([[2.0, -1.0], [0.0, 1.0]])

    @classmethod
    def setUpClass(cls):
        pattern = parse_pattern("LL")
        cls.estimates = {
            method: success.p_br_deterministic(cls.EXAMPLE, 1.0, pattern, cfg, RngStream(1))
            for method, cfg in workloads.FixedPatterns.CONFIGS.items()
        }
        lo, hi = reference.pattern_limits("LL")
        cls.ref = reference.box_cdf(cls.EXAMPLE, 1.0, lo, hi, 1.0, np.random.default_rng(0))
        cls.p_bb = success.p_bb_deterministic(cls.EXAMPLE, 1.0, pattern)
        cls.bounds = success.p_bb_bounds(cls.EXAMPLE, 1.0)

    def check(self, method, value):
        est = self.estimates[method]
        return checks.integral(method, value, est.stderr, est.samples, self.ref, 1e-9)

    def test_every_backend_passes_and_reverses(self):
        for method, est in self.estimates.items():
            self.assertEqual(self.check(method, est.value), [], method)
            tol = checks.integral_tolerance(method, est.stderr, est.samples, self.ref, 1e-9)
            self.assertEqual(checks.reversal_example(est.value, tol, self.p_bb), [], method)

    def test_every_backend_rejects_a_shifted_value(self):
        for method, est in self.estimates.items():
            tol = checks.integral_tolerance(method, est.stderr, est.samples, self.ref, 1e-9)
            self.assertTrue(self.check(method, est.value + 2 * tol), method)
            self.assertTrue(self.check(method, est.value - 2 * tol), method)

    def test_qmc_and_mc_reject_ten_of_their_own_stderr(self):
        est = self.estimates["mc"]
        self.assertTrue(self.check("mc", est.value + 10 * est.stderr))
        est = self.estimates["qmc"]
        self.assertTrue(self.check("qmc", est.value + 2 * reference.STDERR_MULTIPLE * est.stderr))

    def test_quadrature_with_four_points_is_rejected(self):
        cfg = IntegratorConfig(method="quad", quad_points=4)
        est = success.p_br_deterministic(self.EXAMPLE, 1.0, parse_pattern("LL"), cfg)
        self.assertTrue(self.check("quad", est.value))

    def test_reversal_needs_a_margin(self):
        self.assertTrue(checks.reversal_example(self.p_bb, 1e-3, self.p_bb))
        self.assertTrue(checks.reversal_example(self.ref, 1e-3, self.p_bb + 1e-3))

    def test_closed_form_babai(self):
        own = reference.p_bb_pattern(self.EXAMPLE, 1.0, "LL")
        self.assertEqual(checks.babai_closed_form(self.p_bb, self.bounds, own), [])
        self.assertTrue(checks.babai_closed_form(self.p_bb + 1e-9, self.bounds, own))
        self.assertTrue(checks.babai_closed_form(self.bounds[1] + 1e-6, self.bounds,
                                                 self.bounds[1] + 1e-6))

    def test_repeat_must_be_identical(self):
        first = (0.5, 1e-4)
        self.assertEqual(workloads._identical([first, first]), [[], []])
        self.assertTrue(workloads._identical([first, (0.5, 1.1e-4)])[1])


class BareDirectory(unittest.TestCase):
    def test_refuses_without_the_program(self):
        tmp = tempfile.mkdtemp()
        try:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "fixed_patterns",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
