#!/usr/bin/env python3
"""Tests of the benchmark's own helpers. Run from the root of a checkout:

    python3 perfbench/test_bench.py

The last test builds the runner and runs its self-test, which checks the
brute-force jobshop solver on hand-solved instances and against the
library's lower bound and optimum.
"""

import subprocess
import unittest

import benchlib
import run


class TailPercentile(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        xs = list(range(1, 1001))
        self.assertEqual(benchlib.tail_percentile(xs, 99), 990)
        self.assertIsNone(benchlib.tail_percentile(xs[:999], 99))

    def test_median_of_few(self):
        self.assertEqual(benchlib.tail_percentile(list(range(1, 21)), 50), 10)
        self.assertIsNone(benchlib.tail_percentile(list(range(1, 20)), 50))
        self.assertIsNone(benchlib.tail_percentile([], 50))

    def test_unsorted_input(self):
        xs = [5.0] * 100 + [1.0] * 900
        self.assertEqual(benchlib.tail_percentile(xs, 90), 1.0)
        self.assertEqual(benchlib.tail_percentile(xs, 91), 5.0)


class Spread(unittest.TestCase):
    def test_quartile_spread(self):
        med, spread = benchlib.quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual(med, 5.5)
        # quantiles: Q1 = 2.75, Q3 = 8.25 (exclusive method)
        self.assertAlmostEqual(spread, 5.5 / 5.5)

    def test_equal_values_have_no_spread(self):
        self.assertEqual(benchlib.quartile_spread([2.0] * 10), (2.0, 0.0))


class BrpClosedForms(unittest.TestCase):
    def test_one_chunk_one_attempt(self):
        pc = 1 - 0.98 * 0.99
        self.assertAlmostEqual(benchlib.brp_chunk_fail(0), pc)
        self.assertAlmostEqual(benchlib.brp_p1(1, 0), pc)
        self.assertAlmostEqual(benchlib.brp_p2(1, 0), pc)

    def test_paper_instance(self):
        # (N, MAX) = (16, 2): pc = 0.0298^3 = 2.64636e-5,
        # P1 = 16 pc - 120 pc^2 = 4.2334e-4 and P2 = pc - 15 pc^2 = 2.64531e-5
        # to second order.
        self.assertAlmostEqual(benchlib.brp_chunk_fail(2), 0.0298 ** 3, places=15)
        self.assertAlmostEqual(benchlib.brp_p1(16, 2), 4.2334e-4, delta=1e-8)
        self.assertAlmostEqual(benchlib.brp_p2(16, 2), 2.64531e-5, delta=1e-10)

    def test_more_retries_fail_less(self):
        self.assertLess(benchlib.brp_p1(16, 4), benchlib.brp_p1(16, 2))
        self.assertLess(benchlib.brp_p2(64, 2), benchlib.brp_p1(64, 2))

    def test_within_binomial(self):
        # mean 100, standard error sqrt(1e4 * 0.01 * 0.99) = 9.95
        self.assertTrue(benchlib.within_binomial(140, 10000, 0.01, 5.0))
        self.assertFalse(benchlib.within_binomial(150, 10000, 0.01, 5.0))


class ReplyChecks(unittest.TestCase):
    def test_verdicts(self):
        out = ("mutual exclusion                   satisfied (46361 states)\n"
               "deadlock-free                      satisfied (46361 states)\n")
        self.assertTrue(run.verdicts_hold(out, run.FISCHER_QUERIES))
        self.assertFalse(run.verdicts_hold(out.replace("satisfied", "VIOLATED", 1), run.FISCHER_QUERIES))
        self.assertFalse(run.verdicts_hold(out.splitlines()[0], run.FISCHER_QUERIES))

    def test_smc_fischer_intervals(self):
        params = {"model": "fischer", "trains": 1}
        good = {"text": "process 0: ...\n", "intervals": [{"p": 0.5, "low": 0.4, "high": 0.6}]}
        bad = {"text": "process 0: ...\n", "intervals": [{"p": 0.5, "low": 0.55, "high": 0.6}]}
        self.assertTrue(run.smc_reply_ok(params, good))
        self.assertFalse(run.smc_reply_ok(params, bad))

    def test_smc_train_gate_cdf(self):
        params = {"model": "train-gate", "trains": 1}
        self.assertTrue(run.smc_reply_ok(params, {"text": "train 0: 10:0.00 22:0.16 34:0.54\n"}))
        self.assertFalse(run.smc_reply_ok(params, {"text": "train 0: 10:0.00 22:0.56 34:0.54\n"}))

    def test_parse_modes(self):
        c = run.parse_modes("TA1 1000/1000 TA2 1000/1000 PA 0 PB 0 P1 2 P2 1 Dmax 998 Emax mu=33.4 sigma=2.1\n")
        self.assertEqual(c, {"runs": 1000, "ta1": 1000, "ta2": 1000, "pa": 0, "pb": 0, "p1": 2, "p2": 1})


class RunnerSelftest(unittest.TestCase):
    def test_brute_force_jobshop(self):
        run.build()
        r = subprocess.run([run.RUNNER, "selftest"], stdout=subprocess.PIPE, text=True)
        self.assertEqual(r.returncode, 0, r.stdout)


if __name__ == "__main__":
    unittest.main()
