"""Self-tests of the perfbench harness.

Run from the root of a checkout:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The trace test builds dmnet and the driver first (dune, into
.bench_build), like run.py does.
"""

import os
import shutil
import tempfile
import unittest

import harness
import run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Percentile(unittest.TestCase):
    def test_known_series(self):
        s = [5, 1, 4, 2, 3]
        self.assertEqual(harness.percentile(s, 0), 1)
        self.assertEqual(harness.percentile(s, 25), 2)
        self.assertEqual(harness.percentile(s, 50), 3)
        self.assertEqual(harness.percentile(s, 100), 5)

    def test_interpolates_between_ranks(self):
        self.assertAlmostEqual(harness.percentile([0, 10], 90), 9.0)
        self.assertAlmostEqual(harness.percentile(list(range(101)), 99), 99.0)
        self.assertAlmostEqual(harness.percentile([1, 2, 3, 4], 50), 2.5)

    def test_single_and_empty(self):
        self.assertEqual(harness.percentile([7.5], 99), 7.5)
        with self.assertRaises(ValueError):
            harness.percentile([], 50)
        with self.assertRaises(ValueError):
            harness.percentile([1], 101)


class RatePoint(unittest.TestCase):
    LIMITS = {"late_p99_ms": 5.0, "commit_p99_ms": 100.0, "backlog_slack": 2000}
    FLAT = [1000, 400, 900, 500, 1000, 450, 950, 500, 1000, 400, 900, 500]
    GROWING = [1000 * i for i in range(12)]

    def judge(self, shed=0, backlog=FLAT, p99=20.0, late=0.5):
        return harness.rate_point(shed, backlog, p99, late, self.LIMITS)

    def test_met(self):
        self.assertEqual(self.judge()[:2], (True, True))

    def test_shed_is_not_met(self):
        self.assertEqual(self.judge(shed=1)[:2], (True, False))

    def test_growing_backlog_is_not_met(self):
        self.assertEqual(self.judge(backlog=self.GROWING)[:2], (True, False))
        self.assertTrue(harness.backlog_grows(self.GROWING, 2000))
        self.assertFalse(harness.backlog_grows(self.FLAT, 2000))
        self.assertTrue(harness.backlog_grows(self.FLAT[:4], 2000))

    def test_slow_commit_is_not_met(self):
        self.assertEqual(self.judge(p99=100.5)[:2], (True, False))

    def test_late_generator_is_invalid(self):
        self.assertEqual(self.judge(late=6.0, shed=5)[:2], (False, False))

    def test_max_met_rate(self):
        points = [(25000, True, True), (50000, True, True), (75000, True, False)]
        self.assertEqual(harness.max_met_rate(points), 50000)
        points = [(25000, True, True), (50000, False, False), (75000, True, True)]
        self.assertEqual(harness.max_met_rate(points), 75000)
        self.assertIsNone(harness.max_met_rate([(25000, False, False), (50000, True, False)]))


class AtReference(unittest.TestCase):
    def test_rescales_by_the_kernel(self):
        # a host at reference speed leaves the wall time as it is
        self.assertAlmostEqual(harness.at_reference(2.0, 0.0015, 0.0015), 2.0)
        # a host half as fast: twice the wall time and twice the kernel time
        self.assertAlmostEqual(harness.at_reference(4.0, 0.003, 0.0015), 2.0)
        # a program twice as fast on the same host takes half the time
        self.assertAlmostEqual(harness.at_reference(1.0, 0.0015, 0.0015), 1.0)

    def test_rejects_zero_times(self):
        with self.assertRaises(ValueError):
            harness.at_reference(0.0, 0.0015, 0.0015)
        with self.assertRaises(ValueError):
            harness.at_reference(1.0, 0.0, 0.0015)


class Coverage(unittest.TestCase):
    def test_coverage(self):
        self.assertAlmostEqual(harness.coverage([1.0, 2.0, 3.0], 6.0), 1.0)
        self.assertAlmostEqual(harness.coverage([0.45, 0.45], 1.0), 0.9)
        with self.assertRaises(ValueError):
            harness.coverage([1.0], 0.0)

    def test_overhead(self):
        self.assertAlmostEqual(harness.overhead(1.1, 1.0), 0.1)
        self.assertAlmostEqual(harness.overhead(1.0, 1.0), 0.0)


class SeededInputs(unittest.TestCase):
    """Same seed gives the same trace bytes; another seed does not."""

    @classmethod
    def setUpClass(cls):
        cls.cwd = os.getcwd()
        os.chdir(ROOT)
        run.build()
        os.makedirs(run.WORK, exist_ok=True)
        cls.work = tempfile.mkdtemp(dir=run.WORK, prefix="test-")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)
        os.chdir(cls.cwd)

    def trace_bytes(self, scenario, seed, tag):
        work = os.path.join(self.work, tag)
        os.makedirs(work)
        inst = run.make_instance(work, run.DEFAULT_INSTANCE_SEED)
        path = run.make_trace(work, inst, scenario, 5000, 5, seed)
        with open(path, "rb") as f:
            return f.read()

    def test_same_seed_same_bytes(self):
        for scenario in ("drifting", "diurnal", "stationary"):
            a = self.trace_bytes(scenario, 4, scenario + "-a")
            b = self.trace_bytes(scenario, 4, scenario + "-b")
            c = self.trace_bytes(scenario, 5, scenario + "-c")
            self.assertEqual(a, b, scenario)
            self.assertNotEqual(a, c, scenario)


if __name__ == "__main__":
    unittest.main()
