"""Tests for the benchmark's order statistics and run checks.

    python3 perfbench/test_stats.py
"""

import copy
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = [15, 20, 35, 40, 50]
        self.assertEqual(stats.percentile(values, 5), 15)
        self.assertEqual(stats.percentile(values, 30), 20)
        self.assertEqual(stats.percentile(values, 40), 20)
        self.assertEqual(stats.percentile(values, 50), 35)
        self.assertEqual(stats.percentile(values, 100), 50)

    def test_unsorted_input(self):
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 50), 3)

    def test_p99_of_many(self):
        values = list(range(1, 1001))
        self.assertEqual(stats.percentile(values, 99), 990)
        self.assertEqual(stats.samples_beyond(len(values), 99), 10)

    def test_bad_rank_raises(self):
        for p in (0, -1, 101):
            with self.assertRaises(ValueError):
                stats.percentile([1, 2], p)

    def test_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(100, 90), 10)
        self.assertEqual(stats.samples_beyond(45, 90), 4)
        self.assertEqual(stats.samples_beyond(152, 90), 15)


def _record(mode="e2e", stream=0, run_cpu_s=2.5):
    r = {"mode": mode, "stream": stream, "csv": f"gups,mtm,0.667{stream}",
         "sim_total_ns": 965584677 + stream,
         "counts": {"total_accesses": 31139840 + stream, "sim.pt_nodes": 509},
         "failures": [], "run_cpu_s": run_cpu_s, "setup_cpu_s": 0.0015, "peak_rss_mb": 12.3}
    if mode == "trace":
        r["migration_orders"] = 106
    return r


class CheckRunsTest(unittest.TestCase):
    def test_identical_runs_pass(self):
        self.assertEqual(run.check_runs([_record("trace"), _record(), _record()]), 0)

    def test_streams_are_compared_separately(self):
        records = [_record("trace"), _record(stream=1), _record(), _record(stream=1)]
        self.assertEqual(run.check_runs(records), 0)

    def test_each_kind_of_difference_fails_one_run(self):
        for key, value in (("csv", "gups,mtm,0.6674"), ("sim_total_ns", 965584678),
                           ("counts", {"total_accesses": 31139840, "sim.pt_nodes": 510})):
            other = _record()
            other[key] = value
            self.assertEqual(run.check_runs([_record(), other, _record()]), 1, key)

    def test_own_failures_and_crashes_count(self):
        bad = _record()
        bad["failures"] = ["VerifyInvariants after Flush: bad"]
        self.assertEqual(run.check_runs([_record(), bad, None]), 2)

    def test_traced_runs_must_agree_on_orders(self):
        other = copy.deepcopy(_record("trace"))
        other["migration_orders"] = 107
        self.assertEqual(run.check_runs([_record("trace"), other]), 2)


class MtmsimMatchTest(unittest.TestCase):
    def test_row_must_equal_stream_zeros_row(self):
        records = [None, _record(stream=1), _record()]
        self.assertTrue(run.mtmsim_matches("gups,mtm,0.6670", records))
        self.assertFalse(run.mtmsim_matches("gups,mtm,0.6671", records))

    def test_missing_row_or_reference_fails(self):
        self.assertFalse(run.mtmsim_matches(None, [_record()]))
        self.assertFalse(run.mtmsim_matches("gups,mtm,0.6670", [None, _record(stream=1)]))


class AggregateTest(unittest.TestCase):
    def test_rate_pools_every_run(self):
        records = [_record(run_cpu_s=7.5), _record(run_cpu_s=2.5),
                   _record(stream=1, run_cpu_s=3.0)]
        self.assertAlmostEqual(run.accesses_per_cpu_s(records),
                               (2 * 31139840 + 31139841) / (7.5 + 2.5 + 3.0))

    def test_sim_total_is_the_mean_over_streams(self):
        records = [_record(), _record(), _record(stream=1)]
        metrics = run.end_to_end_metrics(records)
        self.assertAlmostEqual(metrics["sim_total_s"][0], (965584677 + 965584678) / 2e9)


if __name__ == "__main__":
    unittest.main()
