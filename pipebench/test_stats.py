#!/usr/bin/env python3
"""Tests of the benchmark's own statistics:

    python3 pipebench/test_stats.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

BENCH = {"end_to_end": [
    {"name": "docs_per_s", "unit": "docs/s", "better": "higher", "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]}


def runs(docs_per_s, setup_s):
    return [{"docs_per_s": {"value": d}, "setup_s": {"value": s}}
            for d, s in zip(docs_per_s, setup_s)]


class PercentileTest(unittest.TestCase):
    def test_p95_needs_ten_samples_beyond_it(self):
        samples = list(range(1, 201))  # 200 samples
        self.assertEqual(stats.percentile(samples, 0.95), 190)
        with self.assertRaises(stats.TooFewSamples):
            stats.percentile(samples[:199], 0.95)

    def test_median_needs_twenty_samples(self):
        self.assertEqual(stats.percentile(list(range(20)), 0.5), 9)
        with self.assertRaises(stats.TooFewSamples):
            stats.percentile(list(range(19)), 0.5)

    def test_order_does_not_matter(self):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 40
        self.assertEqual(stats.percentile(samples, 0.95), 5.0)
        self.assertEqual(stats.percentile(samples, 0.5), 3.0)

    def test_empty_is_refused(self):
        with self.assertRaises(stats.TooFewSamples):
            stats.percentile([], 0.5)


class SelfTimeTest(unittest.TestCase):
    def test_parent_minus_children(self):
        self.assertEqual(stats.self_time(1000, [100, 250]), 650)

    def test_no_children(self):
        self.assertEqual(stats.self_time(1000, []), 1000)

    def test_small_excess_reads_as_zero(self):
        self.assertEqual(stats.self_time(1000, [600, 430]), 0.0)

    def test_large_excess_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.self_time(1000, [600, 500])


class CompareTest(unittest.TestCase):
    def test_spread_is_iqr_over_median(self):
        # quantiles(n=4) of 1..9 are 2.5, 5, 7.5.
        self.assertAlmostEqual(stats.spread(range(1, 10)), 1.0)

    def test_identical_sets_pass(self):
        a = {"w": runs([100, 101, 99, 100, 102], [1.0, 1.1, 0.9, 1.0, 1.0])}
        rows = stats.compare(BENCH, a, a)
        self.assertTrue(all(ok for *_, ok in rows))

    def test_worse_median_beyond_bound_fails(self):
        a = {"w": runs([100, 101, 99, 100, 102], [1.0] * 5)}
        b = {"w": runs([85, 86, 84, 85, 87], [1.0] * 5)}
        rows = {name: row for _, name, *row in stats.compare(BENCH, a, b)}
        worse, ok = rows["docs_per_s"][2], rows["docs_per_s"][3]
        self.assertAlmostEqual(worse, 0.15)
        self.assertFalse(ok)
        self.assertTrue(rows["setup_s"][3])

    def test_setup_worse_beyond_bound_fails(self):
        a = {"w": runs([100] * 5, [1.0, 1.01, 0.99, 1.0, 1.0])}
        b = {"w": runs([100] * 5, [1.3, 1.31, 1.29, 1.3, 1.3])}
        rows = {name: row for _, name, *row in stats.compare(BENCH, a, b)}
        self.assertAlmostEqual(rows["setup_s"][2], 0.3)
        self.assertFalse(rows["setup_s"][3])

    def test_better_median_passes(self):
        a = {"w": runs([100, 101, 99, 100, 102], [1.0] * 5)}
        b = {"w": runs([200, 201, 199, 200, 202], [0.5] * 5)}
        self.assertTrue(all(ok for *_, ok in stats.compare(BENCH, a, b)))

    def test_wide_spread_fails(self):
        a = {"w": runs([50, 100, 150, 100, 100], [0.5, 1.0, 1.5, 1.0, 1.0])}
        rows = {name: row for _, name, *row in stats.compare(BENCH, a, a)}
        self.assertFalse(rows["docs_per_s"][3])
        self.assertFalse(rows["setup_s"][3])


class StealFreeTest(unittest.TestCase):
    def test_window_share_scales_each_duration(self):
        # Two 1 s windows: 25% steal in the first, none in the second.
        walls = [0.5, 0.5, 0.5, 0.5]
        busy = [2, 2, 4, 4]
        steal = [1, 0, 0, 0]
        got = stats.steal_free(walls, busy, steal, 1.0)
        self.assertEqual(got, [0.375, 0.375, 0.5, 0.5])

    def test_trailing_partial_window_uses_its_own_share(self):
        got = stats.steal_free([1.0, 0.4], [10, 10], [0, 5], 1.0)
        self.assertEqual(got, [1.0, 0.2])

    def test_no_busy_ticks_leaves_durations(self):
        got = stats.steal_free([0.3, 0.3], [0, 0], [0, 0], 1.0)
        self.assertEqual(got, [0.3, 0.3])


class WindowedRateTest(unittest.TestCase):
    def test_median_of_window_rates(self):
        # Windows of >= 1 s: [0.5, 0.5] -> 4 items/s, [1.0] -> 2,
        # [0.25 x 4] -> 8; the trailing 0.5 s is dropped.
        walls = [0.5, 0.5, 1.0, 0.25, 0.25, 0.25, 0.25, 0.5]
        self.assertAlmostEqual(stats.windowed_rate(walls, 2, 1.0), 4.0)

    def test_one_slow_window_does_not_move_it(self):
        walls = [0.1] * 50 + [1.0] + [0.1] * 50
        self.assertAlmostEqual(stats.windowed_rate(walls, 1, 1.0), 10.0)

    def test_too_short_is_refused(self):
        with self.assertRaises(stats.TooFewSamples):
            stats.windowed_rate([0.2, 0.3], 1, 1.0)


if __name__ == "__main__":
    unittest.main()
