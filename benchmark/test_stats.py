"""Self-tests of the benchmark's statistics.

    python3 -m unittest discover -s benchmark -p 'test_*.py'
"""

import statistics
import unittest

import stats


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [7.0, 1.0, 5.0, 3.0, 9.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(stats.quartiles(values), (q1, q3))
        self.assertEqual((q1, q3), (2.75, 8.25))

    def test_single_value_is_its_own_quartiles(self):
        self.assertEqual(stats.quartiles([5.0]), (5.0, 5.0))

    def test_spread_is_interquartile_distance_over_median(self):
        values = [7.0, 1.0, 5.0, 3.0, 9.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertAlmostEqual(stats.spread(values), (8.25 - 2.75) / 5.5)
        self.assertEqual(stats.spread([2.0, 2.0, 2.0]), 0.0)


class TailPercentile(unittest.TestCase):
    def test_nearest_rank_counts_samples_beyond(self):
        values = list(range(1, 101))
        self.assertEqual(stats.nearest_rank(values, 50.0), (50, 50))
        self.assertEqual(stats.nearest_rank(values, 99.0), (99, 1))
        self.assertEqual(stats.nearest_rank(values, 100.0), (100, 0))

    def test_p99_needs_ten_samples_beyond_it(self):
        # 1000 samples leave exactly 10 beyond p99: p99 is supported,
        # p99.9 (1 beyond) is not.
        values = list(range(1000))
        p, value, beyond, n = stats.tail_percentile(values)
        self.assertEqual((p, value, beyond, n), (99.0, 989, 10, 1000))

    def test_falls_back_when_sample_is_small(self):
        # 999 samples leave 9 beyond p99, so the rule drops to p90.
        p, value, beyond, n = stats.tail_percentile(list(range(999)))
        self.assertEqual((p, beyond, n), (90.0, 99, 999))
        self.assertEqual(value, 899)

    def test_large_sample_reaches_p99_9(self):
        p, _, beyond, n = stats.tail_percentile(list(range(10_000)))
        self.assertEqual((p, beyond, n), (99.9, 10, 10_000))

    def test_too_few_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.tail_percentile(list(range(15)))
        with self.assertRaises(ValueError):
            stats.tail_percentile([])


class Ratios(unittest.TestCase):
    def test_ratio_carries_its_base(self):
        self.assertEqual(stats.ratio(3, 4), {"value": 0.75, "base": 4})

    def test_empty_base_reads_zero(self):
        self.assertEqual(stats.ratio(0, 0), {"value": 0.0, "base": 0})


if __name__ == "__main__":
    unittest.main()
