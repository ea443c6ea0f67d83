"""Tests of the benchmark's statistics (python3 -m unittest discover -s perfbench)."""

import statistics
import unittest

import pbstats


class Percentiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(pbstats.median([3, 1, 2]), 2)
        self.assertEqual(pbstats.median([4, 1, 3, 2]), 2.5)

    def test_percentile_interpolates_between_ranks(self):
        xs = list(range(101))  # 0..100: the p-th percentile is p
        for p in (0, 1, 50, 99, 100):
            self.assertAlmostEqual(pbstats.percentile(xs, p), p)
        self.assertAlmostEqual(pbstats.percentile([0, 10], 25), 2.5)

    def test_percentile_ignores_input_order(self):
        self.assertEqual(pbstats.percentile([5, 1, 4, 2, 3], 75), 4)

    def test_percentile_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            pbstats.percentile([], 50)
        with self.assertRaises(ValueError):
            pbstats.percentile([1], 101)


class Tail(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(pbstats.tail(list(range(1000)))[0], 99.0)
        self.assertEqual(pbstats.tail(list(range(999)))[0], 90.0)
        self.assertEqual(pbstats.tail(list(range(10000)))[0], 99.9)
        self.assertEqual(pbstats.tail(list(range(100)))[0], 90.0)
        self.assertEqual(pbstats.tail(list(range(20)))[0], 50.0)

    def test_tail_reports_its_sample_count(self):
        p, value, beyond = pbstats.tail(list(range(1000)))
        self.assertEqual(beyond, 10)
        self.assertAlmostEqual(value, pbstats.percentile(list(range(1000)), p))

    def test_too_few_samples_have_no_tail(self):
        self.assertIsNone(pbstats.tail([1.0] * 19))


class Quartiles(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        xs = [9.1, 8.7, 10.2, 9.9, 9.4, 8.8, 9.0, 10.0, 9.6, 9.3]
        self.assertEqual(list(pbstats.quartiles(xs)), statistics.quantiles(xs, n=4))

    def test_single_sample(self):
        self.assertEqual(pbstats.quartiles([4.0]), (4.0, 4.0, 4.0))

    def test_summary_carries_counts(self):
        s = pbstats.summary([float(i) for i in range(1000)])
        self.assertEqual(s["n"], 1000)
        self.assertEqual(s["tail_p"], 99.0)
        self.assertEqual(s["tail_beyond"], 10)
        self.assertNotIn("tail_p", pbstats.summary([1.0, 2.0]))


if __name__ == "__main__":
    unittest.main()
