"""Tests of repeat.py's summary and result-line helpers.

Run from the repository root: python3 -m unittest discover -s dvfbench/tests
"""
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
import repeat  # noqa: E402


class SummarizeTest(unittest.TestCase):
    def test_quartiles_match_statistics_module(self):
        values = [1.0, 2.0, 4.0, 8.0, 16.0, 3.0, 5.0, 7.0, 9.0, 11.0]
        med, q1, q3, spread = repeat.summarize(values)
        want_q1, _, want_q3 = statistics.quantiles(values, n=4)
        self.assertEqual(med, statistics.median(values))
        self.assertEqual((q1, q3), (want_q1, want_q3))
        self.assertAlmostEqual(spread, (want_q3 - want_q1) / med)

    def test_identical_values_have_no_spread(self):
        self.assertEqual(repeat.summarize([2.5] * 10)[3], 0.0)


class ParseResultTest(unittest.TestCase):
    def test_takes_the_last_line(self):
        out = ('build output\n{"correct": true, "attempted": 3, "failed": 0, '
               '"metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}\n')
        result = repeat.parse_result(out)
        self.assertEqual(result["attempted"], 3)
        self.assertEqual(result["metrics"]["setup_s"]["value"], 0.5)

    def test_rejects_missing_or_extra_keys(self):
        with self.assertRaises(ValueError):
            repeat.parse_result('{"correct": true, "metrics": {}}')
        with self.assertRaises(ValueError):
            repeat.parse_result("")


if __name__ == "__main__":
    unittest.main()
