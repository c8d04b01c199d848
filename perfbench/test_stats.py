#!/usr/bin/env python3
"""Unit tests for perfbench/stats.py: the percentile guard, the ratio
helper and each per-layer ratio's base.

    python3 perfbench/test_stats.py
"""

import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(xs, 50), 50)
        self.assertEqual(stats.percentile(xs, 90), 90)
        self.assertEqual(stats.percentile(reversed(xs), 90), 90)

    def test_exactly_ten_beyond_is_enough(self):
        self.assertEqual(stats.percentile(range(100), 90), 89)
        self.assertEqual(stats.percentile(range(20), 50), 9)

    def test_fewer_than_ten_beyond_is_an_error(self):
        with self.assertRaises(stats.TooFewSamples):
            stats.percentile(range(99), 90)
        with self.assertRaises(stats.TooFewSamples):
            stats.percentile(range(19), 50)
        with self.assertRaises(stats.TooFewSamples):
            stats.percentile([], 50)

    def test_rejects_out_of_range_p(self):
        for p in (0, 100, -1):
            with self.assertRaises(ValueError):
                stats.percentile(range(1000), p)


class RatioTest(unittest.TestCase):
    def test_ratio(self):
        self.assertEqual(stats.ratio(1, 4), 0.25)
        self.assertEqual(stats.ratio(0, 4), 0.0)

    def test_zero_base_means_no_work(self):
        self.assertEqual(stats.ratio(0, 0), 0.0)

    def test_negative_operand_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.ratio(-1, 4)
        with self.assertRaises(ValueError):
            stats.ratio(1, -4)


# Work counts with a distinct prime per key, so that each ratio's value
# identifies which keys went into its numerator and base.
COUNTS = {
    "queries": 10, "solved_queries": 8,
    "stats.lookahead_reported": 2, "stats.lookahead_pruned": 3,
    "stats.bound_lps": 100,
    "stats.lp_warm_starts": 7, "stats.lp_cold_starts": 13,
    "stats.witness_hits": 11, "stats.lp_skipped_by_ball": 17,
    "stats.feasibility_lps": 19,
    "stats.cell_tree_nodes": 24, "stats.finalize_lps": 40,
    "engine.queries": 50, "engine.cache_hits": 5,
    "engine.cache_retained": 3, "engine.cache_dropped": 9,
    "engine.sub_examined": 20, "engine.sub_irrelevant": 15,
    "engine.amortized_reuses": 4, "engine.amortized_builds": 6,
    "shard.candidates_merged": 400, "shard.candidates_solved": 100,
    "shard.cache_retained": 1, "shard.cache_dropped": 3,
    "net.response_bytes": 1000, "net.retries": 2, "net.failures": 0,
}

EXPECTED = {
    # (reported + pruned) / bound LPs
    "core.lookahead_yield": (2 + 3) / 100,
    # warm / (warm + cold)
    "lp.warm_start_ratio": 7 / (7 + 13),
    # witness hits / (witness hits + ball skips + feasibility LPs)
    "cell_tree.witness_hit_ratio": 11 / (11 + 17 + 19),
    # hits / engine queries
    "engine.cache_hit_ratio": 5 / 50,
    # retained / (retained + dropped)
    "engine.cache_retained_ratio": 3 / (3 + 9),
    # irrelevant / examined
    "engine.sub_irrelevant_ratio": 15 / 20,
    # reuses / (reuses + builds)
    "engine.amortized_reuse_ratio": 4 / (4 + 6),
    # solved / merged candidates
    "shard.solve_yield": 100 / 400,
    # router retained / (retained + dropped)
    "shard.cache_retained_ratio": 1 / (1 + 3),
    # per solved query
    "lp.bound_lps": 100 / 8,
    "lp.feasibility_lps": 19 / 8,
    "lp.finalize_lps": 40 / 8,
    "cell_tree.nodes": 24 / 8,
    # per query
    "net.response_bytes": 1000 / 10,
    # totals
    "net.retries": 2,
    "net.failures": 0,
}


class CountMetricsTest(unittest.TestCase):
    def test_each_metric_uses_its_base(self):
        got = stats.count_metrics(COUNTS)
        self.assertEqual(set(got), set(EXPECTED))
        for name, want in EXPECTED.items():
            self.assertAlmostEqual(got[name], want, msg=name)

    def test_layers_without_work_report_zero(self):
        got = stats.count_metrics({"queries": 5})
        for name, value in got.items():
            self.assertEqual(value, 0, msg=name)


def span(name, start_ms, end_ms, parent, request):
    return [name, int(start_ms * 1e6), int(end_ms * 1e6), parent, request]


class SpanTest(unittest.TestCase):
    def test_self_times_subtract_children(self):
        spans = [span("query", 0, 10, -1, 0),
                 span("core.solve", 1, 7, 0, 0),
                 span("core.finalize", 7, 9, 0, 0)]
        got = stats.self_times(spans)
        self.assertAlmostEqual(got["query"], 2.0)
        self.assertAlmostEqual(got["core.solve"], 6.0)
        self.assertAlmostEqual(got["core.finalize"], 2.0)

    def test_sharded_stages(self):
        spans = [span("request", 0, 20, -1, 7),
                 span("router.query", 0, 10, 0, 7),
                 span("shard.scatter", 10, 13, 0, 7),
                 span("shard.candidates", 10, 11, 2, 7),
                 span("shard.candidates", 11, 13, 2, 7),
                 span("shard.merge", 13, 14, 0, 7),
                 span("shard.solve", 14, 19, 0, 7),
                 span("router.update", 20, 25, -1, -1)]
        got = stats.span_metrics(spans)
        self.assertAlmostEqual(got["shard.scatter_ms"], 2.0)  # slowest shard
        self.assertAlmostEqual(got["shard.merge_ms"], 1.0)
        self.assertAlmostEqual(got["shard.solve_ms"], 5.0)
        self.assertAlmostEqual(got["net.transport_ms"], 10.0 - 2 - 1 - 5)
        self.assertNotIn("core.solve_ms", got)

    def test_means_are_per_request(self):
        spans = [span("core.solve", 0, 2, -1, 0),
                 span("core.solve", 2, 6, -1, 1)]
        self.assertAlmostEqual(stats.span_metrics(spans)["core.solve_ms"],
                               3.0)


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.5, 10.5, 12.0, 9.0, 10.2, 10.8, 11.5, 9.8]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.quartile_spread(values), (q3 - q1) / q2)


if __name__ == "__main__":
    unittest.main()
