#!/usr/bin/env python3
"""Tests of the benchmark's own logic: python3 perfbench/test_benchlib.py"""

import json
import unittest
from pathlib import Path

import benchlib

DIGESTS = json.loads((Path(__file__).resolve().parent /
                      "digests.json").read_text())


class TailPercentile(unittest.TestCase):
    def test_thousand_samples_reach_p99(self):
        samples = list(range(1000))
        pct, value, n = benchlib.tail_percentile(samples)
        self.assertEqual((pct, n), (99.0, 1000))
        # Exactly ten samples (990..999) lie beyond the value.
        self.assertEqual(value, 989)
        self.assertEqual(sum(1 for s in samples if s > value), 10)

    def test_one_sample_short_falls_back_to_p95(self):
        pct, value, n = benchlib.tail_percentile(list(range(999)))
        self.assertEqual((pct, n), (95.0, 999))
        self.assertEqual(value, 949)

    def test_one_sample_more_stays_at_p99(self):
        pct, _, _ = benchlib.tail_percentile(list(range(1001)))
        self.assertEqual(pct, 99.0)

    def test_ten_thousand_samples_reach_p999(self):
        pct, value, _ = benchlib.tail_percentile(list(range(10000)))
        self.assertEqual((pct, value), (99.9, 9989))

    def test_too_few_samples_report_the_maximum(self):
        self.assertEqual(benchlib.tail_percentile([3, 1, 2]), (100.0, 3, 3))

    def test_order_does_not_matter(self):
        samples = [float(i % 37) for i in range(500)]
        self.assertEqual(benchlib.tail_percentile(samples),
                         benchlib.tail_percentile(sorted(samples)))


class Verdict(unittest.TestCase):
    PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9,
              100.3]

    def test_nine_of_ten_wins_beyond_the_spread_is_improved(self):
        change = [v - 5 for v in self.PARENT]
        change[0] = 200.0  # one lost pair of ten
        v = benchlib.verdict(self.PARENT, change, "lower", 0.1)
        self.assertEqual(v["won_frac"], 0.9)
        self.assertEqual(v["verdict"], "improved")

    def test_eight_of_ten_wins_is_not_improved(self):
        change = [v - 5 for v in self.PARENT]
        change[0] = change[1] = 200.0
        v = benchlib.verdict(self.PARENT, change, "lower", 0.1)
        self.assertEqual(v["verdict"], "no worse")

    def test_gain_inside_the_parents_quartile_gap_is_not_improved(self):
        q1, _, q3 = benchlib.quartiles(self.PARENT)
        change = [v - (q3 - q1) / 2 for v in self.PARENT]
        v = benchlib.verdict(self.PARENT, change, "lower", 0.1)
        self.assertEqual(v["won_frac"], 1.0)
        self.assertEqual(v["verdict"], "no worse")

    def test_higher_is_better_metrics(self):
        change = [v + 5 for v in self.PARENT]
        v = benchlib.verdict(self.PARENT, change, "higher", 0.1)
        self.assertEqual(v["verdict"], "improved")

    def test_regression_past_the_bound_is_worse(self):
        change = [v * 1.2 for v in self.PARENT]
        v = benchlib.verdict(self.PARENT, change, "lower", 0.1)
        self.assertEqual(v["verdict"], "worse")

    def test_regression_within_the_bound_is_no_worse(self):
        change = [v * 1.05 for v in self.PARENT]
        v = benchlib.verdict(self.PARENT, change, "lower", 0.1)
        self.assertEqual(v["verdict"], "no worse")

    def test_spread_wider_than_the_bound_is_unresolved(self):
        parent = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0,
                  110.0, 100.0]
        change = [v * 1.02 for v in parent]
        v = benchlib.verdict(parent, change, "lower", 0.1)
        self.assertGreater(v["parent_spread"], 0.1)
        self.assertEqual(v["verdict"], "unresolved")

    def test_wide_spread_resolves_when_every_change_run_is_better(self):
        parent = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0,
                  110.0, 100.0]
        change = [50.0 + i * 0.1 for i in range(10)]
        v = benchlib.verdict(parent, change, "lower", 0.1)
        self.assertNotEqual(v["verdict"], "unresolved")


def sweep_round(cells):
    return {"cells": dict(cells), "unit_cells": [], "attempted": len(cells),
            "failed": 0}


class DigestCheck(unittest.TestCase):
    def flipped(self, reference, key):
        cells = dict(reference)
        cells[key] = "%016x" % (int(cells[key], 16) ^ 1)
        return cells

    def test_reference_cells_pass(self):
        ref = DIGESTS["fig9_timing"]
        correct, attempted, failed, bad = benchlib.check_digests(
            [sweep_round(ref)], ref)
        self.assertEqual((correct, attempted, failed, bad),
                         (True, len(ref), 0, []))

    def test_one_flipped_sweep_digest_fails_its_cell(self):
        ref = DIGESTS["accuracy_grid"]
        key = sorted(ref)[7]
        correct, attempted, failed, bad = benchlib.check_digests(
            [sweep_round(ref), sweep_round(self.flipped(ref, key))], ref)
        self.assertFalse(correct)
        self.assertEqual(bad, [key])
        self.assertEqual(failed, 1)
        self.assertGreater(failed / attempted, 0)

    def test_a_missing_sweep_cell_fails(self):
        ref = DIGESTS["fig9_timing"]
        cells = dict(ref)
        key = sorted(cells)[0]
        del cells[key]
        _, _, failed, bad = benchlib.check_digests([sweep_round(cells)], ref)
        self.assertEqual((failed, bad), (1, [key]))

    def test_one_flipped_service_digest_fails_every_request_with_it(self):
        ref = DIGESTS["service_mixed"]
        keys = sorted(ref)[:4]
        units = [keys[:2], keys[2:], keys[:2], []]  # last one errored
        r = {"cells": self.flipped({k: ref[k] for k in keys}, keys[1]),
             "unit_cells": units}
        correct, attempted, failed, bad = benchlib.check_digests([r], ref)
        self.assertFalse(correct)
        self.assertEqual((attempted, failed, bad), (4, 3, [keys[1]]))

    def test_conflicting_reads_of_one_cell_fail(self):
        ref = DIGESTS["service_mixed"]
        key = sorted(ref)[0]
        r = {"cells": {key: "conflict"}, "unit_cells": [[key]]}
        self.assertEqual(benchlib.check_digests([r], ref)[2], 1)


class BuildGuard(unittest.TestCase):
    def test_only_release_with_lto_is_valid(self):
        self.assertTrue(benchlib.build_valid(
            {"build_type": "Release", "lto": "YES"}))
        self.assertFalse(benchlib.build_valid(
            {"build_type": "RelWithDebInfo", "lto": "YES"}))
        self.assertFalse(benchlib.build_valid(
            {"build_type": "Release", "lto": "NO"}))


class RunMetrics(unittest.TestCase):
    def test_medians_over_rounds_of_per_round_percentiles(self):
        rounds = [
            {"wall_s": 2.0, "setup_s": 0.1, "cpu_s": 5.0,
             "latencies_ms": [float(i) for i in range(100)]},
            {"wall_s": 4.0, "setup_s": 0.3, "cpu_s": 7.0,
             "latencies_ms": [float(i) for i in range(100, 200)]},
        ]
        m, tail = benchlib.run_metrics(rounds, [9.0, 11.0])
        self.assertEqual(m["peak_rss_mb"], 10.0)
        self.assertEqual(m["wall_s"], 3.0)
        self.assertEqual(m["setup_s"], 0.2)
        self.assertEqual(m["req_per_s"], (50.0 + 25.0) / 2)
        self.assertEqual(m["req_p50_ms"], (49.0 + 149.0) / 2)
        self.assertEqual(tail, {"tail_percentile": 90.0,
                                "tail_samples": 100})
        self.assertEqual(m["req_tail_ms"], (89.0 + 189.0) / 2)

    def test_a_sweep_round_is_one_request(self):
        rounds = [{"wall_s": w, "setup_s": 0.2, "cpu_s": 30.0,
                   "latencies_ms": [w * 1e3]} for w in (11.0, 12.0, 10.0)]
        m, tail = benchlib.run_metrics(rounds, [2400.0] * 3)
        self.assertEqual(tail, {"tail_percentile": 100.0,
                                "tail_samples": 1})
        self.assertEqual(m["req_p50_ms"], 11000.0)
        self.assertEqual(m["req_tail_ms"], 11000.0)
        self.assertAlmostEqual(m["req_per_s"], 1 / 11.0)


if __name__ == "__main__":
    unittest.main()
