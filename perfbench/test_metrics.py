"""Unit checks of the benchmark's own arithmetic (perfbench/metrics.py).

    python3 perfbench/test_metrics.py

run.py also runs them before every benchmark run.
"""

import unittest

import metrics as M


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(M.percentile(values, 0.5), 50)
        self.assertEqual(M.percentile(values, 0.99), 99)
        self.assertEqual(M.percentile(values, 1.0), 100)
        self.assertEqual(M.percentile([7], 0.5), 7)

    def test_p99_kept_with_ten_samples_beyond(self):
        # 1000 samples: rank 990 leaves exactly 10 beyond it.
        self.assertEqual(M.tail_share(1000, 0.99), 0.99)
        self.assertEqual(M.tail_percentile(list(range(1000)), 0.99), (0.99, 989))

    def test_p99_lowered_until_ten_samples_beyond(self):
        # 500 samples: p99 would leave 5 beyond; the rule backs off to the
        # share whose nearest rank leaves exactly 10.
        share = M.tail_share(500, 0.99)
        self.assertAlmostEqual(share, 0.98)
        values = list(range(500))
        used, value = M.tail_percentile(values, 0.99)
        self.assertEqual(used, share)
        self.assertEqual(sum(v > value for v in values), 10)

    def test_too_few_samples_fall_back_to_median(self):
        self.assertIsNone(M.tail_share(10, 0.99))
        self.assertEqual(M.tail_percentile([1, 2, 3], 0.99), (0.5, 2))

    def test_rejects_empty_and_bad_share(self):
        with self.assertRaises(ValueError):
            M.percentile([], 0.5)
        with self.assertRaises(ValueError):
            M.percentile([1], 0.0)


class SelfTime(unittest.TestCase):
    def test_no_children(self):
        self.assertEqual(M.self_time((10, 50), []), 40)

    def test_disjoint_children(self):
        self.assertEqual(M.self_time((0, 100), [(10, 20), (30, 60)]), 60)

    def test_overlapping_children_count_once(self):
        self.assertEqual(M.self_time((0, 100), [(10, 40), (30, 60), (35, 50)]), 50)

    def test_children_clipped_to_parent(self):
        self.assertEqual(M.self_time((10, 20), [(0, 15), (18, 30)]), 3)
        self.assertEqual(M.self_time((10, 20), [(0, 5), (25, 30)]), 10)

    def test_fully_covered(self):
        self.assertEqual(M.self_time((0, 10), [(0, 10), (2, 3)]), 0)


class Reductions(unittest.TestCase):
    def test_idle_reference_counted_once_per_alpha_and_mix(self):
        rows = [
            # alpha 0: idle under two models shares one simulation.
            {"policy": "Idle", "mix": 0, "model": 0, "alpha": 0, "intervals": 100},
            {"policy": "Idle", "mix": 0, "model": 1, "alpha": 0, "intervals": 100},
            {"policy": "RM3", "mix": 0, "model": 0, "alpha": 0, "intervals": 110},
            {"policy": "RM3", "mix": 0, "model": 1, "alpha": 0, "intervals": 105},
            # alpha 1: a separate runner, so a separate idle simulation.
            {"policy": "Idle", "mix": 0, "model": 0, "alpha": 1, "intervals": 100},
            {"policy": "Idle", "mix": 1, "model": 0, "alpha": 1, "intervals": 90},
        ]
        self.assertEqual(M.sweep_simulated_intervals(rows), 100 + 110 + 105 + 100 + 90)

    def test_best_per_unit_takes_each_units_minimum(self):
        samples = [5, 9, 7,   4, 12, 8,   6, 10, 3]
        self.assertEqual(M.best_per_unit(samples, 3, 3), [4, 9, 3])
        self.assertEqual(M.best_per_unit([2, 1], 1, 2), [2, 1])
        with self.assertRaises(ValueError):
            M.best_per_unit([1, 2, 3], 2, 2)

    def test_median_per_unit_takes_each_units_median(self):
        samples = [5, 9, 7,   4, 12, 8,   6, 10, 3]
        self.assertEqual(M.median_per_unit(samples, 3, 3), [5, 10, 7])
        self.assertEqual(M.median_per_unit([2, 1, 4, 3], 2, 2), [3, 2])
        with self.assertRaises(ValueError):
            M.median_per_unit([1, 2, 3], 2, 2)

    def test_scaled_tail_takes_level_from_bests_and_shape_from_medians(self):
        # Medians 1..20: the rule backs off to p50 (10 beyond), ratio 1.
        medians = [float(v) for v in range(1, 21)]
        self.assertEqual(M.scaled_tail([5.0] * 20, medians, 0.99), (0.5, 5.0))
        # 100 medians 100..199: p90 is 189, the median 149; the bests' median
        # is 50, so the tail is 50 * 189 / 149 whatever the bests' own tail.
        medians = [float(v) for v in range(100, 200)]
        bests = sorted([50.0] * 90 + [500.0] * 10)
        share, value = M.scaled_tail(bests, medians, 0.99)
        self.assertEqual(share, 0.9)
        self.assertAlmostEqual(value, 50.0 * 189 / 149)

    def test_sweep_steps_are_per_decision_of_optimizer_rows(self):
        rows = [{"policy": "Idle", "rm_invocations": 0},
                {"policy": "RM1", "rm_invocations": 4},
                {"policy": "UCP", "rm_invocations": 4},
                {"policy": "RM3", "rm_invocations": 10}]
        self.assertEqual(M.sweep_decision_steps([100, 400, 40, 500], rows),
                         [100.0, 50.0])

    def test_intervals_per_s_over_the_best_case_pass(self):
        # Units best at 0.2 s + 0.3 s, fastest remainder 0.5 s: a 1 s pass.
        self.assertAlmostEqual(
            M.intervals_per_s(1000, [2e8, 3e8], [7e8, 5e8, 6e8]), 1000.0)
        with self.assertRaises(ValueError):
            M.intervals_per_s(1000, [1], [])
        with self.assertRaises(ValueError):
            M.intervals_per_s(0, [1], [1])

    def test_reject_rate_over_all_arrivals(self):
        rows = [{"arrivals": 300, "rejected": 0}, {"arrivals": 300, "rejected": 30},
                {"arrivals": 400, "rejected": 70}]
        self.assertAlmostEqual(M.reject_rate(rows), 0.1)
        with self.assertRaises(ValueError):
            M.reject_rate([{"arrivals": 0, "rejected": 0}])

    def test_service_grid_rates(self):
        rows = [{"violations": 10, "intervals": 100, "served": 1, "energy_per_app_j": 2.0},
                {"violations": 30, "intervals": 100, "served": 3, "energy_per_app_j": 4.0}]
        self.assertAlmostEqual(M.service_violation_rate(rows), 0.2)
        self.assertAlmostEqual(M.service_energy_per_app(rows), 3.5)


if __name__ == "__main__":
    unittest.main()
