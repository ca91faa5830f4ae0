"""Tests of the benchmark's metric arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import statistics
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics as m  # noqa: E402


class NearestRank(unittest.TestCase):
    def test_picks_ceil_rank(self):
        values = [5, 1, 4, 2, 3]
        self.assertEqual(m.nearest_rank(values, 0.5), 3)
        self.assertEqual(m.nearest_rank(values, 0.2), 1)
        self.assertEqual(m.nearest_rank(values, 0.21), 2)
        self.assertEqual(m.nearest_rank(values, 1.0), 5)

    def test_rank_is_exact_where_floats_round_up(self):
        # 0.9 * 100 is 90.00000000000001 in binary floating point; a
        # naive ceil would pick the 91st value.
        values = list(range(1, 101))
        self.assertEqual(m.nearest_rank(values, 0.9), 90)
        self.assertEqual(m.nearest_rank(list(range(1, 11)), 0.7), 7)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            m.nearest_rank([], 0.5)
        with self.assertRaises(ValueError):
            m.nearest_rank([1], 0)
        with self.assertRaises(ValueError):
            m.nearest_rank([1], 1.5)


class TailPercentile(unittest.TestCase):
    def test_needs_ten_beyond(self):
        # p90 of 100 samples is the 90th; 10 lie beyond it.
        self.assertEqual(m.tail_percentile(list(range(100)), 0.9), 89)
        with self.assertRaises(ValueError):
            m.tail_percentile(list(range(99)), 0.9)

    def test_beyond_is_configurable(self):
        self.assertEqual(m.tail_percentile(list(range(20)), 0.9, 2), 17)
        with self.assertRaises(ValueError):
            m.tail_percentile(list(range(20)), 0.9, 3)


class MedianPerCell(unittest.TestCase):
    def test_median_over_passes(self):
        # Three passes over two cells.
        samples = [5.0, 7.0, 9.0, 4.0, 6.0, 8.0]
        self.assertEqual(m.median_per_cell(samples, 2), [6.0, 7.0])

    def test_rejects_partial_passes(self):
        with self.assertRaises(ValueError):
            m.median_per_cell([1.0, 2.0, 3.0, 4.0], 3)
        with self.assertRaises(ValueError):
            m.median_per_cell([], 3)


class ReferenceSpeed(unittest.TestCase):
    def test_rolling_median_cuts_at_the_ends(self):
        self.assertEqual(m.rolling_median([1, 9, 2, 8, 3], 1),
                         [5.0, 2, 8, 3, 5.5])
        self.assertEqual(m.rolling_median([4, 1, 7], 0), [4, 1, 7])

    def test_slow_phase_cancels(self):
        # The host runs at half speed for the middle three cells: the
        # cells and the probes after them take twice as long.
        cells = [10.0, 10.0, 20.0, 20.0, 20.0, 10.0, 10.0]
        probes = [2.0, 2.0, 4.0, 4.0, 4.0, 2.0, 2.0]
        scaled = m.at_reference_speed(cells, probes, reference_ms=2.0,
                                      half_window=1)
        self.assertEqual(scaled, [10.0] * 7)

    def test_one_slow_probe_is_outvoted(self):
        cells = [10.0] * 5
        probes = [2.0, 2.0, 50.0, 2.0, 2.0]
        scaled = m.at_reference_speed(cells, probes, reference_ms=2.0,
                                      half_window=2)
        self.assertEqual(scaled, [10.0] * 5)

    def test_reference_sets_the_scale(self):
        self.assertEqual(m.at_reference_speed([10.0], [4.0],
                                              reference_ms=2.0), [5.0])

    def test_rejects_unpaired_probes(self):
        with self.assertRaises(ValueError):
            m.at_reference_speed([1.0, 2.0], [1.0])

    def test_setup_uses_probes_on_both_sides(self):
        # Two set-ups framed by two probes per gap: 3 gaps, 6 probes.
        probes = [2.0, 2.0, 4.0, 4.0, 4.0, 4.0]
        scaled = m.setup_at_reference_speed([1.0, 2.0], probes, 2,
                                            reference_ms=2.0)
        self.assertEqual(scaled, [1.0 * 2.0 / 3.0, 1.0])
        with self.assertRaises(ValueError):
            m.setup_at_reference_speed([1.0, 2.0], probes[:4], 2)


class Gains(unittest.TestCase):
    def test_gain_and_error(self):
        # Mean slowdown 2.0 -> 1.6 is 20% lower; the paper says 17.9%.
        gain = m.gain_pct([1.5, 2.5], [1.2, 2.0])
        self.assertAlmostEqual(gain, 20.0)
        self.assertAlmostEqual(m.err_pp(gain, 17.9), 2.1)
        self.assertAlmostEqual(m.err_pp(15.0, 17.9), 2.9)

    def test_dual_gains_pairs_mixes_by_name(self):
        def cell(mix, design, nonrng, rng, unfair):
            return {"mix": mix, "design": design, "nonrng_slowdown": nonrng,
                    "rng_slowdown": rng, "unfairness": unfair}
        cells = [
            cell("b", "oblivious", 2.0, 1.0, 3.0),
            cell("a", "oblivious", 2.0, 1.0, 1.0),
            cell("a", "greedy", 9.0, 9.0, 9.0),
            cell("a", "drstrange", 1.0, 0.5, 1.0),
            cell("b", "drstrange", 2.0, 0.5, 1.0),
        ]
        gains = m.dual_gains(cells)
        self.assertAlmostEqual(gains["nonrng"], 25.0)
        self.assertAlmostEqual(gains["rng"], 50.0)
        self.assertAlmostEqual(gains["unfair"], 50.0)

    def test_dual_gains_rejects_unpaired_mixes(self):
        cells = [{"mix": "a", "design": "oblivious", "nonrng_slowdown": 1,
                  "rng_slowdown": 1, "unfairness": 1}]
        with self.assertRaises(KeyError):
            m.dual_gains(cells)


class SelfTime(unittest.TestCase):
    def test_positive_when_replay_is_faster(self):
        self.assertAlmostEqual(m.self_ms(217.0, 106.0), 111.0)

    def test_kept_negative_when_replay_is_slower(self):
        # Under fault injection the tape replay runs 1.6-1.8x the live
        # run; the difference must stay signed, not clamp to zero.
        self.assertAlmostEqual(m.self_ms(70.0, 119.0), -49.0)


class Spread(unittest.TestCase):
    def test_matches_statistics_quartiles(self):
        values = [10.0, 10.5, 9.8, 10.2, 10.1, 9.9, 10.4, 10.0, 10.3, 9.7]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(m.spread(values),
                               (q3 - q1) / statistics.median(values))

    def test_check_against_bound(self):
        values = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]
        s, ok = m.spread_check(values, 0.10)
        self.assertTrue(ok)
        self.assertLess(s, 0.10)
        self.assertFalse(m.spread_check(values, 0.01)[1])

    def test_worse_by_respects_direction(self):
        self.assertAlmostEqual(m.worse_by(10.0, 11.0, "lower"), 0.1)
        self.assertAlmostEqual(m.worse_by(10.0, 11.0, "higher"), -0.1)
        self.assertAlmostEqual(m.worse_by(10.0, 9.0, "higher"), 0.1)


if __name__ == "__main__":
    unittest.main()
