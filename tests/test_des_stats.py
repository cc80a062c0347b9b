"""Unit tests for the statistics collectors."""

import math

import numpy as np
import pytest

from repro.des.stats import RunningStats


class TestRunningStats:
    def test_empty(self):
        acc = RunningStats()
        assert acc.n == 0
        assert math.isnan(acc.mean)
        assert math.isnan(acc.variance)

    def test_single_observation(self):
        acc = RunningStats()
        acc.add(5.0)
        assert acc.mean == 5.0
        assert acc.min == acc.max == 5.0
        assert math.isnan(acc.variance)

    def test_matches_numpy(self, rng):
        xs = [rng.gauss(10.0, 3.0) for _ in range(5_000)]
        acc = RunningStats()
        acc.extend(xs)
        assert acc.mean == pytest.approx(float(np.mean(xs)))
        assert acc.variance == pytest.approx(float(np.var(xs, ddof=1)))
        assert acc.stddev == pytest.approx(float(np.std(xs, ddof=1)))
        assert acc.min == min(xs)
        assert acc.max == max(xs)
        assert acc.total == pytest.approx(sum(xs))

    def test_merge_equals_bulk(self, rng):
        xs = [rng.random() for _ in range(1_000)]
        ys = [rng.random() * 3 for _ in range(700)]
        a, b, bulk = RunningStats(), RunningStats(), RunningStats()
        a.extend(xs)
        b.extend(ys)
        bulk.extend(xs + ys)
        a.merge(b)
        assert a.n == bulk.n
        assert a.mean == pytest.approx(bulk.mean)
        assert a.variance == pytest.approx(bulk.variance)
        assert a.min == bulk.min
        assert a.max == bulk.max

    def test_merge_into_empty(self):
        a, b = RunningStats(), RunningStats()
        b.extend([1.0, 2.0, 3.0])
        a.merge(b)
        assert a.n == 3
        assert a.mean == 2.0

    def test_merge_empty_is_noop(self):
        a, b = RunningStats(), RunningStats()
        a.extend([1.0, 2.0])
        a.merge(b)
        assert a.n == 2

    def test_ci95_contains_true_mean_usually(self, rng):
        hits = 0
        for _ in range(60):
            acc = RunningStats()
            acc.extend(rng.gauss(0.0, 1.0) for _ in range(200))
            low, high = acc.ci95()
            if low <= 0.0 <= high:
                hits += 1
        assert hits >= 50  # ~95% coverage, loose bound

    def test_ci95_needs_two_points(self):
        acc = RunningStats()
        acc.add(1.0)
        low, high = acc.ci95()
        assert math.isnan(low) and math.isnan(high)
