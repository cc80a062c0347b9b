"""Integration-grade unit tests for the simulation driver."""

import math

import pytest

from repro.simulator import SimulationConfig, run_replications, run_simulation
from repro.simulator.driver import pooled_response_means


def _quick(algorithm="naive-lock-coupling", **overrides):
    defaults = dict(algorithm=algorithm, arrival_rate=0.1, n_items=3_000,
                    n_operations=400, warmup_operations=50, seed=5)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestBasicRuns:
    @pytest.mark.parametrize("algorithm", ["naive-lock-coupling",
                                           "optimistic-descent",
                                           "link-type"])
    def test_run_completes_and_measures(self, algorithm):
        result = run_simulation(_quick(algorithm))
        assert not result.overflowed
        assert result.measured_operations >= 400
        assert result.elapsed_time > 0
        for op in ("search", "insert", "delete"):
            assert result.mean_response[op] > 0
        assert result.throughput == pytest.approx(0.1, rel=0.4)

    def test_deterministic_per_seed(self):
        a = run_simulation(_quick(seed=3))
        b = run_simulation(_quick(seed=3))
        assert a.mean_response == b.mean_response
        assert a.splits == b.splits
        assert a.elapsed_time == b.elapsed_time

    def test_seeds_differ(self):
        a = run_simulation(_quick(seed=3))
        b = run_simulation(_quick(seed=4))
        assert a.mean_response != b.mean_response

    def test_tree_grows_during_run(self):
        """Inserts outnumber deletes, so the tree ends bigger."""
        result = run_simulation(_quick(n_operations=1_500))
        assert result.final_tree_size > 3_000

    def test_lock_waits_collected_per_level(self):
        result = run_simulation(_quick(arrival_rate=0.3))
        assert set(result.mean_lock_waits) >= {1, 2, 3}
        for level, (read_wait, write_wait) in result.mean_lock_waits.items():
            if not math.isnan(read_wait):
                assert read_wait >= 0.0
            if not math.isnan(write_wait):
                assert write_wait >= 0.0

    def test_root_utilization_sampled(self):
        result = run_simulation(_quick(arrival_rate=0.3))
        assert 0.0 <= result.root_writer_utilization <= 1.0


class TestSaturation:
    def test_overflow_flags_saturation(self):
        """An absurd arrival rate exhausts the operation allocation —
        the paper's simulator 'crash'."""
        config = _quick(arrival_rate=50.0, max_population=60,
                        n_operations=5_000)
        result = run_simulation(config)
        assert result.overflowed
        assert result.peak_population > 60
        assert result.response("search") > 0 or \
            result.response("search") == math.inf

    def test_sustainable_load_does_not_overflow(self):
        result = run_simulation(_quick(arrival_rate=0.05))
        assert not result.overflowed
        assert result.peak_population < 50


class TestWarmup:
    def test_zero_warmup(self):
        result = run_simulation(_quick(warmup_operations=0,
                                       n_operations=200))
        assert result.measured_operations >= 200

    def test_measured_count_excludes_warmup(self):
        result = run_simulation(_quick(warmup_operations=100,
                                       n_operations=300))
        # Exactly the requested number measured (plus simultaneous
        # completions at the stop event).
        assert 300 <= result.measured_operations <= 320


class TestAlgorithmSpecificCounters:
    def test_naive_counts_splits(self):
        result = run_simulation(_quick(n_operations=1_500))
        assert result.splits > 0
        assert result.redo_descents == 0
        assert result.link_crossings == 0

    def test_optimistic_counts_redos(self):
        result = run_simulation(_quick("optimistic-descent",
                                       n_operations=1_500))
        assert result.redo_descents > 0

    def test_link_may_cross_links(self):
        result = run_simulation(_quick("link-type", arrival_rate=2.0,
                                       n_operations=1_500))
        # Crossings are rare; mostly we assert the counter exists and the
        # run is healthy at a rate lock-coupling could not sustain.
        assert result.link_crossings >= 0
        assert not result.overflowed


class TestReplications:
    def test_run_replications_uses_distinct_seeds(self):
        results = run_replications(_quick(), n_seeds=3)
        assert len(results) == 3
        assert len({r.seed for r in results}) == 3

    def test_progress_callback(self):
        seen = []
        run_replications(_quick(n_operations=150), n_seeds=2,
                         progress=seen.append)
        assert len(seen) == 2

    def test_pooled_means(self):
        results = run_replications(_quick(), n_seeds=2)
        pooled = pooled_response_means(results)
        for op in ("search", "insert", "delete"):
            individual = [r.mean_response[op] for r in results]
            assert min(individual) <= pooled[op] <= max(individual)

    def test_pooled_means_all_overflowed(self):
        config = _quick(arrival_rate=80.0, max_population=40,
                        n_operations=2_000)
        results = run_replications(config, n_seeds=2)
        assert all(r.overflowed for r in results)
        pooled = pooled_response_means(results)
        assert pooled["search"] == math.inf
