"""Tests for the analytical cluster composition
(:mod:`repro.cluster.model`) and its agreement with the cluster
simulator on ext08's operating regime."""

import math

import pytest

from repro.cluster import (
    ClusterSimConfig,
    ClusterSpec,
    analyze_cluster,
    chaos_plan,
    get_policies,
    predict_availability,
    rescue_horizon,
    run_cluster_simulation,
    shard_service_demands,
)
from repro.cluster.policies import RouterRetryPolicy
from repro.errors import ConfigurationError
from repro.resilience import SHARD_CRASH, FaultPlan, FaultSpec

_MEANS = {"search": 2.0, "insert": 3.0, "delete": 3.0}
_MIX = {"search": 0.3, "insert": 0.5, "delete": 0.2}


class TestDemands:
    def test_zero_load_demands_match_the_single_tree_model(self):
        from repro.algorithms import get_algorithm, names
        from repro.model import paper_default_config
        alg = get_algorithm(names.NAIVE_LOCK_COUPLING)
        config = paper_default_config(disk_cost=1.0)
        demands = shard_service_demands(alg.analyze, config)
        assert set(demands) == {"search", "insert", "delete"}
        assert all(d > 0 for d in demands.values())
        # At vanishing load the response *is* the service demand, and
        # updates cost more than searches.
        assert demands["insert"] > demands["search"]

    def test_breaker_anchor_is_the_rho_half_rate(self):
        from repro.algorithms import get_algorithm, names
        from repro.model import paper_default_config
        from repro.model.throughput import CapacitySearch
        from repro.parallel import SimTask, execute_task
        alg = get_algorithm(names.NAIVE_LOCK_COUPLING)
        # ext08's anchor: a search task for rho_w = 0.5.
        rate = execute_task(SimTask(CapacitySearch.of(
            alg.analyze, paper_default_config(disk_cost=1.0), target=0.5),
            kind="search"))
        assert 0 < rate < math.inf
        rho = alg.analyze(paper_default_config(disk_cost=1.0),
                          rate).root_writer_utilization
        assert rho == pytest.approx(0.5, abs=1e-3)


class TestComposition:
    def test_response_grows_with_load(self):
        spec = ClusterSpec(shards=4, replicas=2)
        lo = analyze_cluster(spec, 0.05, _MEANS, _MIX)
        hi = analyze_cluster(spec, 0.4, _MEANS, _MIX)
        assert lo.stable and hi.stable
        assert hi.mixed_response(_MIX) > lo.mixed_response(_MIX)

    def test_more_shards_dilute_per_shard_load(self):
        small = analyze_cluster(ClusterSpec(shards=2, replicas=2),
                                0.4, _MEANS, _MIX)
        large = analyze_cluster(ClusterSpec(shards=8, replicas=2),
                                0.4, _MEANS, _MIX)
        assert large.primary_utilization < small.primary_utilization

    def test_saturation_reported_not_raised(self):
        prediction = analyze_cluster(ClusterSpec(shards=1, replicas=1),
                                     10.0, _MEANS, _MIX)
        assert not prediction.stable
        assert prediction.mixed_response(_MIX) == math.inf

    def test_replicas_offload_reads(self):
        solo = analyze_cluster(ClusterSpec(shards=2, replicas=1),
                               0.3, _MEANS, _MIX)
        replicated = analyze_cluster(ClusterSpec(shards=2, replicas=3),
                                     0.3, _MEANS, _MIX)
        assert replicated.primary_utilization < solo.primary_utilization

    def test_invalid_inputs_rejected(self):
        spec = ClusterSpec(shards=2)
        with pytest.raises(ConfigurationError):
            analyze_cluster(spec, 0.0, _MEANS, _MIX)
        with pytest.raises(ConfigurationError):
            analyze_cluster(spec, 0.1, {"search": 2.0}, _MIX)

    def test_model_matches_simulator_fault_free(self):
        """The serialized-shard composition is what the simulator
        implements; at moderate load they agree within sampling noise."""
        spec = ClusterSpec(shards=4, replicas=2)
        rate = 0.2
        prediction = analyze_cluster(spec, rate, _MEANS, _MIX)
        result = run_cluster_simulation(ClusterSimConfig(
            spec=spec, arrival_rate=rate, service_means=_MEANS,
            mix=_MIX, policies=get_policies("fragile"),
            horizon=6_000.0, seed=5))
        assert result.mean_response == pytest.approx(
            prediction.mixed_response(_MIX), rel=0.20)


class TestAvailability:
    def _crash_plan(self, at=200.0, duration=100.0, shard=0):
        return FaultPlan(specs=(FaultSpec(
            kind=SHARD_CRASH, task_index=shard, at=at,
            duration=duration),))

    def test_fault_free_plan_is_fully_available(self):
        spec = ClusterSpec(shards=4)
        assert predict_availability(spec, FaultPlan(),
                                    get_policies("fragile"),
                                    1_000.0) == 1.0

    def test_fragile_loses_the_weighted_window(self):
        spec = ClusterSpec(shards=4)
        availability = predict_availability(
            spec, self._crash_plan(duration=100.0),
            get_policies("fragile"), 1_000.0)
        assert availability == pytest.approx(1.0 - 0.25 * 0.1)

    def test_retries_shrink_the_lost_window(self):
        spec = ClusterSpec(shards=4)
        plan = self._crash_plan(duration=400.0)
        fragile = predict_availability(spec, plan,
                                       get_policies("fragile"), 1_000.0)
        resilient = predict_availability(spec, plan,
                                         get_policies("resilient"),
                                         1_000.0)
        assert resilient > fragile
        span = rescue_horizon(get_policies("resilient").retry)
        assert resilient == pytest.approx(
            1.0 - 0.25 * (400.0 - span) / 1_000.0)

    def test_short_outages_fully_rescued(self):
        spec = ClusterSpec(shards=4)
        plan = self._crash_plan(duration=50.0)
        assert predict_availability(spec, plan,
                                    get_policies("resilient"),
                                    1_000.0) == 1.0

    def test_rescue_horizon_sums_the_schedule(self):
        retry = get_policies("resilient").retry
        backoff = retry.backoff
        expected = 0.0
        for attempt in range(1, backoff.max_retries + 1):
            delay = min(backoff.backoff_base
                        * backoff.backoff_factor ** (attempt - 1),
                        backoff.backoff_cap)
            expected += retry.timeout + delay * (1.0 + 0.5 * backoff.jitter)
        assert rescue_horizon(retry) == pytest.approx(expected)
        assert rescue_horizon(RouterRetryPolicy(enabled=False)) == 0.0

    def test_availability_model_matches_simulator(self):
        """Fragile crash availability is exact up to Poisson noise."""
        spec = ClusterSpec(shards=4, replicas=2)
        plan = chaos_plan(4, 1, 2_000.0)
        predicted = predict_availability(spec, plan,
                                         get_policies("fragile"), 2_000.0)
        result = run_cluster_simulation(ClusterSimConfig(
            spec=spec, arrival_rate=0.3, service_means=_MEANS,
            mix=_MIX, policies=get_policies("fragile"),
            horizon=2_000.0, seed=9, faults=plan))
        assert result.availability == pytest.approx(predicted, abs=0.03)


class TestExt08:
    def test_tiny_sweep_shape_and_degradation(self, tmp_path):
        from repro.parallel import ResultCache
        from repro.report import get_figure
        table = get_figure("ext08").run(scale=0.05,
                                        cache=ResultCache(tmp_path))
        assert len(table.rows) == 12
        shed = sum(table.column("shed_writes"))
        retries = sum(table.column("retries"))
        assert retries > 0
        assert shed >= 0  # breaker sheds appear at larger scales
        for fragile, resilient in zip(table.column("availability_fragile"),
                                      table.column("availability_resilient")):
            assert 0.9 <= fragile <= 1.0
            assert 0.9 <= resilient <= 1.0

    def test_deterministic_across_invocations(self, tmp_path):
        # Two caches, so the second invocation simulates again.
        from repro.parallel import ResultCache
        from repro.report import get_figure
        a, b = (get_figure("ext08").run(
            scale=0.05, cache=ResultCache(tmp_path / name))
            for name in ("a", "b"))
        assert a.rows == b.rows
        assert a.notes == b.notes
