"""Tests for the parallel sweep execution layer (repro.parallel)."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import ConfigurationError
from repro.parallel import (
    CODE_SALT,
    ResultCache,
    SimTask,
    config_key,
    current_context,
    execution,
    replication_tasks,
    run_batch,
    task_key,
)
from repro.simulator.config import SimulationConfig
from repro.simulator.driver import (
    pooled_response_means,
    run_replications,
    run_simulation,
)
from repro.workload import WorkloadSpec, ZipfKeysSpec


def _quick(**overrides) -> SimulationConfig:
    defaults = dict(algorithm="naive-lock-coupling", arrival_rate=0.15,
                    n_items=2_000, n_operations=150, warmup_operations=20,
                    seed=7)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


# ----------------------------------------------------------------------
# Determinism: parallel == serial, bit for bit
# ----------------------------------------------------------------------
class TestParallelDeterminism:

    def test_parallel_results_identical_to_serial(self):
        config = _quick()
        serial = run_replications(config, n_seeds=4, jobs=1)
        parallel = run_replications(config, n_seeds=4, jobs=4)
        assert parallel == serial  # full SimulationResult equality
        assert pooled_response_means(parallel) == \
            pooled_response_means(serial)
        for s, p in zip(serial, parallel):
            assert p.mean_lock_waits == s.mean_lock_waits
            assert p.seed == s.seed

    def test_batch_preserves_task_order(self):
        configs = [_quick(seed=seed) for seed in (3, 1, 2)]
        results = run_batch([SimTask(c) for c in configs], jobs=3)
        assert [r.seed for r in results] == [3, 1, 2]

    def test_closed_task_matches_direct_call(self):
        from repro.simulator.closed import run_closed_simulation
        config = _quick(n_operations=100)
        task = SimTask(config, kind="closed", mpl=5)
        [via_batch] = run_batch([task], jobs=1)
        # repr-level comparison: closed runs have arrival_rate=nan and
        # nan != nan under dataclass equality.
        assert repr(via_batch) == repr(run_closed_simulation(config, 5))

    def test_closed_task_requires_mpl(self):
        with pytest.raises(ConfigurationError):
            SimTask(_quick(), kind="closed")
        with pytest.raises(ConfigurationError):
            SimTask(_quick(), kind="bogus")


# ----------------------------------------------------------------------
# Fail-fast: no failure policy, the first task exception propagates
# ----------------------------------------------------------------------
def _failing_task() -> SimTask:
    # run_closed_simulation rejects a negative think time when it runs.
    return SimTask(_quick(), kind="closed", mpl=2, think_time=-1.0)


class TestFailFast:

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_task_exception_propagates_with_its_own_type(self, jobs):
        tasks = [SimTask(_quick(seed=1)), _failing_task(),
                 SimTask(_quick(seed=2))]
        with pytest.raises(ConfigurationError, match="think_time"):
            run_batch(tasks, jobs=jobs)

    def test_inline_batch_caches_the_tasks_finished_before(self, tmp_path):
        cache = ResultCache(tmp_path)
        done = [SimTask(_quick(seed=seed)) for seed in (1, 2)]
        after = SimTask(_quick(seed=3))
        with pytest.raises(ConfigurationError):
            run_batch(done + [_failing_task(), after], jobs=1, cache=cache)
        assert cache.stats.stores == 2
        for task in done:
            assert cache.get(task_key(task, salt=cache.salt)) is not None
        assert cache.get(task_key(after, salt=cache.salt)) is None


# ----------------------------------------------------------------------
# Cache keying
# ----------------------------------------------------------------------
class TestConfigKey:

    def test_stable_and_sensitive(self):
        config = _quick()
        assert config_key(config) == config_key(_quick())
        assert config_key(config) != config_key(_quick(seed=8))
        assert config_key(config) != config_key(
            _quick(arrival_rate=0.2))
        assert config_key(config) != config_key(config, kind="closed",
                                                extra={"mpl": 5})

    def test_salt_change_busts_every_key(self):
        config = _quick()
        assert config_key(config, salt="sim-v1") != \
            config_key(config, salt="sim-v2")


class TestGoldenKeys:
    """Pinned ``task_key`` values: any change to a config field's
    canonical form (a renamed or added ``MergePolicy`` field, say)
    silently invalidates every cached result, and must fail here
    unless it bumps ``CODE_SALT`` on purpose."""

    @pytest.mark.parametrize("task,expected", [
        (SimTask(SimulationConfig()),
         "7f0942ac2b60fb05d71b453dd3d78112bc85ffc556ab0e07eb2b2ff7585db99e"),
        (SimTask(SimulationConfig(algorithm="optimistic-descent"),
                 kind="closed", mpl=8, think_time=2.0),
         "108107aab1a14ba44f4e1d785e511a03636bac48db0c306c6f369ffea8977a0b"),
        (SimTask(SimulationConfig(key_distribution="hotspot",
                                  hot_fraction=0.2, hot_probability=0.8)),
         "389a0f455978f050b62c4830bfb64d5b7566d5f4b55fd4c308a3dc083aac68c2"),
        (SimTask(SimulationConfig(
            workload=WorkloadSpec(keys=ZipfKeysSpec(theta=0.9)))),
         "7cd72e33a21f27d251c1dd807f3c062d46db488dbce4d762d4167933c5880291"),
    ], ids=["default", "closed-optimistic", "legacy-hotspot", "zipf"])
    def test_task_key(self, task, expected):
        assert CODE_SALT == "sim-v2"
        assert task_key(task) == expected


# ----------------------------------------------------------------------
# Cache behavior: hit / miss / invalidation / corruption
# ----------------------------------------------------------------------
class TestResultCache:

    def test_miss_then_store_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = _quick()
        first = run_batch(replication_tasks(config, 2), cache=cache)
        assert cache.stats.misses == 2
        assert cache.stats.stores == 2
        assert cache.stats.hits == 0

        second = run_batch(replication_tasks(config, 2), cache=cache)
        assert cache.stats.hits == 2
        assert cache.stats.stores == 2  # nothing recomputed
        assert second == first

    def test_hits_survive_a_fresh_cache_instance(self, tmp_path):
        config = _quick()
        first = run_replications(config, n_seeds=2,
                                 cache=ResultCache(tmp_path))
        reopened = ResultCache(tmp_path)
        second = run_replications(config, n_seeds=2, cache=reopened)
        assert reopened.stats.hits == 2
        assert reopened.stats.misses == 0
        assert second == first

    def test_salt_change_invalidates_entries(self, tmp_path):
        config = _quick()
        run_replications(config, n_seeds=1, cache=ResultCache(tmp_path))
        bumped = ResultCache(tmp_path, salt="sim-v2-test")
        run_replications(config, n_seeds=1, cache=bumped)
        assert bumped.stats.hits == 0
        assert bumped.stats.misses == 1
        assert bumped.stats.stores == 1

    def test_corrupt_entry_recovers_by_recompute(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = _quick()
        [expected] = run_batch([SimTask(config)], cache=cache)
        key = task_key(SimTask(config), salt=cache.salt)
        cache.path_for(key).write_bytes(b"\x00not a pickle")

        fresh = ResultCache(tmp_path)
        [recovered] = run_batch([SimTask(config)], cache=fresh)
        assert recovered == expected
        assert fresh.stats.errors == 1
        assert fresh.stats.misses == 1
        assert fresh.stats.stores == 1
        # The overwritten entry is readable again.
        assert ResultCache(tmp_path).get(key) == expected

    def test_wrong_payload_type_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = config_key(_quick(), salt=cache.salt)
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps({"not": "a result"}))
        assert cache.get(key) is None
        assert cache.stats.errors == 1

    def test_truncated_entry_is_a_miss_not_a_crash(self, tmp_path):
        # Regression: a crash mid-write (or torn copy) must degrade to
        # a miss.  The checksum header catches any truncation point.
        cache = ResultCache(tmp_path)
        [expected] = run_batch([SimTask(_quick())], cache=cache)
        key = task_key(SimTask(_quick()), salt=cache.salt)
        path = cache.path_for(key)
        blob = path.read_bytes()
        for cut in (1, len(blob) // 2, len(blob) - 1):
            path.write_bytes(blob[:cut])
            fresh = ResultCache(tmp_path)
            assert fresh.get(key) is None
            assert fresh.stats.errors == 1
        # Garbage of the right length fails the checksum too.
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(bytes(len(blob)))
        fresh = ResultCache(tmp_path)
        assert fresh.get(key) is None

    def test_checksum_catches_single_bit_flip(self, tmp_path):
        cache = ResultCache(tmp_path)
        [expected] = run_batch([SimTask(_quick())], cache=cache)
        key = task_key(SimTask(_quick()), salt=cache.salt)
        path = cache.path_for(key)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x01  # bit rot in the payload tail
        path.write_bytes(bytes(blob))
        fresh = ResultCache(tmp_path)
        assert fresh.get(key) is None
        assert fresh.stats.errors == 1
        # A recompute round-trips through the checksummed format.
        [recovered] = run_batch([SimTask(_quick())], cache=fresh)
        assert recovered == expected
        assert ResultCache(tmp_path).get(key) == expected

    def test_legacy_headerless_entry_still_loads(self, tmp_path):
        # Entries written before the checksum header must remain
        # readable (no CODE_SALT bump accompanied the format change).
        cache = ResultCache(tmp_path)
        [expected] = run_batch([SimTask(_quick())], cache=cache)
        key = task_key(SimTask(_quick()), salt=cache.salt)
        cache.path_for(key).write_bytes(
            pickle.dumps(expected, protocol=pickle.HIGHEST_PROTOCOL))
        fresh = ResultCache(tmp_path)
        assert fresh.get(key) == expected
        assert fresh.stats.errors == 0

    def test_clear_empties_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_replications(_quick(), n_seeds=2, cache=cache)
        assert cache.clear() == 2
        assert cache.clear() == 0
        rerun = ResultCache(tmp_path)
        run_replications(_quick(), n_seeds=2, cache=rerun)
        assert rerun.stats.hits == 0


# ----------------------------------------------------------------------
# Execution context
# ----------------------------------------------------------------------
class TestExecutionContext:

    def test_default_is_serial_uncached(self):
        context = current_context()
        assert not context.parallel
        assert context.cache is None

    def test_nested_contexts_inherit_and_restore(self, tmp_path):
        cache = ResultCache(tmp_path)
        with execution(jobs=4, cache=cache):
            assert current_context().parallel
            with execution(jobs=1):
                inner = current_context()
                assert not inner.parallel
                assert inner.cache is cache  # inherited
            assert current_context().jobs == 4
        assert current_context().cache is None

    def test_batch_picks_up_ambient_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        with execution(cache=cache):
            run_batch([SimTask(_quick())])
            run_batch([SimTask(_quick())])
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1

    def test_negative_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            with execution(jobs=-1):
                pass  # pragma: no cover


# ----------------------------------------------------------------------
# The figure pipeline end to end (acceptance criterion)
# ----------------------------------------------------------------------
class TestFigurePipeline:

    def test_second_figure_run_is_all_cache_hits(self, tmp_path):
        # Stand-in for "btree-perf figures ext05 --scale ... twice": the
        # second regeneration must be served entirely from the cache.
        from repro.report import get_figure
        experiment = get_figure("ext05")
        cache = ResultCache(tmp_path)
        with execution(cache=cache):
            first = experiment.run(scale=0.01)
        computed = cache.stats.stores
        assert computed > 0
        assert cache.stats.hits == 0

        with execution(cache=cache):
            second = experiment.run(scale=0.01)
        assert cache.stats.hits == computed  # every point reused
        assert cache.stats.stores == computed  # nothing recomputed
        assert second.rows == first.rows

    def test_sweep_helpers_match_pointwise_calls(self):
        from repro.experiments.common import sweep_simulated_responses
        base = _quick()
        rates = (0.1, 0.2)
        swept = sweep_simulated_responses(base, rates, scale=0.01)
        pointwise = [sweep_simulated_responses(base, [rate], scale=0.01)[0]
                     for rate in rates]
        assert swept == pointwise

    def test_cli_cache_flags(self, tmp_path, monkeypatch):
        from repro.experiments.runner import main as cli_main
        cache_dir = tmp_path / "cache"
        out = tmp_path / "out"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        argv = ["figures", "ext05", "--scale", "0.01", "--jobs", "2",
                "--formats", "svg", "--no-claims", "--out", str(out)]
        sidecar = out / "ext05.ndjson"
        assert cli_main(argv) == 0
        first = sidecar.read_bytes()
        entries = list(cache_dir.glob("*/*.pkl"))
        assert entries  # the CLI populated the cache

        assert cli_main(argv) == 0  # second run: served from cache
        assert sidecar.read_bytes() == first

        assert cli_main(argv + ["--clear-cache", "--no-cache"]) == 0
        assert sidecar.read_bytes() == first
        assert not list(cache_dir.glob("*/*.pkl"))  # cleared, not refilled


# ----------------------------------------------------------------------
# Worker entry point
# ----------------------------------------------------------------------
class TestExecuteTask:

    def test_execute_task_is_picklable_and_pure(self):
        from repro.parallel import execute_task
        task = SimTask(_quick())
        clone = pickle.loads(pickle.dumps(task))
        assert execute_task(clone) == run_simulation(_quick())

    def test_config_pickle_preserves_merge_policy(self):
        # Regression: configs cross process boundaries, and a worker
        # once raised BTreeError on the first emptied leaf because the
        # unpickled merge policy was a copy, not the canonical object.
        from repro.btree.policies import MERGE_AT_EMPTY
        from repro.model.params import OperationMix
        configs = [_quick(n_items=200, order=4, seed=seed,
                          mix=OperationMix(0.3, 0.385, 0.315))
                   for seed in (7, 8)]
        clones = [pickle.loads(pickle.dumps(config)) for config in configs]
        assert all(clone.merge_policy == MERGE_AT_EMPTY for clone in clones)
        results = run_batch([SimTask(clone) for clone in clones], jobs=2)
        assert all(result.leaf_removals > 0 for result in results)
        assert results == [run_simulation(config) for config in configs]
