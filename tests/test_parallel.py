"""Tests for the parallel sweep execution layer (repro.parallel)."""

from __future__ import annotations

import copy
import dataclasses
import pickle
import re

import pytest

from repro.btree.policies import MergePolicy
from repro.errors import ConfigurationError
from repro.model import (
    NAIVE_RECOVERY,
    analyze_lock_coupling,
    analyze_optimistic_with_recovery,
    paper_default_config,
)
from repro.model.params import CostModel, OperationMix
from repro.model.throughput import CapacitySearch
from repro.parallel import (
    CODE_SALT,
    ResultCache,
    SimTask,
    config_key,
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
from repro.workload import (HotspotKeysSpec, MMPPArrivals,
                            TransactionSpec, WorkloadSpec, ZipfKeysSpec)


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

    def test_mutable_config_is_walked_every_time(self):
        from repro.cluster import ClusterSimConfig, ClusterSpec
        mix = {"search": 0.3, "insert": 0.5, "delete": 0.2}
        config = ClusterSimConfig(
            spec=ClusterSpec(shards=2, replicas=2), arrival_rate=0.3,
            service_means={"search": 2.0, "insert": 3.0, "delete": 3.0},
            mix=mix, horizon=200.0, seed=3)
        before = config_key(config, kind="cluster")
        mix["search"] = 0.4
        assert config_key(config, kind="cluster") != before

    def test_salt_change_busts_every_key(self):
        config = _quick()
        assert config_key(config, salt="sim-v1") != \
            config_key(config, salt="sim-v2")


#: A value other than the default for every field of the configs
#: that ``config_key`` walks, by class and field name.
OTHER_VALUES = {
    SimulationConfig: {
        "algorithm": "link-type",
        "arrival_rate": 0.25,
        "order": 9,
        "n_items": 1_000,
        "mix": OperationMix(0.5, 0.3, 0.2),
        "costs": CostModel(disk_cost=10.0),
        # No second legal value: set past the constructor's check.
        "merge_policy": MergePolicy("merge-at-half", 1, 2),
        "n_operations": 300,
        "warmup_operations": 30,
        "max_population": 50,
        "key_space": 10**6,
        "seed": 8,
        "recovery": "naive-recovery",
        "t_trans": 50.0,
        "workload": WorkloadSpec(keys=ZipfKeysSpec(theta=0.9)),
    },
    CostModel: {
        "node_search_time": 2.0,
        "disk_cost": 10.0,
        "in_memory_levels": 3,
        "modify_factor": 1.5,
        "split_factor": 4.0,
        "merge_factor": 2.0,
        "level_dilations": (1.0, 1.0, 5.0),
    },
    WorkloadSpec: {
        "arrival": MMPPArrivals(),
        "keys": HotspotKeysSpec(hot_fraction=0.2, hot_probability=0.8),
        "transaction": TransactionSpec(size=3),
    },
}


def _field_cases():
    return [(cls, f.name) for cls in OTHER_VALUES
            for f in dataclasses.fields(cls)]


def _with_field(value, name, other):
    changed = copy.copy(value)
    object.__setattr__(changed, name, other)
    return changed


class TestEveryFieldIsHashed:
    """``config_key`` hashes every field, with no special case: a
    config that differs from another in any one field, nested specs
    included, gets a different key."""

    @pytest.mark.parametrize("cls", list(OTHER_VALUES),
                             ids=lambda cls: cls.__name__)
    def test_table_names_exactly_the_fields(self, cls):
        assert set(OTHER_VALUES[cls]) == \
            {f.name for f in dataclasses.fields(cls)}

    @pytest.mark.parametrize(
        "cls,name", _field_cases(),
        ids=[f"{cls.__name__}.{name}" for cls, name in _field_cases()])
    def test_one_changed_field_changes_the_key(self, cls, name):
        other = OTHER_VALUES[cls][name]
        if cls is SimulationConfig:
            base = SimulationConfig(algorithm="optimistic-descent")
            changed = _with_field(base, name, other)
        elif cls is CostModel:
            base = SimulationConfig(costs=CostModel())
            changed = _with_field(
                base, "costs", _with_field(base.costs, name, other))
        else:
            base = SimulationConfig(workload=WorkloadSpec())
            changed = _with_field(
                base, "workload", _with_field(base.workload, name, other))
        assert changed != base
        assert config_key(changed) != config_key(base)


class TestGoldenKeys:
    """Pinned ``task_key`` values.  ``config_key`` hashes every config
    field by name, so adding, renaming or deleting a field gives every
    task a new key by construction: no cached result can be read under
    a changed meaning, and the change re-pins these keys (with the new
    value shown to follow from the old payload) without a ``CODE_SALT``
    bump.  A change that keeps every field but alters results, or any
    other key drift, must fail here unless it bumps the salt on
    purpose."""

    @pytest.mark.parametrize("task,expected", [
        (SimTask(SimulationConfig()),
         "1361db65df70148c54551a499d81bdb763fd5aea66394561479e43bf6bf365e4"),
        (SimTask(SimulationConfig(algorithm="optimistic-descent"),
                 kind="closed", mpl=8, think_time=2.0),
         "addadc7120a092f900000364cb217d34e970118f1a1f93efed7c322eedb91dc6"),
        (SimTask(SimulationConfig(workload=WorkloadSpec(
            keys=HotspotKeysSpec(hot_fraction=0.2, hot_probability=0.8)))),
         "bc0eba0f4b84c1a93c26e2807cd99b85bed3fc4c414709cc5db0d2211615b701"),
        (SimTask(SimulationConfig(
            workload=WorkloadSpec(keys=ZipfKeysSpec(theta=0.9)))),
         "b451e37f9640c17cdbabae8f2d6bdbecddd1d682654806b74bea705db66d8c4a"),
        (SimTask(CapacitySearch.of(analyze_lock_coupling,
                                   paper_default_config()), kind="search"),
         "649a47cd5a99959fcb0595aa0ef1eec95010314bd30bc4ab48b002069bb2c1c8"),
        (SimTask(CapacitySearch.of(analyze_optimistic_with_recovery,
                                   paper_default_config(disk_cost=10.0),
                                   target=0.5, policy=NAIVE_RECOVERY,
                                   t_trans=100.0), kind="search"),
         "3c78108d54d52e107f5cdb5bd571d687f2aec83492b7d6bd8aed58fe38700100"),
    ], ids=["default", "closed-optimistic", "legacy-hotspot", "zipf",
            "search-theorem2", "search-target-kwargs"])
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

    def test_legacy_headerless_entry_is_recomputed(self, tmp_path):
        # A headerless pickle carries no checksum, so it is never
        # loaded: it counts as a miss, is deleted, and the run is
        # recomputed to the same result.
        cache = ResultCache(tmp_path)
        [expected] = run_batch([SimTask(_quick())], cache=cache)
        key = task_key(SimTask(_quick()), salt=cache.salt)
        path = cache.path_for(key)
        path.write_bytes(
            pickle.dumps(expected, protocol=pickle.HIGHEST_PROTOCOL))
        fresh = ResultCache(tmp_path)
        assert fresh.get(key) is None
        assert fresh.stats.misses == 1 and fresh.stats.errors == 1
        assert not path.exists()
        [recomputed] = run_batch([SimTask(_quick())], cache=fresh)
        assert recomputed == expected
        assert fresh.stats.stores == 1
        assert ResultCache(tmp_path).get(key) == expected

    @pytest.mark.parametrize("below", [(), ("sub",)])
    def test_file_in_place_of_directory_is_refused(self, tmp_path, below):
        # Refused when the cache is built, not at its first store after
        # a task has already run.
        blocker = tmp_path / "cache"
        blocker.write_text("not a directory")
        with pytest.raises(ConfigurationError, match="not a directory"):
            ResultCache(blocker.joinpath(*below))

    def test_clear_empties_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_replications(_quick(), n_seeds=2, cache=cache)
        assert cache.clear() == 2
        assert cache.clear() == 0
        rerun = ResultCache(tmp_path)
        run_replications(_quick(), n_seeds=2, cache=rerun)
        assert rerun.stats.hits == 0


# ----------------------------------------------------------------------
# Batch settings: explicit arguments with serial, uncached defaults
# ----------------------------------------------------------------------
class TestBatchDefaults:

    def test_default_is_serial_uncached(self, tmp_path, monkeypatch):
        from repro.parallel import executor
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        executed = []

        def counting(task):
            executed.append(task)
            return run_simulation(task.config)

        # A pool worker would run the real function in another process;
        # every call landing here means the batch ran inline.
        monkeypatch.setattr(executor, "execute_task", counting)
        tasks = [SimTask(_quick(seed=seed)) for seed in (7, 8)]
        assert run_batch(tasks) == [run_simulation(task.config)
                                    for task in tasks]
        assert executed == tasks
        assert not any(tmp_path.iterdir())  # nothing cached

    def test_batch_uses_the_cache_passed_in(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_batch([SimTask(_quick())], cache=cache)
        run_batch([SimTask(_quick())], cache=cache)
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1

    def test_negative_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            run_batch([SimTask(_quick())], jobs=-1)


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
        first = experiment.run(scale=0.01, cache=cache)
        computed = cache.stats.stores
        assert computed > 0
        assert cache.stats.hits == 0

        second = experiment.run(scale=0.01, cache=cache)
        assert cache.stats.hits == computed  # every point reused
        assert cache.stats.stores == computed  # nothing recomputed
        assert second.rows == first.rows

    def test_sweep_helpers_match_pointwise_calls(self):
        from repro.experiments.common import sweep_simulated_responses
        from repro.experiments.registry import run_drivers
        base = _quick()
        rates = (0.1, 0.2)
        (swept, *pointwise), _report = run_drivers(
            [sweep_simulated_responses([base], rates, scale=0.01)]
            + [sweep_simulated_responses([base], [rate], scale=0.01)
               for rate in rates])
        assert swept == [[grid[0][0] for grid in pointwise]]

    def test_figures_run_executes_each_distinct_task_once(
            self, tmp_path, monkeypatch):
        # fig04 sweeps the same Naive Lock-coupling points as fig03:
        # one seed per rate at this scale, so 7 distinct tasks, not 14.
        from repro.parallel import executor
        from repro.report import generate_figures
        executed = []
        real = executor.execute_task
        monkeypatch.setattr(executor, "execute_task",
                            lambda task: executed.append(task) or real(task))
        generate_figures(["fig03", "fig04"], scale=0.02,
                         out_dir=tmp_path, include_claims=False)
        assert len(executed) == 7
        assert len(set(executed)) == 7

    def test_figures_run_is_one_batch(self, tmp_path, monkeypatch):
        from repro.parallel import executor
        from repro.report import generate_figures
        batches = []
        real = executor._Batch.run
        monkeypatch.setattr(executor._Batch, "run",
                            lambda batch: batches.append(batch) or real(batch))
        generate_figures(["fig03", "fig09", "ext05"], scale=0.01,
                         out_dir=tmp_path, include_claims=False)
        assert len(batches) == 1

    def test_driver_yielding_twice_is_refused(self):
        from repro.experiments.registry import run_drivers

        def greedy():
            yield [SimTask(_quick())]
            yield [SimTask(_quick(seed=8))]

        with pytest.raises(ConfigurationError, match="second time"):
            run_drivers([greedy()])

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

    def test_cli_refuses_a_file_as_cache_dir(self, tmp_path, monkeypatch,
                                             capsys):
        from repro.experiments.runner import main as cli_main
        blocker = tmp_path / "cache"
        blocker.write_text("not a directory")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker))
        assert cli_main(["figures", "fig11", "--scale", "0.01",
                         "--formats", "svg", "--out",
                         str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: result cache directory")
        assert "Traceback" not in err
        assert err.count("\n") == 1

    def test_cli_progress_ends_with_cache_stats(self, tmp_path, monkeypatch,
                                                capsys):
        from repro.experiments.runner import main as cli_main
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        argv = ["figures", "ext05", "--scale", "0.01", "--formats", "svg",
                "--no-claims", "--out", str(tmp_path / "out")]
        assert cli_main(argv + ["--progress"]) == 0
        cold = capsys.readouterr().err.splitlines()[-1]
        match = re.fullmatch(r"figures cache: 0 hits, (\d+) misses, "
                             r"(\d+) stores, 0 errors", cold)
        assert match and match[1] == match[2] != "0", cold
        assert cli_main(argv + ["--progress"]) == 0
        warm = capsys.readouterr().err.splitlines()[-1]
        assert warm == (f"figures cache: {match[1]} hits, 0 misses, "
                        f"0 stores, 0 errors")
        # Without --progress the run prints nothing of the cache.
        assert cli_main(argv) == 0
        assert "figures cache" not in capsys.readouterr().err


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
