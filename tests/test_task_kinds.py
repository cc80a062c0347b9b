"""Tests for the cluster, shape, telemetry and search task kinds: keys,
execution, cache type checks, progress lines, and a warm figures run
that simulates and searches nothing."""

from __future__ import annotations

import importlib
import io
import math
import re
import sys

import pytest

from repro.cluster import (
    ClusterResult,
    ClusterSimConfig,
    ClusterSpec,
    run_cluster_simulation,
)
from repro.errors import ConfigurationError, ConvergenceError
from repro.model import (
    NAIVE_RECOVERY,
    analyze_lock_coupling,
    analyze_optimistic_with_recovery,
    arrival_rate_for_root_utilization,
    max_throughput,
    paper_default_config,
)
from repro.model.params import TreeShape
from repro.model.throughput import CapacitySearch
from repro.model.validation import measured_model_config, measured_shape
from repro.obs import (
    ProgressPrinter,
    RunTelemetry,
    TelemetryOptions,
    dumps_ndjson,
)
from repro.parallel import (
    ResultCache,
    SimTask,
    execute_task,
    run_batch,
    run_batch_report,
    task_key,
)
from repro.simulator.config import SimulationConfig


def _quick(**overrides) -> SimulationConfig:
    defaults = dict(algorithm="naive-lock-coupling", arrival_rate=0.15,
                    n_items=2_000, n_operations=150, warmup_operations=20,
                    seed=7)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def _cluster(**overrides) -> ClusterSimConfig:
    defaults = dict(spec=ClusterSpec(shards=2, replicas=2),
                    arrival_rate=0.3,
                    service_means={"search": 2.0, "insert": 3.0,
                                   "delete": 3.0},
                    mix={"search": 0.3, "insert": 0.5, "delete": 0.2},
                    horizon=200.0, seed=3)
    defaults.update(overrides)
    return ClusterSimConfig(**defaults)


def _telemetry(**options) -> SimTask:
    return SimTask(_quick(), kind="telemetry",
                   telemetry=TelemetryOptions(**options))


def _search(**fields) -> SimTask:
    return SimTask(CapacitySearch.of(
        analyze_lock_coupling, paper_default_config(), **fields),
        kind="search")


def _never_saturates(config, rate):
    """An analyzer that is stable, with no writer load, at any rate."""
    return analyze_lock_coupling(config, 1e-6)


# ----------------------------------------------------------------------
# Task construction, keys and execution
# ----------------------------------------------------------------------
class TestKinds:

    def test_cluster_task_runs_the_cluster_simulator(self):
        result = execute_task(SimTask(_cluster(), kind="cluster"))
        assert result == run_cluster_simulation(_cluster())

    def test_shape_task_measures_the_runs_tree(self):
        shape = execute_task(SimTask(_quick(), kind="shape"))
        assert isinstance(shape, TreeShape)
        assert shape == measured_shape(_quick())
        assert measured_model_config(_quick()).shape == shape

    @pytest.mark.parametrize("kind", ["open", "closed", "shape"])
    def test_simulation_kinds_refuse_a_cluster_config(self, kind):
        with pytest.raises(ConfigurationError, match="cannot run"):
            SimTask(_cluster(), kind=kind, mpl=2)

    @pytest.mark.parametrize("kind", ["open", "closed", "shape",
                                      "telemetry"])
    def test_simulation_kinds_refuse_a_search(self, kind):
        telemetry = TelemetryOptions() if kind == "telemetry" else None
        with pytest.raises(ConfigurationError, match="cannot run"):
            SimTask(_search().config, kind=kind, mpl=2,
                    telemetry=telemetry)

    @pytest.mark.parametrize("config", [_quick(), _cluster()],
                             ids=["simulation", "cluster"])
    def test_search_kind_refuses_other_configs(self, config):
        with pytest.raises(ConfigurationError, match="cannot run"):
            SimTask(config, kind="search")

    def test_cluster_kind_refuses_a_simulation_config(self):
        with pytest.raises(ConfigurationError, match="cannot run"):
            SimTask(_quick(), kind="cluster")

    def test_unknown_kind_is_refused(self):
        with pytest.raises(ConfigurationError, match="unknown task kind"):
            SimTask(_quick(), kind="mystery")

    def test_kinds_key_apart(self):
        keys = {task_key(SimTask(_quick())),
                task_key(SimTask(_quick(), kind="shape")),
                task_key(SimTask(_quick(), kind="closed", mpl=2)),
                task_key(SimTask(_cluster(), kind="cluster")),
                task_key(_search())}
        assert len(keys) == 5
        assert task_key(SimTask(_cluster(), kind="cluster")) == \
            task_key(SimTask(_cluster(), kind="cluster"))
        assert task_key(SimTask(_cluster(), kind="cluster")) != \
            task_key(SimTask(_cluster(seed=4), kind="cluster"))

    def test_telemetry_tasks_key_by_kind_and_options(self):
        key = task_key(_telemetry())
        assert key == task_key(_telemetry())
        assert key != task_key(SimTask(_quick()))
        assert key != task_key(_telemetry(sample_interval=2.0))
        assert key != task_key(_telemetry(ring_capacity=8))

    def test_telemetry_task_returns_the_runs_telemetry(self):
        telemetry = execute_task(_telemetry())
        assert isinstance(telemetry, RunTelemetry)
        assert telemetry.result == execute_task(SimTask(_quick()))

    def test_telemetry_kind_needs_options(self):
        with pytest.raises(ConfigurationError, match="telemetry options"):
            SimTask(_quick(), kind="telemetry")

    @pytest.mark.parametrize("kind", ["open", "closed", "shape", "cluster"])
    def test_other_kinds_refuse_telemetry_options(self, kind):
        config = _cluster() if kind == "cluster" else _quick()
        with pytest.raises(ConfigurationError, match="telemetry options"):
            SimTask(config, kind=kind, mpl=2, telemetry=TelemetryOptions())

    def test_second_telemetry_batch_on_one_cache_is_a_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        [first] = run_batch([_telemetry()], cache=cache)
        assert first.result.measured_operations > 0
        assert cache.stats.stores == 1
        [second] = run_batch([_telemetry()], cache=cache)
        assert (cache.stats.hits, cache.stats.stores) == (1, 1)
        assert dumps_ndjson(second) == dumps_ndjson(first)

    def test_equal_cluster_tasks_run_once_in_a_figures_batch(
            self, monkeypatch):
        from repro.experiments.registry import run_drivers
        from repro.parallel import executor
        executed = []
        real = executor.execute_task
        monkeypatch.setattr(executor, "execute_task",
                            lambda task: executed.append(task) or real(task))

        def driver():
            (result,) = yield [SimTask(_cluster(), kind="cluster")]
            return result

        (first, second), _report = run_drivers([driver(), driver()])
        assert len(executed) == 1
        assert first == second == run_cluster_simulation(_cluster())


# ----------------------------------------------------------------------
# A search task gives the float the direct call gives
# ----------------------------------------------------------------------
_VARIANTS = {
    "theorem2": (
        CapacitySearch.of(analyze_lock_coupling, paper_default_config()),
        lambda: max_throughput(analyze_lock_coupling,
                               paper_default_config())),
    "rho-target": (
        CapacitySearch.of(analyze_lock_coupling, paper_default_config(),
                          target=0.5),
        lambda: arrival_rate_for_root_utilization(
            analyze_lock_coupling, paper_default_config(), target=0.5)),
    "analyzer-kwargs": (
        CapacitySearch.of(analyze_optimistic_with_recovery,
                          paper_default_config(disk_cost=10.0),
                          policy=NAIVE_RECOVERY, t_trans=100.0),
        lambda: max_throughput(analyze_optimistic_with_recovery,
                               paper_default_config(disk_cost=10.0),
                               policy=NAIVE_RECOVERY, t_trans=100.0)),
}


class TestSearchTasks:

    @pytest.mark.parametrize("variant", sorted(_VARIANTS))
    def test_task_gives_the_direct_calls_float(self, tmp_path, variant):
        search, direct = _VARIANTS[variant]
        expected = direct().hex()
        task = SimTask(search, kind="search")
        assert execute_task(task).hex() == expected
        [cold] = run_batch([task], cache=ResultCache(tmp_path))
        warm = ResultCache(tmp_path)
        [served] = run_batch([task], cache=warm)
        assert warm.stats.hits == 1
        assert cold.hex() == served.hex() == expected

    @pytest.mark.parametrize("target", [None, 0.5], ids=["theorem2",
                                                          "rho-target"])
    def test_unbounded_search_gives_inf(self, tmp_path, target):
        search = CapacitySearch.of(_never_saturates, paper_default_config(),
                                   target=target)
        with pytest.raises(ConvergenceError) as excinfo:
            if target is None:
                max_throughput(_never_saturates, paper_default_config())
            else:
                arrival_rate_for_root_utilization(
                    _never_saturates, paper_default_config(), target=target)
        assert "bracket_limit" in excinfo.value.context
        task = SimTask(search, kind="search")
        [cold] = run_batch([task], cache=ResultCache(tmp_path))
        warm = ResultCache(tmp_path)
        assert run_batch([task], cache=warm) == [math.inf] == [cold]
        assert warm.stats.hits == 1

    def test_search_of_a_simulation_config_uses_its_measured_tree(self):
        """ext04 asks for the capacity of the tree its closed runs start
        from by naming their configuration."""
        search = CapacitySearch.of(analyze_lock_coupling, _quick())
        assert search.run().hex() == max_throughput(
            analyze_lock_coupling, measured_model_config(_quick())).hex()

    def test_search_pickles_to_an_equal_task(self):
        import pickle
        task = _VARIANTS["analyzer-kwargs"][0]
        assert pickle.loads(pickle.dumps(task)) == task


# ----------------------------------------------------------------------
# The cache serves an entry only to a task of its kind
# ----------------------------------------------------------------------
class TestCacheTypeByKind:

    @pytest.mark.parametrize("planted_task,task", [
        (SimTask(_cluster(), kind="cluster"), SimTask(_quick())),
        (SimTask(_quick()), SimTask(_cluster(), kind="cluster")),
        (SimTask(_quick()), SimTask(_quick(), kind="shape")),
        (SimTask(_quick()), _telemetry()),
        (_telemetry(), SimTask(_quick())),
        (SimTask(_quick(), kind="shape"), _search()),
        (_search(), SimTask(_quick())),
    ], ids=["cluster-under-open", "open-under-cluster", "open-under-shape",
            "open-under-telemetry", "telemetry-under-open",
            "shape-under-search", "search-under-open"])
    def test_wrong_type_entry_is_a_corruption(self, tmp_path,
                                              planted_task, task):
        planted = execute_task(planted_task)
        cache = ResultCache(tmp_path)
        key = task_key(task, salt=cache.salt)
        cache.put(key, planted)

        report = run_batch_report([task], cache=cache)
        [served] = report.results
        assert type(served) is not type(planted)
        assert served == execute_task(task)
        assert report.cache_corruptions == 1
        assert cache.stats.errors == 1 and cache.stats.hits == 0
        # The recomputed entry replaced the planted one.
        fresh = ResultCache(tmp_path)
        assert run_batch([task], cache=fresh) == [served]
        assert fresh.stats.hits == 1 and fresh.stats.errors == 0

    @pytest.mark.parametrize("planted", [1, "0.5", None, [0.5]],
                             ids=["int", "str", "none", "list"])
    def test_non_float_under_a_search_key_is_recomputed(self, tmp_path,
                                                        planted):
        task = _search()
        ResultCache(tmp_path).put(task_key(task), planted)
        cache = ResultCache(tmp_path)
        report = run_batch_report([task], cache=cache)
        [served] = report.results
        assert served.hex() == max_throughput(
            analyze_lock_coupling, paper_default_config()).hex()
        assert report.cache_corruptions == 1
        assert cache.stats.hits == 0 and cache.stats.stores == 1

    def test_get_checks_the_expected_type(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = execute_task(SimTask(_cluster(), kind="cluster"))
        cache.put("ab" * 32, result)
        assert cache.get("ab" * 32, expect=ClusterResult) == result
        assert cache.get("ab" * 32) is None  # SimulationResult expected
        assert cache.stats.errors == 1


# ----------------------------------------------------------------------
# Progress lines
# ----------------------------------------------------------------------
class TestProgressLines:

    def test_cluster_and_shape_results_print(self):
        stream = io.StringIO()
        printer = ProgressPrinter(total=2, stream=stream)
        printer(execute_task(SimTask(_cluster(), kind="cluster")))
        printer(execute_task(SimTask(_quick(), kind="shape")))
        cluster_line, shape_line = stream.getvalue().splitlines()
        assert re.match(r"\[1/2\] cluster resilient rate=0\.3 seed=3 -> "
                        r"availability=\S+ goodput=\S+$", cluster_line)
        assert re.match(r"\[2/2\] tree shape -> height=\d+ fanouts=\[",
                        shape_line)

    def test_search_result_prints_its_rate(self):
        stream = io.StringIO()
        ProgressPrinter(total=1, stream=stream)(0.5)
        assert stream.getvalue() == "[1/1] capacity search -> rate=0.5\n"

    def test_telemetry_prints_as_its_run(self):
        telemetry = execute_task(_telemetry())
        lines = []
        for item in (telemetry, telemetry.result):
            stream = io.StringIO()
            ProgressPrinter(total=1, stream=stream)(item)
            lines.append(stream.getvalue())
        assert lines[0] == lines[1]
        assert lines[0].startswith("[1/1] Naive Lock-coupling rate=0.15 "
                                   "seed=7 -> ")

    def test_figures_ext08_progress_prints_24_cluster_lines(
            self, tmp_path, capsys):
        from repro.experiments.runner import main as cli_main
        assert cli_main(["figures", "ext08", "--scale", "0.05",
                         "--progress", "--no-cache", "--no-claims",
                         "--out", str(tmp_path)]) == 0
        lines = capsys.readouterr().err.splitlines()
        cluster = [line for line in lines
                   if re.match(r"\[\d+\] cluster (fragile|resilient) ",
                               line)]
        assert len(cluster) == 24


# ----------------------------------------------------------------------
# A warm figures run does no simulation work
# ----------------------------------------------------------------------
_SIMULATION_WORK = (
    ("repro.simulator.driver", "run_simulation"),
    ("repro.simulator.closed", "run_closed_simulation"),
    ("repro.cluster.sim", "run_cluster_simulation"),
    ("repro.btree.builder", "build_tree"),
    ("repro.model.throughput", "max_throughput"),
    ("repro.model.throughput", "arrival_rate_for_root_utilization"),
)
_SEARCHES = {"max_throughput", "arrival_rate_for_root_utilization"}


class _WorkCalls(dict):
    """Call counts by function name; ``searches`` holds the arguments
    of every search run."""

    def __init__(self, names):
        super().__init__((name, 0) for name in names)
        self.searches = []


@pytest.fixture
def work_calls(monkeypatch):
    """Counts calls of each simulation or search function, wherever a
    ``repro`` module holds it by name."""
    calls = _WorkCalls(name for _module, name in _SIMULATION_WORK)

    def counting(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            if name in _SEARCHES:
                calls.searches.append(
                    (name, args, repr(sorted(kwargs.items()))))
            return original(*args, **kwargs)
        return counted

    for module_name, name in _SIMULATION_WORK:
        original = getattr(importlib.import_module(module_name), name)
        counted = counting(name, original)
        for loaded_name, module in list(sys.modules.items()):
            if (loaded_name == "repro" or loaded_name.startswith("repro.")) \
                    and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


class TestWarmRunSimulatesNothing:

    def test_second_run_on_one_cache_is_pure_reads(self, tmp_path,
                                                   work_calls):
        from repro.report import FIGURES, generate_figures
        cache = ResultCache(tmp_path / "cache")
        cold = generate_figures(scale=0.01, out_dir=tmp_path / "cold",
                                cache=cache)
        assert all(count > 0 for count in work_calls.values()), work_calls
        # The figures and claims make 91 distinct searches; the batch
        # runs each of them once.
        searches = work_calls.searches
        assert len(searches) == len(set(searches)) == 91
        # Every figure but the three whose drivers take ``simulate``
        # makes the columns of every comparison it declares.
        for figure in cold.report.figures:
            if figure.figure_id not in ("fig12", "fig15", "ext01"):
                for comparison in figure.comparisons:
                    assert comparison.points, (figure.figure_id,
                                               comparison.quantity)

        for name in work_calls:
            work_calls[name] = 0
        warm = ResultCache(tmp_path / "cache")
        generate_figures(scale=0.01, out_dir=tmp_path / "warm", cache=warm)
        assert work_calls == {name: 0 for name in work_calls}
        assert warm.stats.misses == 0 and warm.stats.stores == 0
        assert warm.stats.hits == cache.stats.stores
        names = sorted(path.name for path in (tmp_path / "cold").iterdir())
        assert len(names) == 2 * len(FIGURES) + 3
        for name in names:
            assert (tmp_path / "warm" / name).read_bytes() == \
                (tmp_path / "cold" / name).read_bytes(), name

    def test_ext04_grows_its_tree_once(self, monkeypatch, work_calls):
        from repro.btree import builder
        from repro.report import get_figure
        monkeypatch.setattr(builder, "_last", None)  # an empty memo
        get_figure("ext04").run(scale=0.01)
        assert work_calls["build_tree"] == 1
        assert work_calls["run_closed_simulation"] == 21
        # Its capacity search runs once, on the tree the runs borrowed.
        assert work_calls["max_throughput"] == 1
