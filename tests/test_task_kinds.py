"""Tests for the cluster, shape and telemetry task kinds: keys,
execution, cache type checks, progress lines, and a warm figures run
that simulates nothing."""

from __future__ import annotations

import importlib
import io
import re
import sys

import pytest

from repro.cluster import (
    ClusterResult,
    ClusterSimConfig,
    ClusterSpec,
    run_cluster_simulation,
)
from repro.errors import ConfigurationError
from repro.model.params import TreeShape
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
                task_key(SimTask(_cluster(), kind="cluster"))}
        assert len(keys) == 4
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

        first, second = run_drivers([driver(), driver()])
        assert len(executed) == 1
        assert first == second == run_cluster_simulation(_cluster())


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
    ], ids=["cluster-under-open", "open-under-cluster", "open-under-shape",
            "open-under-telemetry", "telemetry-under-open"])
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
)


@pytest.fixture
def work_calls(monkeypatch):
    """Counts calls of each simulation-work function, wherever a
    ``repro`` module holds it by name."""
    calls = {name: 0 for _module, name in _SIMULATION_WORK}

    def counting(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
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
        generate_figures(scale=0.01, out_dir=tmp_path / "cold",
                         cache=cache)
        assert all(count > 0 for count in work_calls.values()), work_calls

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
