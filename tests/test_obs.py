"""Tests for the run-telemetry layer (repro.obs)."""

from __future__ import annotations

import tracemalloc

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    NULL_COUNTER,
    NULL_INSTRUMENTS,
    NULL_TIMER,
    Instrumentation,
    NullInstrumentation,
    ProgressPrinter,
    RunTelemetry,
    SweepTelemetry,
    TelemetryOptions,
    TelemetryRecorder,
    collect_replications,
    dumps_ndjson,
    load_ndjson,
    loads_ndjson,
    merge_counter_snapshots,
    merge_telemetry,
    write_ndjson,
)
from repro.obs.sampler import DecimatingRing, TelemetrySampler
from repro.parallel import ResultCache, SimTask, run_batch
from repro.simulator.config import SimulationConfig
from repro.simulator.driver import run_simulation
from repro.simulator.metrics import _reservoir_seed


def _quick(**overrides) -> SimulationConfig:
    defaults = dict(algorithm="link-type", arrival_rate=0.15,
                    n_items=2_000, n_operations=150, warmup_operations=20,
                    seed=7)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def _record(config=None, **options) -> RunTelemetry:
    recorder = TelemetryRecorder(TelemetryOptions(**options))
    run_simulation(config if config is not None else _quick(),
                   telemetry=recorder)
    return recorder.telemetry


# ----------------------------------------------------------------------
# Instruments: free when disabled
# ----------------------------------------------------------------------
class TestInstruments:

    def test_null_lookups_share_singletons(self):
        null = NullInstrumentation()
        assert null.counter("a") is NULL_COUNTER
        assert null.counter("b") is NULL_COUNTER
        assert null.timer("a") is NULL_TIMER
        assert NULL_INSTRUMENTS.counter("x") is NULL_COUNTER
        assert not null.enabled and Instrumentation.enabled

    def test_null_instruments_allocate_nothing(self):
        counter = NULL_INSTRUMENTS.counter("hot")
        timer = NULL_INSTRUMENTS.timer("hot")
        counter.inc()            # warm up any lazy interpreter state
        timer.observe(1.0)
        tracemalloc.start()
        try:
            for _i in range(10_000):     # control: the loop's own ints
                pass
            before, _ = tracemalloc.get_traced_memory()
            for _i in range(10_000):
                counter.inc()
                timer.observe(0.5)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before == 0
        assert counter.value == 0 and timer.count == 0

    def test_counter_and_timer_accumulate(self):
        instruments = Instrumentation()
        counter = instruments.counter("events")
        assert instruments.counter("events") is counter
        counter.inc()
        counter.inc(3)
        timer = instruments.timer("response")
        timer.observe(2.0)
        timer.observe(4.0)
        assert counter.value == 4
        assert timer.count == 2 and timer.total == 6.0
        assert timer.min == 2.0 and timer.max == 4.0 and timer.mean == 3.0
        assert instruments.snapshot() == {
            "events": 4, "response.count": 2, "response.total": 6.0}

    def test_snapshot_merge_sums(self):
        merged = merge_counter_snapshots([
            {"a": 1, "b": 2.5}, {"b": 0.5, "c": 3}])
        assert merged == {"a": 1, "b": 3.0, "c": 3}
        assert list(merged) == sorted(merged)


# ----------------------------------------------------------------------
# Sampler: bounded memory, monotone time
# ----------------------------------------------------------------------
class TestSampler:

    def test_ring_rejects_tiny_capacity(self):
        with pytest.raises(ConfigurationError):
            DecimatingRing(3)

    def test_ring_decimates_and_keeps_order(self):
        ring = DecimatingRing(8)
        decimations = 0
        for i in range(50):
            if ring.append((float(i), 0, 0, ())):
                decimations += 1
        assert decimations > 0
        assert len(ring) < 8
        times = [sample[0] for sample in ring]
        assert times == sorted(times)
        assert len(set(times)) == len(times)  # strictly increasing
        assert times[0] == 0.0                # start of run retained

    def test_sampler_doubles_interval_on_decimation(self):
        sampler = TelemetrySampler(2.0, capacity=4)
        for i in range(40):
            sampler.sample(float(i), in_flight=0, events=i)
        assert sampler.interval > sampler.base_interval
        assert sampler.interval == sampler.base_interval * 2 ** (
            sampler.ring.stride.bit_length() - 1)

    def test_run_timestamps_strictly_monotone(self):
        telemetry = _record(ring_capacity=64)
        times = telemetry.global_series.t
        assert len(times) >= 4
        assert all(a < b for a, b in zip(times, times[1:]))
        for level in telemetry.levels:
            assert level.t == times

    def test_options_validation(self):
        with pytest.raises(ConfigurationError):
            TelemetryOptions(sample_interval=0.0)
        with pytest.raises(ConfigurationError):
            TelemetryOptions(ring_capacity=2)


# ----------------------------------------------------------------------
# A recorded run: per-level series, counters, determinism
# ----------------------------------------------------------------------
class TestRecordedRun:

    def test_levels_cover_tree_and_utilization_bounded(self):
        telemetry = _record()
        assert telemetry.schema == 1
        levels = [series.level for series in telemetry.levels]
        assert levels == sorted(levels)
        assert levels[0] == 1  # leaves
        assert telemetry.result.final_height == len(levels)
        for series in telemetry.levels:
            assert series.nodes > 0
            # R locks are shared: util_read is mean readers per node and
            # may exceed 1.  W locks are exclusive, so util_write <= 1.
            assert all(u >= 0.0 for u in series.util_read)
            assert all(0.0 <= u <= 1.0 for u in series.util_write)
        # The root level is one node, so its utilization is 0/1-valued.
        root = telemetry.levels[-1]
        assert root.nodes == 1
        assert set(root.util_write) <= {0.0, 1.0}

    def test_engine_counters_present_and_deterministic(self):
        first = _record()
        second = _record()
        assert first.counters == second.counters
        assert first.counters["des.events"] > 0
        assert first.counters["des.spawned"] > 0
        assert first.counters["sim.response.count"] == \
            first.result.measured_operations

    def test_telemetry_does_not_change_the_result(self):
        config = _quick()
        plain = run_simulation(config)
        telemetry = _record(config)
        assert telemetry.result.throughput == plain.throughput
        assert telemetry.result.mean_response == plain.mean_response

    def test_int_sample_interval_runs_as_a_float_hold(self):
        # The sampler yields the interval as a hold, and the kernel
        # holds only for floats, so an int must be stored as a float.
        assert TelemetryOptions(sample_interval=2).sample_interval \
            .__class__ is float
        as_int = _record(sample_interval=2)
        as_float = _record(sample_interval=2.0)
        assert as_int.global_series.t
        assert dumps_ndjson(as_int) == dumps_ndjson(as_float)

    def test_reservoir_seeds_differ_by_run_seed(self):
        streams = [_reservoir_seed(seed, index)
                   for seed in (0, 1, 2) for index in (0, 1, 2)]
        assert len(set(streams)) == len(streams)


# ----------------------------------------------------------------------
# NDJSON export and the loader
# ----------------------------------------------------------------------
class TestExport:

    def test_run_round_trips_through_loader(self, tmp_path):
        telemetry = _record()
        path = tmp_path / "run.ndjson"
        write_ndjson(path, telemetry)
        loaded = load_ndjson(path)
        assert isinstance(loaded, RunTelemetry)
        # Canonical-string equality is the losslessness criterion (NaN
        # fields break == on the dataclasses, dict order is canonical).
        assert dumps_ndjson(loaded) == dumps_ndjson(telemetry)
        # int keys and (read, write) tuples restored (== breaks on NaN).
        waits = loaded.result.mean_lock_waits
        assert set(waits) == set(telemetry.result.mean_lock_waits)
        assert all(isinstance(level, int) for level in waits)
        assert all(isinstance(pair, tuple) and len(pair) == 2
                   for pair in waits.values())

    def test_sweep_round_trips(self):
        runs = [_record(_quick(seed=seed)) for seed in (7, 8)]
        sweep = merge_telemetry(runs)
        text = dumps_ndjson(sweep)
        loaded = loads_ndjson(text)
        assert isinstance(loaded, SweepTelemetry)
        assert dumps_ndjson(loaded) == text
        assert loaded.seeds == [7, 8]
        assert loaded.counters == merge_counter_snapshots(
            run.counters for run in runs)

    def test_loader_rejects_bad_artifacts(self):
        with pytest.raises(ConfigurationError):
            loads_ndjson("")
        with pytest.raises(ConfigurationError):
            loads_ndjson('{"record":"series"}\n')
        with pytest.raises(ConfigurationError):
            loads_ndjson('{"record":"header","schema":99,"kind":"run",'
                         '"algorithm":"x","arrival_rate":0.1,"seeds":[0]}\n')

    def test_loader_skips_unknown_records(self):
        telemetry = _record()
        lines = dumps_ndjson(telemetry).splitlines()
        lines.insert(2, '{"record":"future-extension","seed":7,"x":1}')
        loaded = loads_ndjson("\n".join(lines) + "\n")
        assert dumps_ndjson(loaded) == dumps_ndjson(telemetry)

    def test_merge_rejects_mixed_algorithms(self):
        first = _record()
        second = _record(_quick(algorithm="naive-lock-coupling"))
        with pytest.raises(ConfigurationError):
            merge_telemetry([first, second])
        with pytest.raises(ConfigurationError):
            merge_telemetry([])


# ----------------------------------------------------------------------
# Batch integration: parallel == serial, cache bypass
# ----------------------------------------------------------------------
class TestBatchIntegration:

    def test_parallel_merge_equals_serial(self):
        config = _quick()
        _, serial = collect_replications(config, n_seeds=3, jobs=1)
        _, fanned = collect_replications(config, n_seeds=3, jobs=2)
        assert dumps_ndjson(fanned) == dumps_ndjson(serial)

    def test_telemetry_tasks_bypass_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = SimTask(_quick(), telemetry=TelemetryOptions())
        seen = {}
        results = run_batch([task], cache=cache,
                            telemetry_sink=lambda i, t: seen.update({i: t}))
        assert results[0].measured_operations > 0
        assert isinstance(seen[0], RunTelemetry)
        assert cache.stats.stores == 0 and cache.stats.hits == 0
        # A second pass recomputes rather than hitting the cache.
        run_batch([task], cache=cache, telemetry_sink=lambda i, t: None)
        assert cache.stats.hits == 0

    def test_telemetry_requires_open_tasks(self):
        with pytest.raises(ConfigurationError):
            SimTask(_quick(), kind="closed", mpl=4,
                    telemetry=TelemetryOptions())

    def test_progress_printer_lines(self, capsys):
        import io
        stream = io.StringIO()
        printer = ProgressPrinter(total=2, stream=stream)
        telemetry = _record()
        printer(telemetry.result)
        printer(telemetry.result)
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("[1/2]")
        # Algorithms print by registry display label, not raw name.
        assert "Link-type" in lines[0] and "seed=7" in lines[0]


# ----------------------------------------------------------------------
# CLI: the simulate subcommand
# ----------------------------------------------------------------------
class TestSimulateCLI:

    def test_simulate_writes_loadable_ndjson(self, tmp_path, capsys):
        from repro.experiments.runner import main
        out = tmp_path / "metrics.ndjson"
        code = main(["simulate", "--algorithm", "link-type",
                     "--rate", "0.15", "--scale", "0.02", "--seeds", "2",
                     "--metrics-out", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert "telemetry written" in captured.out
        assert "seed=0" in captured.out and "seed=1" in captured.out
        loaded = load_ndjson(out)
        assert isinstance(loaded, SweepTelemetry)
        assert len(loaded.runs) == 2
        assert all(run.global_series.t for run in loaded.runs)
