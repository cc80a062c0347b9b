"""Run telemetry: what one instrumented simulation run knows about itself.

A :class:`TelemetryRecorder` is handed to
:func:`~repro.simulator.driver.run_simulation`; the driver wires it into
every node lock (per-level live state) and the process table (the
periodic sampler), and calls :meth:`~TelemetryRecorder.finalize` on the
way out, which also publishes the engine's own event and spawn counts.
The frozen product is a :class:`RunTelemetry`: the run's
:class:`SimulationResult`, its counter snapshot, and the per-level /
global time series.

:func:`merge_telemetry` folds the per-seed runs of one sweep point into
a :class:`SweepTelemetry` — counters summed, series kept per seed — so
a batched sweep emits **one** telemetry artifact per point whether the
seeds ran serially or on :mod:`repro.parallel` workers (the merge is
order-independent, and the tests pin parallel == serial).

Telemetry deliberately records only *simulated* quantities (times,
counts), never wall-clock ones, so the whole structure is deterministic
for a fixed configuration and seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.obs.instruments import Instrumentation, merge_counter_snapshots
from repro.obs.sampler import TelemetrySampler
from repro.simulator.config import SimulationConfig
from repro.simulator.metrics import SimulationResult

#: Version stamp written into every exported telemetry artifact; bump on
#: any incompatible change to the record layout (see
#: ``docs/observability.md``).
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TelemetryOptions:
    """Knobs of the telemetry layer (picklable; rides on SimTask)."""

    #: Simulated time between samples (same unit as everything else:
    #: one root search).  Doubles whenever the ring decimates.
    sample_interval: float = 1.0
    #: Maximum retained samples per run (bounded memory).
    ring_capacity: int = 4096

    def __post_init__(self) -> None:
        # The sampler yields this as a hold, and the kernel holds only
        # for floats: an int from a library caller must not reach it.
        object.__setattr__(self, "sample_interval",
                           float(self.sample_interval))
        if self.sample_interval <= 0:
            raise ConfigurationError(
                f"sample_interval must be positive, "
                f"got {self.sample_interval}")
        if self.ring_capacity < 4:
            raise ConfigurationError(
                f"ring_capacity must be >= 4, got {self.ring_capacity}")


@dataclass
class GlobalSeries:
    """Whole-simulator time series."""

    t: List[float] = field(default_factory=list)
    in_flight: List[int] = field(default_factory=list)
    events: List[int] = field(default_factory=list)


@dataclass
class LevelSeries:
    """Per-tree-level time series plus level totals.

    ``util_read`` / ``util_write`` are the sampled lock utilizations:
    locks held in that mode divided by the level's node count at the
    sample instant.  W locks are exclusive so ``util_write <= 1``;
    R locks are shared, so ``util_read`` is the mean concurrent readers
    per node and can exceed 1 at hot nodes.  At the root (one node)
    ``util_write`` is exactly the writer-presence signal behind the
    paper's Figure 10 knee.
    """

    level: int
    nodes: int = 0
    grants_read: int = 0
    grants_write: int = 0
    t: List[float] = field(default_factory=list)
    held_read: List[int] = field(default_factory=list)
    held_write: List[int] = field(default_factory=list)
    queued: List[int] = field(default_factory=list)
    util_read: List[float] = field(default_factory=list)
    util_write: List[float] = field(default_factory=list)


@dataclass
class RunTelemetry:
    """Everything recorded about one instrumented run."""

    schema: int
    algorithm: str
    arrival_rate: float
    seed: int
    sample_interval: float
    #: Effective interval after ring decimations (>= sample_interval).
    final_interval: float
    result: SimulationResult
    counters: Dict[str, float]
    global_series: GlobalSeries
    levels: List[LevelSeries]


@dataclass
class SweepTelemetry:
    """One sweep point: the merged telemetry of its per-seed runs."""

    schema: int
    algorithm: str
    arrival_rate: float
    seeds: List[int]
    #: Counter snapshots summed over every run.
    counters: Dict[str, float]
    #: The per-seed runs, in seed order.
    runs: List[RunTelemetry]

    @property
    def results(self) -> List[SimulationResult]:
        return [run.result for run in self.runs]


class TelemetryRecorder:
    """Mutable collection state the driver threads through one run.

    Usage::

        recorder = TelemetryRecorder(TelemetryOptions())
        result = run_simulation(config, telemetry=recorder)
        telemetry = recorder.telemetry      # RunTelemetry
    """

    def __init__(self, options: Optional[TelemetryOptions] = None) -> None:
        self.options = options if options is not None else TelemetryOptions()
        self.instruments = Instrumentation()
        self.sampler = TelemetrySampler(self.options.sample_interval,
                                        self.options.ring_capacity)
        self.telemetry: Optional[RunTelemetry] = None

    def count_node(self, level: int) -> None:
        """Count one tree node allocated at ``level``."""
        self.sampler.count_node(level)

    def watch(self, lock, level: int) -> None:
        """Attach one node lock to its level's live aggregate state."""
        self.sampler.watch(lock, level)

    def sampler_process(self, sim, in_flight: Callable[[], int]):
        """The periodic sampling process to spawn into ``sim``."""
        return self.sampler.process(sim, in_flight)

    def finalize(self, result: SimulationResult, sim) -> RunTelemetry:
        """Freeze the collected state into a :class:`RunTelemetry`,
        publishing ``sim``'s event and spawn counts as the ``des.events``
        and ``des.spawned`` counters."""
        self.instruments.counter("des.events").inc(sim.events_executed)
        self.instruments.counter("des.spawned").inc(sim.total_spawned)
        self.telemetry = RunTelemetry(
            schema=SCHEMA_VERSION,
            algorithm=result.algorithm,
            arrival_rate=result.arrival_rate,
            seed=result.seed,
            sample_interval=self.sampler.base_interval,
            final_interval=self.sampler.interval,
            result=result,
            counters=self.instruments.snapshot(),
            global_series=self._global_series(),
            levels=self._level_series(),
        )
        return self.telemetry

    # ------------------------------------------------------------------
    # Series assembly
    # ------------------------------------------------------------------
    def _global_series(self) -> GlobalSeries:
        series = GlobalSeries()
        for now, in_flight, events, _levels in self.sampler.ring:
            series.t.append(now)
            series.in_flight.append(in_flight)
            series.events.append(events)
        return series

    def _level_series(self) -> List[LevelSeries]:
        out: List[LevelSeries] = []
        for level in sorted(self.sampler.levels):
            state = self.sampler.levels[level]
            series = LevelSeries(
                level=level, nodes=state.nodes,
                grants_read=state.grants_read,
                grants_write=state.grants_write,
            )
            for now, _in_flight, _events, snapshot in self.sampler.ring:
                entry = _find_level(snapshot, level)
                if entry is None:
                    # The level did not exist yet (root split later).
                    held_r = held_w = queued = 0
                    nodes = 0
                else:
                    _lvl, held_r, held_w, queued, nodes = entry
                series.t.append(now)
                series.held_read.append(held_r)
                series.held_write.append(held_w)
                series.queued.append(queued)
                series.util_read.append(held_r / nodes if nodes else 0.0)
                series.util_write.append(held_w / nodes if nodes else 0.0)
            out.append(series)
        return out


def _find_level(snapshot: Tuple, level: int) -> Optional[Tuple]:
    for entry in snapshot:
        if entry[0] == level:
            return entry
    return None


def merge_telemetry(runs: Sequence[RunTelemetry]) -> SweepTelemetry:
    """Merge the per-seed runs of one sweep point (order-independent)."""
    if not runs:
        raise ConfigurationError("no telemetry runs to merge")
    ordered = sorted(runs, key=lambda run: run.seed)
    first = ordered[0]
    for run in ordered[1:]:
        if run.algorithm != first.algorithm or run.schema != first.schema:
            raise ConfigurationError(
                "cannot merge telemetry from different algorithms or "
                f"schema versions: {first.algorithm}/{first.schema} vs "
                f"{run.algorithm}/{run.schema}")
    return SweepTelemetry(
        schema=first.schema,
        algorithm=first.algorithm,
        arrival_rate=first.arrival_rate,
        seeds=[run.seed for run in ordered],
        counters=merge_counter_snapshots(run.counters for run in ordered),
        runs=list(ordered),
    )


def collect_replications(config: SimulationConfig, n_seeds: int = 5,
                         options: Optional[TelemetryOptions] = None,
                         jobs: Optional[int] = None,
                         progress: Optional[Callable[[SimulationResult], None]]
                         = None,
                         ) -> Tuple[List[SimulationResult], SweepTelemetry]:
    """Run one sweep point under telemetry and merge the artifacts.

    Fans the seeds out exactly like
    :func:`~repro.simulator.driver.run_replications` (``jobs`` defaults
    to the ambient execution context) and returns ``(results, merged)``
    where ``merged`` is the point's :class:`SweepTelemetry`.  Telemetry
    runs bypass the result cache: the time series are the artifact, and
    a memoized result has none.
    """
    from repro.parallel import run_batch
    from repro.parallel.executor import SimTask

    options = options if options is not None else TelemetryOptions()
    tasks = [SimTask(config.with_seed(config.seed + offset),
                     telemetry=options)
             for offset in range(n_seeds)]
    captured: Dict[int, RunTelemetry] = {}

    def sink(index: int, telemetry: RunTelemetry) -> None:
        captured[index] = telemetry

    results = run_batch(tasks, jobs=jobs, progress=progress,
                        telemetry_sink=sink)
    # Under a resilient execution context a seed can be quarantined and
    # deliver no telemetry; merge whatever arrived (merge_telemetry
    # still refuses an entirely empty point).
    runs = [captured[index] for index in range(len(tasks))
            if index in captured]
    return results, merge_telemetry(runs)
