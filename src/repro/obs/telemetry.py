"""Run telemetry: what one instrumented simulation run knows about itself.

A :class:`TelemetryRecorder` is handed to
:func:`~repro.simulator.driver.run_simulation`, and it is the one object
the driver feeds:

* **counters** — a plain ``{name: value}`` dict.  ``count(name, n)``
  adds to a tally; ``observe(name, duration)`` adds one measurement to
  the ``name.count`` / ``name.total`` pair (the mean is derivable, and
  counts and totals sum cleanly across seeds).
* **levels** — one live :class:`LevelState` per tree level, which every
  node lock at the level updates inline (per-level lock state).
* **samples** — a periodic in-simulation process snapshots the levels
  and the in-flight population.  Memory is bounded: when
  ``ring_capacity`` samples are held, every second one is dropped and
  the interval doubles, so any run is covered end to end at a
  self-adjusting resolution with strictly increasing timestamps.

:meth:`~TelemetryRecorder.finalize` publishes the engine's own event and
spawn counts and freezes everything into a :class:`RunTelemetry`: the
run's :class:`SimulationResult`, its counters, and the per-level /
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

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.resilience.policy import ResilienceOptions
from repro.simulator.config import SimulationConfig
from repro.simulator.metrics import SimulationResult

#: Version stamp written into every exported telemetry artifact; bump on
#: any incompatible change to the record layout (see
#: ``docs/observability.md``).
SCHEMA_VERSION = 1

#: The counters every run exports, in export (sorted) order, at their
#: starting values: an int tally, or an observed stream's int ``.count``
#: and float ``.total``.
_COUNTERS: Dict[str, float] = {
    "des.events": 0,
    "des.spawned": 0,
    "sim.response.count": 0,
    "sim.response.total": 0.0,
    "workload.arrivals": 0,
    "workload.interarrival.count": 0,
    "workload.interarrival.total": 0.0,
    "workload.keys": 0,
    "workload.keys_hot": 0,
    "workload.txn_hold.count": 0,
    "workload.txn_hold.total": 0.0,
}

#: One sample: (time, in_flight, events_executed,
#:              ((level, held_read, held_write, queued, nodes), ...)).
Sample = Tuple[float, int, int, Tuple[Tuple[int, int, int, int, int], ...]]


@dataclass(frozen=True)
class TelemetryOptions:
    """Knobs of the telemetry layer (picklable; rides on SimTask)."""

    #: Simulated time between samples (same unit as everything else:
    #: one root search).  Doubles whenever the samples decimate.
    sample_interval: float = 1.0
    #: Maximum retained samples per run (bounded memory).
    ring_capacity: int = 4096

    def __post_init__(self) -> None:
        # The sampler yields this as a hold, and the kernel holds only
        # for floats: an int from a library caller must not reach it.
        object.__setattr__(self, "sample_interval",
                           float(self.sample_interval))
        if not 0 < self.sample_interval < math.inf:  # NaN too
            raise ConfigurationError(
                f"sample_interval must be positive and finite, "
                f"got {self.sample_interval}")
        if self.ring_capacity < 4:
            raise ConfigurationError(
                f"ring_capacity must be >= 4, got {self.ring_capacity}")


class LevelState:
    """Live aggregate lock state of one tree level.

    ``held_read`` / ``held_write`` count node locks currently granted in
    each mode across the level; ``queued`` counts waiting requests;
    ``grants_read`` / ``grants_write`` accumulate totals; ``nodes``
    counts the nodes ever allocated at the level, build-freed ones
    included (nodes are never recycled).  The level's
    :class:`~repro.des.rwlock.RWLock`\\ s keep the lock counts current.
    """

    __slots__ = ("level", "nodes", "held_read", "held_write", "queued",
                 "grants_read", "grants_write")

    def __init__(self, level: int) -> None:
        self.level = level
        self.nodes = 0
        self.held_read = 0
        self.held_write = 0
        self.queued = 0
        self.grants_read = 0
        self.grants_write = 0


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
        self.counters: Dict[str, float] = dict(_COUNTERS)
        self.levels: Dict[int, LevelState] = {}
        self.samples: List[Sample] = []
        #: Current sampling interval; doubles on each decimation.
        self.interval = self.options.sample_interval
        self.telemetry: Optional[RunTelemetry] = None

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the ``name`` tally."""
        self.counters[name] += n

    def observe(self, name: str, duration: float) -> None:
        """Fold one measurement into ``name.count`` / ``name.total``."""
        counters = self.counters
        counters[name + ".count"] += 1
        counters[name + ".total"] += duration

    def _level_state(self, level: int) -> LevelState:
        """The (created-on-demand) live state of ``level``."""
        state = self.levels.get(level)
        if state is None:
            state = self.levels[level] = LevelState(level)
        return state

    def count_node(self, level: int, nodes: int = 1) -> None:
        """Count ``nodes`` tree nodes allocated at ``level``."""
        self._level_state(level).nodes += nodes

    def watch(self, lock, level: int) -> None:
        """Attach one node lock to its level's live aggregate state."""
        lock.telemetry = self._level_state(level)

    def sample(self, now: float, in_flight: int, events: int) -> None:
        """Record one sample; at capacity keep every second sample
        (order, hence timestamp monotonicity, is preserved) and double
        the interval."""
        samples = self.samples
        samples.append((now, in_flight, events, tuple(
            (state.level, state.held_read, state.held_write, state.queued,
             state.nodes)
            for _level, state in sorted(self.levels.items()))))
        if len(samples) >= self.options.ring_capacity:
            del samples[1::2]
            self.interval *= 2.0

    def sampler_process(self, sim, in_flight: Callable[[], int]
                        ) -> Iterator[float]:
        """The periodic sampling process to spawn into ``sim``."""
        while True:
            yield self.interval
            self.sample(sim.now, in_flight(), sim.events_executed)

    def finalize(self, result: SimulationResult, sim) -> RunTelemetry:
        """Freeze the collected state into a :class:`RunTelemetry`,
        publishing ``sim``'s event and spawn counts as the ``des.events``
        and ``des.spawned`` counters."""
        self.count("des.events", sim.events_executed)
        self.count("des.spawned", sim.total_spawned)
        self.telemetry = RunTelemetry(
            schema=SCHEMA_VERSION,
            algorithm=result.algorithm,
            arrival_rate=result.arrival_rate,
            seed=result.seed,
            sample_interval=self.options.sample_interval,
            final_interval=self.interval,
            result=result,
            counters=dict(self.counters),
            global_series=self._global_series(),
            levels=self._level_series(),
        )
        return self.telemetry

    # ------------------------------------------------------------------
    # Series assembly
    # ------------------------------------------------------------------
    def _global_series(self) -> GlobalSeries:
        series = GlobalSeries()
        for now, in_flight, events, _levels in self.samples:
            series.t.append(now)
            series.in_flight.append(in_flight)
            series.events.append(events)
        return series

    def _level_series(self) -> List[LevelSeries]:
        out: List[LevelSeries] = []
        for level, state in sorted(self.levels.items()):
            series = LevelSeries(
                level=level, nodes=state.nodes,
                grants_read=state.grants_read,
                grants_write=state.grants_write,
            )
            for now, _in_flight, _events, snapshot in self.samples:
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
    counters: Dict[str, float] = {}
    for run in ordered:
        for name, value in run.counters.items():
            counters[name] = counters.get(name, 0) + value
    return SweepTelemetry(
        schema=first.schema,
        algorithm=first.algorithm,
        arrival_rate=first.arrival_rate,
        seeds=[run.seed for run in ordered],
        counters=dict(sorted(counters.items())),
        runs=list(ordered),
    )


def collect_replications(config: SimulationConfig, n_seeds: int = 5,
                         options: Optional[TelemetryOptions] = None,
                         jobs: int = 1,
                         progress: Optional[Callable[[RunTelemetry], None]]
                         = None,
                         resilience: Optional[ResilienceOptions] = None,
                         ) -> Tuple[List[Optional[SimulationResult]],
                                    Optional[SweepTelemetry]]:
    """Run one sweep point under telemetry and merge the artifacts.

    The seeds run as ``"telemetry"`` tasks of one
    :func:`~repro.parallel.run_batch` (serial unless ``jobs`` > 1;
    fail-fast unless ``resilience`` is given; ``progress`` gets each
    :class:`RunTelemetry`).  Returns ``(results, merged)``: the per-seed
    results (``None`` where a seed was quarantined) and the merged
    :class:`SweepTelemetry` of the rest, or None when none is left.
    """
    from repro.parallel import run_batch
    from repro.parallel.executor import KIND_TELEMETRY, SimTask

    options = options if options is not None else TelemetryOptions()
    tasks = [SimTask(config.with_seed(config.seed + offset),
                     kind=KIND_TELEMETRY, telemetry=options)
             for offset in range(n_seeds)]
    runs = run_batch(tasks, jobs=jobs, progress=progress,
                     resilience=resilience)
    delivered = [run for run in runs if run is not None]
    return ([None if run is None else run.result for run in runs],
            merge_telemetry(delivered) if delivered else None)
