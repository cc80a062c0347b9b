"""Metrics collected during a simulation run.

The paper's simulator "collects a variety of statistics, including the
operation response times and the lock waiting times", plus
algorithm-specific counters (link crossings for the Link-type algorithm,
redo descents for Optimistic Descent).  :class:`MetricsCollector` gathers
all of them; :class:`SimulationResult` is the frozen summary a run
returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional

from repro.des.process import READ
from repro.des.stats import ReservoirSample, RunningStats


class LevelWaitObserver:
    """Per-level lock-wait accumulators, fed through the level's
    :class:`GatedObserver` by every node lock at the level."""

    __slots__ = ("read_waits", "write_waits")

    def __init__(self) -> None:
        self.read_waits = RunningStats()
        self.write_waits = RunningStats()


class GatedObserver:
    """Adds lock waits to one level's :class:`LevelWaitObserver` stats
    only while the collector's measurement window is open; the
    simulator shares one per tree level among that level's locks."""

    __slots__ = ("collector", "read_waits", "write_waits")

    def __init__(self, collector: "MetricsCollector", level: int) -> None:
        self.collector = collector
        inner = collector.observer_for_level(level)
        self.read_waits = inner.read_waits
        self.write_waits = inner.write_waits

    def on_wait(self, mode: str, wait: float) -> None:
        if self.collector.measuring:
            if mode == READ:
                self.read_waits.add(wait)
            else:
                self.write_waits.add(wait)


#: Interval (in root-search time units) between root-utilization samples.
ROOT_SAMPLE_INTERVAL = 1.0


def root_sampler(tree, collector: "MetricsCollector") -> Iterator[float]:
    """The process both drivers spawn to sample ``tree``'s root lock
    every :data:`ROOT_SAMPLE_INTERVAL` into ``collector`` (the
    writer-presence probability rho_w of Figure 10)."""
    while True:
        yield ROOT_SAMPLE_INTERVAL
        lock = tree.root.lock
        present = lock.writer is not None or lock.writer_waiting()
        collector.record_root_sample(present,
                                     queue_length=lock.queue_length)


def _reservoir_seed(run_seed: int, index: int) -> int:
    """Derive a distinct, process-stable reservoir seed per operation
    type from the run seed.

    Two runs with different seeds must make different reservoir
    sampling decisions (a fixed per-operation seed would tie every
    config executed in one process to the same decisions); the
    splitmix-style multiplier keeps consecutive run seeds decorrelated.
    """
    return (run_seed * 0x9E3779B97F4A7C15 + index + 1) % (2 ** 63)


class MetricsCollector:
    """Mutable statistics gathered while the simulation runs.

    ``seed`` is the run seed; the percentile reservoirs derive their
    sampling streams from it so replications sample independently.
    """

    def __init__(self, seed: int = 0) -> None:
        #: Response-time accumulators keyed by "search"/"insert"/"delete".
        self.response: Dict[str, RunningStats] = {
            "search": RunningStats(),
            "insert": RunningStats(),
            "delete": RunningStats(),
        }
        #: Reservoir samples for latency percentiles, per operation type.
        self.response_samples: Dict[str, ReservoirSample] = {
            name: ReservoirSample(seed=_reservoir_seed(seed, i))
            for i, name in enumerate(("search", "insert", "delete"))
        }
        #: Lock-wait observers keyed by level (created on demand).
        self.level_waits: Dict[int, LevelWaitObserver] = {}
        self.measured_operations = 0
        self.link_crossings = 0
        self.redo_descents = 0
        self.restarts = 0
        self.splits = 0
        self.leaf_removals = 0
        #: Empty leaves reclaimed by the background compactor (link trees).
        self.compactions = 0
        #: Root writer-presence sampling (Figure 10's rho_w).
        self.root_samples = 0
        self.root_writer_present_samples = 0
        #: Root lock queue-length sampling (Little's-law cross-check).
        self.root_queue_length_total = 0
        self.measure_start_time: Optional[float] = None
        self.measure_end_time: Optional[float] = None
        self.peak_population = 0
        self.measuring = False
        #: Called on the event that records the ``stop_after``-th
        #: measured operation (the drivers pass ``Simulator.stop``).
        self.stop_after: Optional[int] = None
        self.on_stop: Optional[Callable[[], None]] = None

    def observer_for_level(self, level: int) -> LevelWaitObserver:
        observer = self.level_waits.get(level)
        if observer is None:
            observer = LevelWaitObserver()
            self.level_waits[level] = observer
        return observer

    def record_response(self, operation: str, elapsed: float) -> None:
        if self.measuring:
            self.response[operation].add(elapsed)
            self.response_samples[operation].add(elapsed)
            self.measured_operations += 1
            if self.measured_operations == self.stop_after \
                    and self.on_stop is not None:
                self.on_stop()

    def record_root_sample(self, writer_present: bool,
                           queue_length: int = 0) -> None:
        if self.measuring:
            self.root_samples += 1
            if writer_present:
                self.root_writer_present_samples += 1
            self.root_queue_length_total += queue_length

    def note_population(self, population: int) -> None:
        if population > self.peak_population:
            self.peak_population = population


@dataclass(frozen=True)
class SimulationResult:
    """Frozen summary of one run."""

    algorithm: str
    arrival_rate: float
    seed: int
    #: True when the run hit the concurrent-operation allocation, i.e.
    #: the offered load was unsustainable (the paper's "crash").
    overflowed: bool
    measured_operations: int
    elapsed_time: float
    #: Mean response time per operation type (NaN when none completed).
    mean_response: Dict[str, float]
    #: Latency percentiles per operation type:
    #: ``{"search": {"p50": ..., "p90": ..., "p99": ...}, ...}``.
    response_percentiles: Dict[str, Dict[str, float]]
    #: Pooled mean response over all measured operations.
    overall_mean_response: float
    #: Mean lock wait per level and mode: ``{level: (read, write)}``.
    mean_lock_waits: Dict[int, tuple]
    #: Sampled probability a writer holds/waits on the root lock.
    root_writer_utilization: float
    #: Sampled mean number of requests queued at the root lock; by
    #: Little's law this approximates (root arrival rate) x (root wait).
    root_mean_queue_length: float
    throughput: float
    link_crossings: int
    redo_descents: int
    restarts: int
    splits: int
    leaf_removals: int
    compactions: int
    peak_population: int
    final_tree_size: int
    final_height: int

    def response(self, operation: str) -> float:
        """Mean response time of ``operation`` (+inf if the run
        overflowed before measuring it)."""
        value = self.mean_response[operation]
        if math.isnan(value) and self.overflowed:
            return math.inf
        return value


def summarize(collector: MetricsCollector, *, algorithm: str,
              arrival_rate: float, seed: int, overflowed: bool,
              tree_size: int, tree_height: int) -> SimulationResult:
    """Freeze a collector into a :class:`SimulationResult`."""
    start = collector.measure_start_time or 0.0
    end = collector.measure_end_time if collector.measure_end_time is not None \
        else start
    elapsed = max(end - start, 0.0)
    per_op = {name: acc.mean for name, acc in collector.response.items()}
    percentiles = {name: sample.quantile_summary()
                   for name, sample in collector.response_samples.items()}
    pooled = RunningStats()
    for acc in collector.response.values():
        pooled.merge(acc)
    waits = {
        level: (obs.read_waits.mean, obs.write_waits.mean)
        for level, obs in sorted(collector.level_waits.items())
    }
    rho_root = (collector.root_writer_present_samples / collector.root_samples
                if collector.root_samples else math.nan)
    root_queue = (collector.root_queue_length_total / collector.root_samples
                  if collector.root_samples else math.nan)
    throughput = (collector.measured_operations / elapsed
                  if elapsed > 0 else math.nan)
    return SimulationResult(
        algorithm=algorithm,
        arrival_rate=arrival_rate,
        seed=seed,
        overflowed=overflowed,
        measured_operations=collector.measured_operations,
        elapsed_time=elapsed,
        mean_response=per_op,
        response_percentiles=percentiles,
        overall_mean_response=pooled.mean,
        mean_lock_waits=waits,
        root_writer_utilization=rho_root,
        root_mean_queue_length=root_queue,
        throughput=throughput,
        link_crossings=collector.link_crossings,
        redo_descents=collector.redo_descents,
        restarts=collector.restarts,
        splits=collector.splits,
        leaf_removals=collector.leaf_removals,
        compactions=collector.compactions,
        peak_population=collector.peak_population,
        final_tree_size=tree_size,
        final_height=tree_height,
    )
