"""Metrics collected during a simulation run.

The paper's simulator "collects a variety of statistics, including the
operation response times and the lock waiting times", plus
algorithm-specific counters (link crossings for the Link-type algorithm,
redo descents for Optimistic Descent).  :class:`MetricsCollector` gathers
all of them; :class:`SimulationResult` is the frozen summary a run
returns.

Response times and lock waits are kept as running means
(:class:`~repro.des.stats.RunningMean`): a run reports only their means.
The node locks add their grant waits to their level's pair themselves,
from the first grant on; the drivers call
:meth:`MetricsCollector.open_window` when the warm-up ends, which resets
those means, so only grants made inside the measurement window count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.des.stats import ReservoirSample, RunningMean


#: Interval (in root-search time units) between root-utilization
#: samples: the root lock is sampled at every positive multiple of it.
ROOT_SAMPLE_INTERVAL = 1.0


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
        #: Response-time means keyed by "search"/"insert"/"delete".
        self.response: Dict[str, RunningMean] = {
            "search": RunningMean(),
            "insert": RunningMean(),
            "delete": RunningMean(),
        }
        #: Reservoir samples for latency percentiles, per operation type.
        self.response_samples: Dict[str, ReservoirSample] = {
            name: ReservoirSample(seed=_reservoir_seed(seed, i))
            for i, name in enumerate(("search", "insert", "delete"))
        }
        #: ``{level: (read waits, write waits)}``, created on demand;
        #: the locks of a level add their grant waits to its pair.
        self.level_waits: Dict[int, Tuple[RunningMean, RunningMean]] = {}
        self.measured_operations = 0
        self.link_crossings = 0
        self.redo_descents = 0
        self.restarts = 0
        self.splits = 0
        self.leaf_removals = 0
        #: Root writer-presence sampling (Figure 10's rho_w).
        self.root_samples = 0
        self.root_writer_present_samples = 0
        #: Root lock queue-length sampling (Little's-law cross-check).
        self.root_queue_length_total = 0
        #: The lock whose state the root samples read (the root's, see
        #: :meth:`follow_root`) and the index of the first sample
        #: instant not booked yet.
        self.root_lock = None
        self.next_root_sample = 1
        self.measure_start_time: Optional[float] = None
        self.measure_end_time: Optional[float] = None
        self.peak_population = 0
        self.measuring = False
        #: Called on the event that records the ``stop_after``-th
        #: measured operation (the drivers pass ``Simulator.stop``).
        self.stop_after: Optional[int] = None
        self.on_stop: Optional[Callable[[], None]] = None

    def waits_for_level(self, level: int) -> Tuple[RunningMean, RunningMean]:
        """The ``(read, write)`` wait means of tree level ``level``."""
        waits = self.level_waits.get(level)
        if waits is None:
            waits = self.level_waits[level] = (RunningMean(), RunningMean())
        return waits

    def open_window(self, now: float) -> None:
        """Start measuring at ``now``: book the root samples before it,
        and forget the lock waits of the grants made so far."""
        self.book_root_samples(now)
        self.measuring = True
        self.measure_start_time = now
        for read, write in self.level_waits.values():
            read.reset()
            write.reset()

    def record_response(self, operation: str, elapsed: float) -> None:
        if self.measuring:
            self.response[operation].add(elapsed)
            self.response_samples[operation].add(elapsed)
            self.measured_operations += 1
            if self.measured_operations == self.stop_after \
                    and self.on_stop is not None:
                self.on_stop()

    def book_root_samples(self, now: float) -> None:
        """Book every root sample instant in ``[next, now)`` at once.

        The root is sampled at each positive multiple of
        :data:`ROOT_SAMPLE_INTERVAL`: whether a writer holds or waits
        for the root lock (Figure 10's rho_w) and how many requests
        wait there.  The root lock calls this (its ``on_change`` slot)
        just before either can change, so every instant not booked yet
        saw the lock's current state; :meth:`open_window` calls it when
        the measurement window opens, and the drivers when the run
        ends.  Instants count only while :attr:`measuring` is true.
        """
        position = now / ROOT_SAMPLE_INTERVAL
        if position <= self.next_root_sample:
            return  # no sample instant has passed
        count = math.ceil(position) - self.next_root_sample
        self.next_root_sample += count
        if self.measuring:
            lock = self.root_lock
            self.root_samples += count
            if lock.writer is not None or lock.writer_waiting():
                self.root_writer_present_samples += count
            self.root_queue_length_total += count * lock.queue_length

    def follow_root(self, lock, now: float) -> None:
        """Sample ``lock`` from ``now`` on: the tree's root changed.

        Books the instants before ``now`` against the old root's lock
        and moves the ``on_change`` slot to ``lock``.
        """
        old = self.root_lock
        if old is not None:
            self.book_root_samples(now)
            old.on_change = None
        self.root_lock = lock
        lock.on_change = self.book_root_samples


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
    pooled = RunningMean()
    for acc in collector.response.values():
        pooled.merge(acc)
    # The locks count from the first grant; a window that never opened
    # (a run that overflowed during its warm-up) measured no wait.
    waits = {
        level: ((read.mean, write.mean) if collector.measuring
                else (math.nan, math.nan))
        for level, (read, write) in sorted(collector.level_waits.items())
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
        peak_population=collector.peak_population,
        final_tree_size=tree_size,
        final_height=tree_height,
    )
