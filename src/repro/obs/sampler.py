"""Periodic time-series sampling with bounded memory.

The telemetry sampler is an ordinary simulation process: every
``sample_interval`` simulated time units it snapshots

* the in-flight operation population (globally), and
* per tree level, the live lock state — how many node locks are held in
  R mode, in W mode, and how many requests are queued —

into a :class:`DecimatingRing`.  The ring never exceeds its capacity:
when it fills, every second sample is dropped and the sampler doubles
its interval, so a run of any length is covered end to end by at most
``capacity`` samples at a self-adjusting resolution (the same trick a
scope's "auto" timebase uses).  Timestamps therefore stay strictly
increasing — a property the tests pin down.

The per-level state lives in :class:`LevelState` objects that
:class:`~repro.des.rwlock.RWLock` updates inline (guarded by a single
``is not None`` check, so runs without telemetry pay one attribute load
per lock event and nothing else).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Tuple

from repro.errors import ConfigurationError


class LevelState:
    """Live aggregate lock state of one tree level.

    ``held_read`` / ``held_write`` count node locks currently granted in
    each mode across the level; ``queued`` counts waiting requests;
    ``grants_read`` / ``grants_write`` accumulate totals; ``nodes``
    counts the nodes ever allocated at the level, build-freed ones
    included (nodes are never recycled).
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


#: One sample: (time, in_flight, events_executed,
#:              ((level, held_read, held_write, queued, nodes), ...)).
Sample = Tuple[float, int, int, Tuple[Tuple[int, int, int, int, int], ...]]


class DecimatingRing:
    """Append-only sample store with bounded memory and full coverage.

    Unlike a sliding ring (which forgets the beginning of long runs),
    this ring halves its *resolution* when full: every second retained
    sample is dropped and :attr:`stride` doubles.  ``append`` returns
    True exactly when that happened, so the producer can double its
    sampling interval in step.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 4:
            raise ConfigurationError(
                f"ring capacity must be >= 4, got {capacity}")
        self.capacity = capacity
        self.stride = 1
        self.items: List[Sample] = []

    def append(self, item: Sample) -> bool:
        self.items.append(item)
        if len(self.items) >= self.capacity:
            # Keep items 0, 2, 4, ... — order (and hence timestamp
            # monotonicity) is preserved, resolution halves.
            del self.items[1::2]
            self.stride *= 2
            return True
        return False

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[Sample]:
        return iter(self.items)


class TelemetrySampler:
    """Owns the per-level states and the sampling process of one run."""

    def __init__(self, sample_interval: float, capacity: int) -> None:
        if sample_interval <= 0:
            raise ConfigurationError(
                f"sample_interval must be positive, got {sample_interval}")
        self.base_interval = sample_interval
        self.interval = sample_interval
        self.ring = DecimatingRing(capacity)
        self.levels: Dict[int, LevelState] = {}

    def level_state(self, level: int) -> LevelState:
        """The (created-on-demand) live state of ``level``."""
        state = self.levels.get(level)
        if state is None:
            state = LevelState(level)
            self.levels[level] = state
        return state

    def count_node(self, level: int) -> None:
        """Count one node allocated at ``level``."""
        self.level_state(level).nodes += 1

    def watch(self, lock, level: int) -> None:
        """Register one node lock: future grants/releases/queueing on it
        update the level's aggregate counters."""
        lock.telemetry = self.level_state(level)

    def sample(self, now: float, in_flight: int, events: int) -> None:
        snapshot = tuple(
            (state.level, state.held_read, state.held_write, state.queued,
             state.nodes)
            for state in sorted(self.levels.values(),
                                key=lambda s: s.level)
        )
        if self.ring.append((now, in_flight, events, snapshot)):
            self.interval *= 2.0

    def process(self, sim, in_flight: Callable[[], int]) -> Iterator[float]:
        """The generator the driver spawns alongside the workload."""
        while True:
            yield self.interval
            self.sample(sim.now, in_flight(), sim.events_executed)
