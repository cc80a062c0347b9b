"""Counter and timer instruments with a free disabled path.

Instrumented code asks an :class:`Instrumentation` registry for named
:class:`Counter`\\ s and :class:`Timer`\\ s once, up front, and then calls
``inc()`` / ``observe()`` on the hot path.  When telemetry is off the
code holds the *null* variants instead — shared singletons whose methods
are empty — so a disabled instrument costs one no-op method call and
allocates nothing per event.  The DES engine goes one step further: its
event loop holds no instrument, and the recorder reads the event and
spawn counts off the engine when the run ends (see
:attr:`repro.des.engine.Simulator.events_executed`).

Counters accumulate integer-ish totals (events executed, processes
spawned); timers accumulate a count / total / min / max summary of a
stream of durations.  Everything here measures *simulated* quantities,
so snapshots are deterministic for a fixed seed and merge cleanly
across parallel workers (see :func:`merge_counter_snapshots`).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping


class Counter:
    """A named monotonically increasing tally."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: int = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, value={self.value})"


class Timer:
    """A named duration accumulator (count / total / min / max).

    ``observe(duration)`` folds one measurement in; the mean is
    ``total / count``.  Durations are simulated times, so the summary
    is deterministic for a fixed seed.
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count: int = 0
        self.total: float = 0.0
        self.min: float = math.inf
        self.max: float = -math.inf

    def observe(self, duration: float) -> None:
        self.count += 1
        self.total += duration
        if duration < self.min:
            self.min = duration
        if duration > self.max:
            self.max = duration

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Timer({self.name!r}, count={self.count})"


class _NullCounter:
    """Shared do-nothing counter handed out when instrumentation is off."""

    __slots__ = ()
    name = "<disabled>"
    value = 0

    def inc(self, amount: int = 1) -> None:
        pass


class _NullTimer:
    """Shared do-nothing timer handed out when instrumentation is off."""

    __slots__ = ()
    name = "<disabled>"
    count = 0
    total = 0.0

    def observe(self, duration: float) -> None:
        pass


#: The singletons every disabled lookup returns: no per-lookup and no
#: per-event allocation.
NULL_COUNTER = _NullCounter()
NULL_TIMER = _NullTimer()


class Instrumentation:
    """Registry of named counters and timers for one run."""

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._timers: Dict[str, Timer] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = Counter(name)
            self._counters[name] = instrument
        return instrument

    def timer(self, name: str) -> Timer:
        instrument = self._timers.get(name)
        if instrument is None:
            instrument = Timer(name)
            self._timers[name] = instrument
        return instrument

    def snapshot(self) -> Dict[str, float]:
        """Flatten every instrument into a ``{name: value}`` mapping.

        Counters appear under their own name; a timer ``t`` appears as
        ``t.count`` and ``t.total`` (its mean is derivable, and count /
        total sum cleanly when merging workers, which min / max / mean
        would not).
        """
        values: Dict[str, float] = {
            name: counter.value for name, counter in self._counters.items()
        }
        for name, timer in self._timers.items():
            values[f"{name}.count"] = timer.count
            values[f"{name}.total"] = timer.total
        return dict(sorted(values.items()))


class NullInstrumentation:
    """Disabled registry: every lookup returns the shared null objects."""

    enabled = False

    def counter(self, name: str) -> _NullCounter:
        return NULL_COUNTER

    def timer(self, name: str) -> _NullTimer:
        return NULL_TIMER

    def snapshot(self) -> Dict[str, float]:
        return {}


NULL_INSTRUMENTS = NullInstrumentation()


def merge_counter_snapshots(snapshots: Iterable[Mapping[str, float]]
                            ) -> Dict[str, float]:
    """Sum per-run counter snapshots into one (parallel-worker merge)."""
    merged: Dict[str, float] = {}
    for snapshot in snapshots:
        for name, value in snapshot.items():
            merged[name] = merged.get(name, 0) + value
    return dict(sorted(merged.items()))
