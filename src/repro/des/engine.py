"""The discrete-event simulation kernel.

:class:`Simulator` owns the simulation clock and a binary-heap event list.
Events are typed records ``(time, sequence, kind, a, b)`` interpreted
inline by :meth:`Simulator.run` — a process start, a process resume
carrying its send value, or a plain callable (the public
:meth:`~Simulator.schedule` API).  The sequence number makes the ordering
of simultaneous events deterministic (FIFO in scheduling order), which in
turn makes whole simulation runs reproducible for a fixed random seed;
because it is unique, heap comparisons never reach the payload fields.

Processes (see :mod:`repro.des.process`) communicate with the kernel by
yielding commands; the step loop dispatches on each command's integer
``kind`` tag (with a bare ``float`` understood as an allocation-free
Hold).  The kernel steps a process as far as it can without time passing
— e.g. a lock acquired without contention is granted immediately within
the same step — which keeps the event heap small and the simulator fast.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from repro.des.process import (
    KIND_ACQUIRE,
    KIND_HOLD,
    KIND_RELEASE,
    Process,
)
from repro.errors import ProcessError, SimulationError

Action = Callable[[], None]

#: Heap-record kinds (slot 2 of every event tuple).
_EV_ACTION = 0   # a: zero-argument callable,   b: unused
_EV_START = 1    # a: Process to start,         b: unused
_EV_RESUME = 2   # a: Process to resume,        b: value to send

#: One scheduled event.
Event = Tuple[float, int, int, object, object]

# The step loop dispatches on literal ints for speed; pin them to the
# canonical constants so a drift in process.py cannot go unnoticed.
assert (KIND_HOLD, KIND_ACQUIRE, KIND_RELEASE) == (0, 1, 2)


class Simulator:
    """Event-driven simulation kernel.

    Typical use::

        sim = Simulator()

        def customer(lock):
            wait = yield lock.acquire_write
            yield 1.0                      # hold (bare-float shorthand)
            yield lock.release_cmd

        sim.spawn(customer(lock))
        sim.run()
    """

    def __init__(self) -> None:
        self._now: float = 0.0
        self._heap: List[Event] = []
        self._sequence: int = 0
        self._active: int = 0
        self._total_spawned: int = 0
        self._stopped: bool = False

    # ------------------------------------------------------------------
    # Clock and bookkeeping
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_processes(self) -> int:
        """Number of spawned processes that have not yet finished."""
        return self._active

    @property
    def total_spawned(self) -> int:
        """Number of processes spawned since construction."""
        return self._total_spawned

    @property
    def events_executed(self) -> int:
        """Number of events :meth:`run` has popped and executed.

        Every heap push bumps ``_sequence`` and only :meth:`run` pops,
        so the events that have left the heap are the pushes minus the
        events still on it.  Inside an event the current one counts as
        executed.
        """
        return self._sequence - len(self._heap)

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def schedule(self, delay: float, action: Action) -> None:
        """Run ``action`` after ``delay`` units of simulated time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._sequence += 1
        heapq.heappush(self._heap,
                       (self._now + delay, self._sequence, _EV_ACTION,
                        action, None))

    def schedule_at(self, time: float, action: Action) -> None:
        """Run ``action`` at absolute simulation time ``time``."""
        self.schedule(time - self._now, action)

    def spawn(self, generator, name: str = "",
              on_done: Optional[Callable[[Process], None]] = None,
              delay: float = 0.0) -> Process:
        """Create a process from ``generator`` and start it after ``delay``.

        Returns the :class:`Process` handle.  ``on_done`` is invoked with
        the process when its generator finishes.
        """
        process = Process(generator, name=name)
        process.on_done = on_done
        self._active += 1
        self._total_spawned += 1
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._sequence += 1
        heapq.heappush(self._heap,
                       (self._now + delay, self._sequence, _EV_START,
                        process, None))
        return process

    def resume(self, process: Process, value=None, delay: float = 0.0) -> None:
        """Schedule ``process`` to be resumed with ``value`` after ``delay``.

        Used by synchronisation objects (locks) to wake waiters.  A typed
        heap record — no closure is allocated.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._sequence += 1
        heapq.heappush(self._heap,
                       (self._now + delay, self._sequence, _EV_RESUME,
                        process, value))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None,
            stop_when: Optional[Callable[[], bool]] = None) -> float:
        """Drain the event heap.

        Parameters
        ----------
        until:
            If given, stop once the next event is later than ``until`` and
            advance the clock to exactly ``until``.
        stop_when:
            Optional predicate checked after every event; the run stops as
            soon as it returns True (used e.g. to stop after N measured
            operations).

        Returns the simulation time at which the run stopped.
        """
        self._stopped = False
        # Local bindings: this loop executes once per event and the
        # attribute/global lookups are measurable at sweep scale.
        heap = self._heap
        heappop = heapq.heappop
        step = self._step
        while heap:
            event = heap[0]
            time = event[0]
            if until is not None and time > until:
                self._now = until
                return self._now
            heappop(heap)
            self._now = time
            kind = event[2]
            if kind == _EV_RESUME:
                step(event[3], event[4])
            elif kind == _EV_START:
                self._start(event[3])
            else:
                event[3]()
            if self._stopped or (stop_when is not None and stop_when()):
                return self._now
        if until is not None:
            self._now = until
        return self._now

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Process stepping
    # ------------------------------------------------------------------
    def _start(self, process: Process) -> None:
        """First step of a spawned process (the ``_EV_START`` record)."""
        process.started_at = self._now
        self._step(process, None)

    def _step(self, process: Process, send_value) -> None:
        """Advance ``process`` until it blocks, holds, or finishes."""
        if process.done:
            raise ProcessError(f"{process!r} resumed after completion")
        # Hot path: the heap push for holds is inlined, and commands
        # dispatch on a bare float check plus one integer ``kind``
        # compare.
        send = process.generator.send
        heap = self._heap
        heappush = heapq.heappush
        now = self._now  # the clock cannot advance within a step
        while True:
            try:
                command = send(send_value)
            except StopIteration:
                self._finish(process)
                return
            if command.__class__ is float:
                if command > 0.0:
                    self._sequence = seq = self._sequence + 1
                    heappush(heap, (now + command, seq, _EV_RESUME,
                                    process, None))
                    return
                if command == 0.0:
                    send_value = None
                    continue
                raise ProcessError(
                    f"{process!r} held for negative time {command!r}")
            try:
                kind = command.kind
            except AttributeError:
                self._step_other(process, command)  # int holds
                return
            if kind == 1:  # acquire
                if command.lock.request(self, process, command.mode):
                    send_value = 0.0
                    continue
                return  # the lock will resume us with the wait time
            if kind == 2:  # release
                command.lock.release(self, process)
                send_value = None
                continue
            if kind == 0:  # Hold instance (validated non-negative)
                duration = command.duration
                if duration > 0.0:
                    self._sequence = seq = self._sequence + 1
                    heappush(heap, (now + duration, seq, _EV_RESUME,
                                    process, None))
                    return
                send_value = None
                continue
            raise ProcessError(
                f"{process!r} yielded unsupported command {command!r}"
            )

    def _step_other(self, process: Process, command) -> None:
        """Slow-path commands: integer holds and protocol errors."""
        if isinstance(command, (int, float)) and not isinstance(command, bool):
            if command < 0:
                raise ProcessError(
                    f"{process!r} held for negative time {command!r}")
            self.resume(process, None, delay=float(command))
            return
        raise ProcessError(
            f"{process!r} yielded unsupported command {command!r}"
        )

    def _finish(self, process: Process) -> None:
        process.done = True
        process.finished_at = self._now
        self._active -= 1
        if process.on_done is not None:
            process.on_done(process)
