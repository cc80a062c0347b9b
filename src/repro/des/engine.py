"""The discrete-event simulation kernel.

:class:`Simulator` owns the simulation clock and a binary-heap event list.
Every event is one record ``(time, sequence, process, send_value)``: resume
``process`` by sending it ``send_value`` (a fresh process is started by
sending it ``None``).  The sequence number makes the ordering of
simultaneous events deterministic (FIFO in scheduling order), which in
turn makes whole simulation runs reproducible for a fixed random seed;
because it is unique, heap comparisons never reach the payload fields.

Processes (see :mod:`repro.des.process`) yield one of two values: a
``float`` hold, or :data:`~repro.des.process.WAIT`, which parks the
process until something resumes it.  Locks are plain calls made while
the kernel steps a process (:attr:`Simulator.current`):
``lock.acquire_read(sim)`` / ``acquire_write(sim)`` return ``0.0`` — a
zero hold — on an immediate grant and :data:`~repro.des.process.WAIT`
when the request queues, and ``lock.release(sim)`` returns nothing.
The kernel steps a process as far as it can without time passing —
e.g. a lock acquired without contention is granted immediately within
the same step — which keeps the event heap small and the simulator
fast.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from repro.des.process import WAIT, Process
from repro.errors import ProcessError, SimulationError

#: One scheduled event: resume ``process`` with ``send_value`` at ``time``.
Event = Tuple[float, int, Process, object]


class Simulator:
    """Event-driven simulation kernel.

    Typical use::

        sim = Simulator()

        def customer(lock):
            wait = yield lock.acquire_write(sim)
            yield 1.0                      # hold for one time unit
            lock.release(sim)

        sim.spawn(customer(lock))
        sim.run()
    """

    def __init__(self) -> None:
        #: Current simulation time.
        self.now: float = 0.0
        #: The process :meth:`run` is stepping; None outside a step.
        self.current: Optional[Process] = None
        self._heap: List[Event] = []
        self._sequence: int = 0
        self._active: int = 0
        self._total_spawned: int = 0
        self._stopped: bool = False

    # ------------------------------------------------------------------
    # Clock and bookkeeping
    # ------------------------------------------------------------------
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
    def spawn(self, generator, name: str = "",
              on_done: Optional[Callable[[Process], None]] = None,
              delay: float = 0.0) -> Process:
        """Create a process from ``generator`` and start it after ``delay``.

        Returns the :class:`Process` handle.  ``on_done`` is invoked with
        the process when its generator finishes.
        """
        if not delay >= 0:
            _reject_delay(delay)
        process = Process(generator, name=name)
        process.on_done = on_done
        self._active += 1
        self._total_spawned += 1
        self._sequence += 1
        heapq.heappush(self._heap,
                       (self.now + delay, self._sequence, process, None))
        return process

    def resume(self, process: Process, value=None, delay: float = 0.0) -> None:
        """Schedule ``process`` to be resumed with ``value`` after ``delay``.

        Used by synchronisation objects (locks) to wake waiters.
        """
        if not delay >= 0:
            _reject_delay(delay)
        self._sequence += 1
        heapq.heappush(self._heap,
                       (self.now + delay, self._sequence, process, value))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Drain the event heap, stepping each process as far as it can
        go without time passing.

        If ``until`` is given, stop once the next event is later than
        ``until`` and advance the clock to exactly ``until``; an
        ``until`` before :attr:`now` is an error.  :meth:`stop` ends the
        run after the current event.  Returns the simulation time at
        which the run stopped, with :attr:`current` back to None.
        """
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until {until}, before now={self.now}")
        self._stopped = False
        # One loop for events and process steps: this body executes once
        # per event, so calls and attribute/global lookups are hoisted
        # into locals.  Holds push their resume record inline, a zero
        # hold (an immediate lock grant among them) sends 0.0 back
        # within the step, WAIT parks the process, and the clock cannot
        # advance within a step.
        heap = self._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        wait = WAIT
        while heap:
            if until is not None and heap[0][0] > until:
                self.now = until
                self.current = None
                return until
            now, _, process, send_value = heappop(heap)
            self.now = now
            self.current = process
            if process.done:
                raise ProcessError(f"{process!r} resumed after completion")
            send = process.generator.send
            while True:
                try:
                    command = send(send_value)
                except StopIteration:
                    process.done = True
                    self._active -= 1
                    if process.on_done is not None:
                        process.on_done(process)
                    break
                cls = command.__class__
                if cls is float:
                    if command > 0.0:
                        self._sequence = seq = self._sequence + 1
                        heappush(heap, (now + command, seq, process, None))
                        break
                    if command == 0.0:
                        send_value = 0.0
                        continue
                    raise ProcessError(
                        f"{process!r} held for NaN time" if command != command
                        else f"{process!r} held for negative time {command!r}")
                if command is wait:
                    break  # parked: e.g. the lock resumes it with the wait
                raise ProcessError(
                    f"{process!r} yielded unsupported command {command!r}")
            if self._stopped:
                self.current = None
                return now
        self.current = None
        if until is not None:
            self.now = until
        return self.now

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def discard_pending(self) -> None:
        """Drop the events still on the heap, for a run that is over.

        A stopped run leaves suspended processes there whose generators
        refer back to this simulator; dropping them frees that state at
        once instead of at the next cyclic garbage collection.  The
        dropped events were never executed, so :attr:`events_executed`
        keeps its value.
        """
        self._sequence -= len(self._heap)
        self._heap.clear()
        self.current = None


def _reject_delay(delay: float) -> None:
    """Refuse a negative or NaN scheduling delay (``not delay >= 0``
    catches both): a NaN time on the heap compares false against
    everything and would silently break the event order."""
    raise SimulationError(
        f"cannot schedule in the past or at NaN (delay={delay})")
