"""First-come-first-served reader/writer lock.

This is the lock discipline assumed throughout the paper (Section 3.2,
"Lock types") and analysed in the appendix (the FCFS R/W queue of
Johnson's SIGMETRICS '90 paper):

* R (shared) locks may be held concurrently by any number of processes.
* W (exclusive) locks conflict with everything.
* Grants are strictly first-come, first-served: a request never overtakes
  an earlier one, so a compatible reader still waits behind a queued
  writer.

The lock keeps no statistics of its own.  Each grant's wait goes into
the :class:`~repro.des.stats.RunningMean` in its ``read_waits`` or
``write_waits`` slot, updated inline (the simulator puts one pair per
tree level there); live per-level counts go to its ``telemetry`` slot;
and the root lock's ``on_change`` slot books the root samples behind
the writer utilization :math:`\\rho_w` of paper Figure 10
(:meth:`~repro.simulator.metrics.MetricsCollector.book_root_samples`).
A maintained queued-writer counter makes the writer-present check
O(1): it never scans the wait queue.  Each slot costs a lock event one
attribute load and ``is None`` test while it is empty; ``on_change`` is
read only by W grants, enqueues, writer releases and dispatches, so an
uncontended R grant or an R release with nobody queued pays nothing
for it.  The wait queue itself is allocated on the first contended
request: most locks never queue.

Each lock also interns one :class:`~repro.des.process.Acquire` per mode
(:attr:`acquire_read` / :attr:`acquire_write`); operation generators
yield those cached instances so the steady-state command stream
allocates nothing.  Releasing is a plain call, :meth:`RWLock.release`,
for the process the engine is stepping (see ``docs/performance.md``,
"Kernel hot path").
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Set, Tuple, Union

from repro.des.engine import Simulator
from repro.des.process import (
    READ,
    WRITE,
    Acquire,
    LockRequest,
    Process,
)
from repro.des.stats import RunningMean
from repro.errors import LockProtocolError


class RWLock:
    """A FCFS shared/exclusive lock.

    Parameters
    ----------
    name:
        Label used in error messages (the simulator uses node ids).

    The :attr:`read_waits` / :attr:`write_waits` slots (normally None)
    may hold a :class:`~repro.des.stats.RunningMean`; every R / W grant
    adds its queueing delay to it, 0.0 for an uncontended grant.  The
    concurrent B-tree simulator shares one pair among the locks of a
    tree level.

    The :attr:`telemetry` slot (normally None) may hold any object with
    integer ``held_read`` / ``held_write`` / ``queued`` /
    ``grants_read`` / ``grants_write`` attributes — in practice a
    :class:`~repro.obs.telemetry.LevelState` shared by every lock of one
    tree level.  The lock keeps those live counts current so a periodic
    sampler can read per-level queue depth and R/W utilization without
    walking the tree.  With telemetry off the cost is a single
    attribute load + ``is None`` test per lock event.

    The :attr:`on_change` slot (normally None) may hold a callable that
    the lock calls with the current time just before writer presence
    or the queue length may change: before an uncontended W grant, an
    enqueue, a writer release and a dispatch.  Between two calls both
    stay as they were, so the callee can account for the whole span at
    once.
    """

    __slots__ = (
        "name", "read_waits", "write_waits", "telemetry", "on_change",
        "acquire_read", "acquire_write", "_readers", "_writer", "_queue",
        "_queued_writers",
    )

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.read_waits: Optional[RunningMean] = None
        self.write_waits: Optional[RunningMean] = None
        self.telemetry = None
        self.on_change: Optional[Callable[[float], None]] = None
        #: Interned commands — yield these instead of allocating an
        #: ``Acquire`` per lock round trip.
        self.acquire_read = Acquire(self, READ)
        self.acquire_write = Acquire(self, WRITE)
        self._readers: Set[Process] = set()
        self._writer: Optional[Process] = None
        #: The wait queue: the empty tuple until the first contended
        #: request replaces it with a deque.
        self._queue: Union[Tuple[()], Deque[LockRequest]] = ()
        #: Number of W requests currently in :attr:`_queue`, maintained
        #: on enqueue/dequeue so :meth:`writer_waiting` is O(1).
        self._queued_writers: int = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def readers(self) -> frozenset:
        """Processes currently holding the lock in R mode."""
        return frozenset(self._readers)

    @property
    def writer(self) -> Optional[Process]:
        """The process holding the lock in W mode, if any."""
        return self._writer

    @property
    def queue_length(self) -> int:
        """Number of requests waiting in the queue."""
        return len(self._queue)

    def holds(self, process: Process) -> Optional[str]:
        """Return ``READ``/``WRITE`` if ``process`` holds the lock, else None."""
        if self._writer is process:
            return WRITE
        if process in self._readers:
            return READ
        return None

    def writer_waiting(self) -> bool:
        """True if any W request is queued (an O(1) counter read)."""
        return self._queued_writers > 0

    # ------------------------------------------------------------------
    # Request / release protocol
    # ------------------------------------------------------------------
    def request(self, sim: Simulator, process: Process, mode: str) -> bool:
        """Request the lock for ``process``.

        Returns True and grants immediately when the lock is free for
        ``mode`` and nobody is queued ahead; otherwise enqueues the request
        and returns False.  Queued processes are resumed by ``release``
        with their queueing delay as the sent value.  Every grant adds
        its wait to the mode's accumulator slot: ``mean += (wait - mean)
        / n``, :meth:`RunningMean.add <repro.des.stats.RunningMean.add>`
        inlined.
        """
        readers = self._readers
        if self._writer is process or process in readers:
            raise LockProtocolError(
                f"{process.name} already holds lock {self.name!r}; "
                "re-entrant locking is not part of the protocol"
            )
        tel = self.telemetry
        if not self._queue and self._writer is None \
                and (mode == READ or not readers):
            # The uncontended grant, inlined: the common case of every
            # descent.  ``_admit`` serves the queued grants.
            if mode == READ:
                readers.add(process)
                if tel is not None:
                    tel.held_read += 1
                    tel.grants_read += 1
                waits = self.read_waits
            else:
                if self.on_change is not None:
                    self.on_change(sim.now)
                self._writer = process
                if tel is not None:
                    tel.held_write += 1
                    tel.grants_write += 1
                waits = self.write_waits
            if waits is not None:
                waits.n = n = waits.n + 1
                waits.running += (0.0 - waits.running) / n
            return True
        if self.on_change is not None:
            self.on_change(sim.now)
        queue = self._queue
        if queue.__class__ is tuple:
            queue = self._queue = deque()
        queue.append(LockRequest(process, mode, sim.now))
        if mode == WRITE:
            self._queued_writers += 1
        if tel is not None:
            tel.queued += 1
        return False

    def release(self, sim: Simulator) -> None:
        """Release the hold of the process ``sim`` is stepping
        (:attr:`Simulator.current <repro.des.engine.Simulator.current>`)
        and hand the lock to queued waiters.

        A release never blocks, so it is a plain call from the process
        body rather than a command.  Raises :class:`LockProtocolError`
        if that process does not hold the lock, or if no process is
        being stepped.
        """
        process = sim.current
        tel = self.telemetry
        if self._writer is process:
            if process is None:
                raise LockProtocolError(
                    f"lock {self.name!r} released outside a process step")
            if self.on_change is not None:
                self.on_change(sim.now)
            self._writer = None
            if tel is not None:
                tel.held_write -= 1
        elif process in self._readers:
            self._readers.remove(process)
            if tel is not None:
                tel.held_read -= 1
        elif process is None:
            raise LockProtocolError(
                f"lock {self.name!r} released outside a process step")
        else:
            raise LockProtocolError(
                f"{process.name} released lock {self.name!r} without holding it"
            )
        if self._queue:
            self._dispatch(sim)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _admit(self, process: Process, mode: str) -> None:
        tel = self.telemetry
        if mode == READ:
            self._readers.add(process)
            if tel is not None:
                tel.held_read += 1
                tel.grants_read += 1
        else:
            self._writer = process
            if tel is not None:
                tel.held_write += 1
                tel.grants_write += 1

    def _dispatch(self, sim: Simulator) -> None:
        """Grant the longest compatible prefix of the wait queue."""
        queue = self._queue
        tel = self.telemetry
        now = sim.now
        if self.on_change is not None:
            self.on_change(now)
        while queue:
            head = queue[0]
            mode = head.mode
            if self._writer is not None or (mode == WRITE and self._readers):
                break
            queue.popleft()
            if mode == WRITE:
                self._queued_writers -= 1
            if tel is not None:
                tel.queued -= 1
            self._admit(head.process, mode)
            wait = now - head.requested_at
            waits = self.read_waits if mode == READ else self.write_waits
            if waits is not None:
                waits.n = n = waits.n + 1
                waits.running += (wait - waits.running) / n
            sim.resume(head.process, wait)
            if mode == WRITE:
                # An exclusive grant blocks everything behind it.
                break

    def reset(self) -> None:
        """Return the lock to the idle, unbound state of a new lock.

        Clears the holders and the wait queue (dropping the deque), and
        empties the wait accumulator, telemetry and ``on_change`` slots,
        so a run that ended with the lock held or queued can hand it to
        the next run.
        """
        self._readers.clear()
        self._writer = None
        self._queue = ()
        self._queued_writers = 0
        self.read_waits = self.write_waits = None
        self.telemetry = self.on_change = None

    def retire(self) -> None:
        """Drop the interned commands once the lock is no longer used.

        They refer back to the lock, so until then only the cyclic
        garbage collector can free it; a retired lock is freed as soon
        as its last reference goes.
        """
        self.acquire_read = self.acquire_write = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RWLock {self.name!r} readers={len(self._readers)} "
            f"writer={self._writer is not None} queued={len(self._queue)}>"
        )
