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

Acquiring and releasing are plain calls for the process the engine is
stepping: :meth:`RWLock.acquire_read` / :meth:`RWLock.acquire_write`
return what the process yields, ``0.0`` on an immediate grant and
:data:`~repro.des.process.WAIT` when the request queues, and
:meth:`RWLock.release` returns nothing.  So a lock is two small objects,
itself and the list of its R holders: it refers to nothing that refers
back to it, and reference counting frees it as soon as its last user
lets go (see ``docs/performance.md``, "Lean node locks").
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple, Union

from repro.des.engine import Simulator
from repro.des.process import READ, WAIT, WRITE, LockRequest, Process
from repro.des.stats import RunningMean
from repro.errors import LockProtocolError


class RWLock:
    """A FCFS shared/exclusive lock.

    Parameters
    ----------
    name:
        Label used in error messages (the simulator passes the node's
        ``node_id``, an int the node already holds).

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
        "_readers", "_writer", "_queue", "_queued_writers",
    )

    def __init__(self, name: object = "") -> None:
        self.name = name
        self.read_waits: Optional[RunningMean] = None
        self.write_waits: Optional[RunningMean] = None
        self.telemetry = None
        self.on_change: Optional[Callable[[float], None]] = None
        #: The R holders in grant order: a list, not a set, because it
        #: is smaller and readers release roughly in grant order, so
        #: ``remove`` finds them near the front.
        self._readers: List[Process] = []
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
    def acquire_read(self, sim: Simulator) -> object:
        """Request the lock in R mode for the process ``sim`` is
        stepping; yield the result.

        Returns ``0.0`` — a zero hold — and grants at once when no
        writer holds the lock and nobody is queued; otherwise queues the
        request and returns :data:`~repro.des.process.WAIT`, and
        :meth:`release` resumes the process with its queueing delay once
        the lock is granted.  Every grant adds its wait to
        :attr:`read_waits`: ``mean += (wait - mean) / n``,
        :meth:`RunningMean.add <repro.des.stats.RunningMean.add>`
        inlined.  Raises :class:`LockProtocolError` outside a process
        step or if the process already holds the lock.
        """
        process = sim.current
        readers = self._readers
        if process is None or self._writer is process or process in readers:
            self._refuse(process)
        if not self._queue and self._writer is None:
            # The uncontended grant, inlined: the common case of every
            # descent.  ``_admit`` serves the queued grants.
            readers.append(process)
            tel = self.telemetry
            if tel is not None:
                tel.held_read += 1
                tel.grants_read += 1
            waits = self.read_waits
            if waits is not None:
                waits.n = n = waits.n + 1
                waits.running += (0.0 - waits.running) / n
            return 0.0
        return self._enqueue(sim, process, READ)

    def acquire_write(self, sim: Simulator) -> object:
        """Request the lock in W mode for the process ``sim`` is
        stepping; yield the result.

        As :meth:`acquire_read`, but the grant is immediate only when
        the lock is free and nobody is queued, and its wait goes to
        :attr:`write_waits`.
        """
        process = sim.current
        readers = self._readers
        if process is None or self._writer is process or process in readers:
            self._refuse(process)
        if not self._queue and self._writer is None and not readers:
            if self.on_change is not None:
                self.on_change(sim.now)
            self._writer = process
            tel = self.telemetry
            if tel is not None:
                tel.held_write += 1
                tel.grants_write += 1
            waits = self.write_waits
            if waits is not None:
                waits.n = n = waits.n + 1
                waits.running += (0.0 - waits.running) / n
            return 0.0
        return self._enqueue(sim, process, WRITE)

    def release(self, sim: Simulator) -> None:
        """Release the hold of the process ``sim`` is stepping
        (:attr:`Simulator.current <repro.des.engine.Simulator.current>`)
        and hand the lock to queued waiters.

        A release never blocks, so there is nothing to yield.  Raises
        :class:`LockProtocolError` if that process does not hold the
        lock, or if no process is being stepped.
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
        elif process is None:
            raise LockProtocolError(
                f"lock {self.name!r} released outside a process step")
        else:
            try:
                self._readers.remove(process)
            except ValueError:
                raise LockProtocolError(
                    f"{process.name} released lock {self.name!r} "
                    "without holding it") from None
            if tel is not None:
                tel.held_read -= 1
        if self._queue:
            self._dispatch(sim)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _refuse(self, process: Optional[Process]) -> None:
        """Raise for an acquire outside a process step or by a holder."""
        if process is None:
            raise LockProtocolError(
                f"lock {self.name!r} acquired outside a process step")
        raise LockProtocolError(
            f"{process.name} already holds lock {self.name!r}; "
            "re-entrant locking is not part of the protocol")

    def _enqueue(self, sim: Simulator, process: Process, mode: str) -> object:
        """Queue a request that cannot be granted now; returns
        :data:`~repro.des.process.WAIT`."""
        if self.on_change is not None:
            self.on_change(sim.now)
        queue = self._queue
        if queue.__class__ is tuple:
            queue = self._queue = deque()
        queue.append(LockRequest(process, mode, sim.now))
        if mode == WRITE:
            self._queued_writers += 1
        if self.telemetry is not None:
            self.telemetry.queued += 1
        return WAIT

    def _admit(self, process: Process, mode: str) -> None:
        tel = self.telemetry
        if mode == READ:
            self._readers.append(process)
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RWLock {self.name!r} readers={len(self._readers)} "
            f"writer={self._writer is not None} queued={len(self._queue)}>"
        )
