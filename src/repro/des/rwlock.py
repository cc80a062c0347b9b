"""First-come-first-served reader/writer lock.

This is the lock discipline assumed throughout the paper (Section 3.2,
"Lock types") and analysed in the appendix (the FCFS R/W queue of
Johnson's SIGMETRICS '90 paper):

* R (shared) locks may be held concurrently by any number of processes.
* W (exclusive) locks conflict with everything.
* Grants are strictly first-come, first-served: a request never overtakes
  an earlier one, so a compatible reader still waits behind a queued
  writer.

The lock keeps cheap per-lock accumulators of writer-held / writer-present
time so the simulator can report the writer utilization :math:`\\rho_w`
(paper Figure 10) without external instrumentation.  A maintained
queued-writer counter makes the writer-present check O(1) — the clock
advance on every request/release never scans the wait queue.

Each lock also interns one :class:`~repro.des.process.Acquire` per mode
and one :class:`~repro.des.process.Release` (:attr:`acquire_read` /
:attr:`acquire_write` / :attr:`release_cmd`); operation generators yield
those cached instances so the steady-state command stream allocates
nothing (see ``docs/performance.md``, "Kernel hot path").
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Set

from repro.des.engine import Simulator
from repro.des.process import (
    READ,
    WRITE,
    Acquire,
    LockRequest,
    Process,
    Release,
)
from repro.errors import LockProtocolError


class RWLock:
    """A FCFS shared/exclusive lock with queue-time accounting.

    Parameters
    ----------
    name:
        Label used in error messages (the simulator uses node ids).
    observer:
        Optional object with an ``on_wait(mode, wait)`` method, called on
        every grant with the request's queueing delay.  The concurrent
        B-tree simulator installs a per-level metrics collector here.

    The :attr:`telemetry` slot (normally None) may hold any object with
    integer ``held_read`` / ``held_write`` / ``queued`` /
    ``grants_read`` / ``grants_write`` attributes — in practice a
    :class:`~repro.obs.sampler.LevelState` shared by every lock of one
    tree level.  The lock keeps those live counts current so a periodic
    sampler can read per-level queue depth and R/W utilization without
    walking the tree.  With telemetry off the cost is a single
    attribute load + ``is None`` test per lock event.
    """

    __slots__ = (
        "name", "observer", "telemetry", "acquire_read", "acquire_write",
        "release_cmd", "_readers", "_writer", "_queue", "_queued_writers",
        "_last_change", "time_writer_held", "time_writer_present",
        "time_held_any", "grants_read", "grants_write",
    )

    def __init__(self, name: str = "", observer=None) -> None:
        self.name = name
        self.observer = observer
        self.telemetry = None
        #: Interned commands — yield these instead of allocating
        #: ``Acquire``/``Release`` objects per lock round trip.
        self.acquire_read = Acquire(self, READ)
        self.acquire_write = Acquire(self, WRITE)
        self.release_cmd = Release(self)
        self._readers: Set[Process] = set()
        self._writer: Optional[Process] = None
        self._queue: Deque[LockRequest] = deque()
        #: Number of W requests currently in :attr:`_queue`, maintained
        #: on enqueue/dequeue so :meth:`writer_waiting` and the clock
        #: advance are O(1).
        self._queued_writers: int = 0
        # Time-weighted accumulators, advanced lazily on state changes.
        self._last_change: float = 0.0
        #: Total time a writer has held the lock.
        self.time_writer_held: float = 0.0
        #: Total time a writer has been holding *or waiting* (the paper's
        #: rho_w is the probability that "a W lock is in the lock queue").
        self.time_writer_present: float = 0.0
        #: Total time the lock has been held in any mode.
        self.time_held_any: float = 0.0
        self.grants_read: int = 0
        self.grants_write: int = 0

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
        with their queueing delay as the sent value.
        """
        if self._writer is process or process in self._readers:
            raise LockProtocolError(
                f"{process.name} already holds lock {self.name!r}; "
                "re-entrant locking is not part of the protocol"
            )
        self._advance_clocks(sim.now)
        if not self._queue and self._writer is None \
                and (mode == READ or not self._readers):
            self._admit(process, mode)
            if self.observer is not None:
                self.observer.on_wait(mode, 0.0)
            return True
        self._queue.append(LockRequest(process, mode, sim.now))
        if mode == WRITE:
            self._queued_writers += 1
        tel = self.telemetry
        if tel is not None:
            tel.queued += 1
        return False

    def release(self, sim: Simulator, process: Process) -> None:
        """Release ``process``'s hold and hand the lock to queued waiters."""
        self._advance_clocks(sim.now)
        tel = self.telemetry
        if self._writer is process:
            self._writer = None
            if tel is not None:
                tel.held_write -= 1
        elif process in self._readers:
            self._readers.remove(process)
            if tel is not None:
                tel.held_read -= 1
        else:
            raise LockProtocolError(
                f"{process.name} released lock {self.name!r} without holding it"
            )
        self._dispatch(sim)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _admit(self, process: Process, mode: str) -> None:
        tel = self.telemetry
        if mode == READ:
            self._readers.add(process)
            self.grants_read += 1
            if tel is not None:
                tel.held_read += 1
                tel.grants_read += 1
        else:
            self._writer = process
            self.grants_write += 1
            if tel is not None:
                tel.held_write += 1
                tel.grants_write += 1

    def _dispatch(self, sim: Simulator) -> None:
        """Grant the longest compatible prefix of the wait queue."""
        queue = self._queue
        if not queue:
            return
        tel = self.telemetry
        observer = self.observer
        now = sim.now
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
            if observer is not None:
                observer.on_wait(mode, wait)
            sim.resume(head.process, wait)
            if mode == WRITE:
                # An exclusive grant blocks everything behind it.
                break

    def _advance_clocks(self, now: float) -> None:
        dt = now - self._last_change
        if dt > 0.0:
            if self._writer is not None:
                self.time_writer_held += dt
                self.time_writer_present += dt
                self.time_held_any += dt
            else:
                if self._queued_writers:
                    self.time_writer_present += dt
                if self._readers:
                    self.time_held_any += dt
        self._last_change = now

    def finalize(self, now: float) -> None:
        """Flush the time-weighted accumulators up to ``now``."""
        self._advance_clocks(now)

    def retire(self) -> None:
        """Drop the interned commands once the lock is no longer used.

        They refer back to the lock, so until then only the cyclic
        garbage collector can free it; a retired lock is freed as soon
        as its last reference goes.
        """
        self.acquire_read = self.acquire_write = self.release_cmd = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RWLock {self.name!r} readers={len(self._readers)} "
            f"writer={self._writer is not None} queued={len(self._queue)}>"
        )
