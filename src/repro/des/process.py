"""Process abstraction and the two things a process may yield.

A simulation *process* is a plain Python generator.  It advances the model
by yielding one of two values to the engine:

* ``yield duration`` — a non-negative ``float``: let simulated time pass
  (the process is doing timed work, e.g. searching a node or waiting for
  a disk read).  A zero hold continues within the same step and sends
  ``0.0`` back.  Any other number — an ``int``, a ``bool`` — is an
  unsupported command.
* ``yield WAIT`` — park: the process is not rescheduled until something
  resumes it (:meth:`Simulator.resume
  <repro.des.engine.Simulator.resume>`) with the value to send back.

Locks are plain calls around those two.  ``yield
lock.acquire_read(sim)`` / ``yield lock.acquire_write(sim)`` requests
``lock`` in ``READ`` or ``WRITE`` mode for :attr:`Simulator.current
<repro.des.engine.Simulator.current>`, the process the engine is
stepping: an immediate grant returns ``0.0``, a zero hold; otherwise the
request is queued and the call returns :data:`WAIT`, and the lock resumes
the process once it is granted.  Either way the value sent back into the
generator is the time spent waiting in the lock queue.  Releasing never
blocks, so ``lock.release(sim)`` yields nothing; it wakes any queued
waiters that become grantable at the current simulation time.
"""

from __future__ import annotations

import itertools
from typing import Generator

from repro.errors import ProcessError

#: Shared lock mode (the paper's "R lock").
READ = "R"
#: Exclusive lock mode (the paper's "W lock").
WRITE = "W"


class _Wait:
    """The type of :data:`WAIT`: one instance, told apart by identity."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "WAIT"


#: Yielded to park the process until something resumes it; what a lock
#: acquire that had to queue returns.
WAIT = _Wait()

_process_ids = itertools.count(1)


class Process:
    """A running simulation process wrapping a generator.

    Parameters
    ----------
    generator:
        The generator driving the process.  It must yield float holds
        and :data:`WAIT` only.
    name:
        Optional human-readable label used in error messages.
    """

    __slots__ = ("pid", "name", "generator", "done", "on_done")

    def __init__(self, generator: Generator, name: str = "") -> None:
        if not hasattr(generator, "send"):
            raise ProcessError(
                f"process body must be a generator, got {type(generator).__name__}"
            )
        self.pid: int = next(_process_ids)
        self.name: str = name or f"proc-{self.pid}"
        self.generator = generator
        self.done: bool = False
        #: Optional callback ``fn(process)`` invoked when the process ends.
        self.on_done = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else "running"
        return f"<Process {self.name} pid={self.pid} {state}>"


class LockRequest:
    """A pending request sitting in an :class:`~repro.des.rwlock.RWLock`
    queue.

    A plain slotted class (not a dataclass): one is allocated per
    *contended* request, which is exactly the saturation regime the
    kernel must stay cheap in.
    """

    __slots__ = ("process", "mode", "requested_at")

    def __init__(self, process: Process, mode: str,
                 requested_at: float) -> None:
        self.process = process
        self.mode = mode
        self.requested_at = requested_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LockRequest(process={self.process!r}, mode={self.mode!r}, "
                f"requested_at={self.requested_at!r})")
