"""Process abstraction and the commands a process may yield.

A simulation *process* is a plain Python generator.  It advances the model
by yielding one of three commands to the engine:

* ``yield duration`` — a non-negative ``float``: let simulated time pass
  (the process is doing timed work, e.g. searching a node or waiting for
  a disk read).  A zero hold continues within the same step.  Any other
  number — an ``int``, a ``bool`` — is an unsupported command.
* ``yield lock.acquire_read`` / ``yield lock.acquire_write`` — request
  ``lock`` in ``READ`` or ``WRITE`` mode; the process is resumed when the
  lock is granted.  The value sent back into the generator is the time
  spent waiting in the lock queue.
* ``yield lock.release_cmd`` — release ``lock`` (held by the yielding
  process).  Releasing never blocks; the engine performs it synchronously
  and immediately resumes the process, waking any queued waiters that
  become grantable at the current simulation time.

:class:`Acquire` and :class:`Release` are the classes of those lock
commands.  Each :class:`~repro.des.rwlock.RWLock` interns one instance
per command, the engine dispatches on the command's class, and the
operation generators yield the cached instances — the steady-state
command stream allocates nothing.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Generator

from repro.errors import ProcessError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checking
    from repro.des.rwlock import RWLock

#: Shared lock mode (the paper's "R lock").
READ = "R"
#: Exclusive lock mode (the paper's "W lock").
WRITE = "W"

_process_ids = itertools.count(1)


class Release:
    """Command: release ``lock`` (held by the yielding process)."""

    __slots__ = ("lock",)

    def __init__(self, lock: "RWLock") -> None:
        self.lock = lock

    def __repr__(self) -> str:
        return f"Release(lock={self.lock!r})"


class Acquire:
    """Command: request ``lock`` in ``mode`` (``READ`` or ``WRITE``).

    The engine resumes the process once the lock is granted and sends the
    queueing delay (grant time minus request time) back into the generator,
    so operations can account their waiting time exactly as the paper's
    simulator does.
    """

    __slots__ = ("lock", "mode")

    def __init__(self, lock: "RWLock", mode: str) -> None:
        if mode not in (READ, WRITE):
            raise ProcessError(f"unknown lock mode {mode!r}")
        self.lock = lock
        self.mode = mode

    def __repr__(self) -> str:
        return f"Acquire(lock={self.lock!r}, mode={self.mode!r})"


class Process:
    """A running simulation process wrapping a generator.

    Parameters
    ----------
    generator:
        The generator driving the process.  It must yield float holds
        and its locks' interned commands only.
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
