"""Process abstraction and the commands a process may yield.

A simulation *process* is a plain Python generator.  It advances the model
by yielding command objects to the engine:

* ``yield Hold(duration)`` — let simulated time pass (the process is doing
  timed work, e.g. searching a node or waiting for a disk read).  On the
  hot path a process may equivalently yield the **bare float** duration;
  the engine treats a float exactly like ``Hold(float)`` but without
  allocating a command object.
* ``yield Acquire(lock, mode)`` — request ``lock`` in ``READ`` or ``WRITE``
  mode; the process is resumed when the lock is granted.  The value sent
  back into the generator is the time spent waiting in the lock queue.
* ``yield Release(lock)`` — release ``lock`` (held by the yielding
  process).  Releasing never blocks; the engine performs it synchronously
  and immediately resumes the process, waking any queued waiters that
  become grantable at the current simulation time.

Commands carry a class-level integer :attr:`kind` tag
(:data:`KIND_HOLD` / :data:`KIND_ACQUIRE` / :data:`KIND_RELEASE`) so the
engine dispatches on one integer compare instead of an ``isinstance``
chain.  ``Acquire`` and ``Release`` are immutable once built, so each
:class:`~repro.des.rwlock.RWLock` interns one instance per command
(``lock.acquire_read`` / ``lock.acquire_write`` / ``lock.release_cmd``)
and the operation generators yield those cached instances —
the steady-state command stream allocates nothing.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Generator, Optional

from repro.errors import ProcessError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checking
    from repro.des.rwlock import RWLock

#: Shared lock mode (the paper's "R lock").
READ = "R"
#: Exclusive lock mode (the paper's "W lock").
WRITE = "W"

#: Integer command tags dispatched on by the engine's step loop.
KIND_HOLD = 0
KIND_ACQUIRE = 1
KIND_RELEASE = 2

_process_ids = itertools.count(1)


class Hold:
    """Command: consume ``duration`` units of simulated time.

    Yielding the bare float ``duration`` is the allocation-free
    equivalent understood by the engine.
    """

    __slots__ = ("duration",)
    kind = KIND_HOLD

    def __init__(self, duration: float) -> None:
        if duration < 0:
            raise ProcessError(f"cannot hold for negative time {duration}")
        self.duration = duration

    def __repr__(self) -> str:
        return f"Hold(duration={self.duration!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Hold) and other.duration == self.duration

    def __hash__(self) -> int:
        return hash((Hold, self.duration))


class Release:
    """Command: release ``lock`` (held by the yielding process).

    Prefer the interned ``lock.release_cmd`` instance on hot paths.
    """

    __slots__ = ("lock",)
    kind = KIND_RELEASE

    def __init__(self, lock: "RWLock") -> None:
        self.lock = lock

    def __repr__(self) -> str:
        return f"Release(lock={self.lock!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Release) and other.lock is self.lock

    def __hash__(self) -> int:
        return hash((Release, id(self.lock)))


class Acquire:
    """Command: request ``lock`` in ``mode`` (``READ`` or ``WRITE``).

    The engine resumes the process once the lock is granted and sends the
    queueing delay (grant time minus request time) back into the generator,
    so operations can account their waiting time exactly as the paper's
    simulator does.  Prefer the interned ``lock.acquire_read`` /
    ``lock.acquire_write`` instances on hot paths.
    """

    __slots__ = ("lock", "mode")
    kind = KIND_ACQUIRE

    def __init__(self, lock: "RWLock", mode: str) -> None:
        if mode not in (READ, WRITE):
            raise ProcessError(f"unknown lock mode {mode!r}")
        self.lock = lock
        self.mode = mode

    def __repr__(self) -> str:
        return f"Acquire(lock={self.lock!r}, mode={self.mode!r})"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Acquire) and other.lock is self.lock
                and other.mode == self.mode)

    def __hash__(self) -> int:
        return hash((Acquire, id(self.lock), self.mode))


class Process:
    """A running simulation process wrapping a generator.

    Parameters
    ----------
    generator:
        The generator driving the process.  It must yield :class:`Hold`
        (or bare float) / :class:`Acquire` / :class:`Release` commands
        only.
    name:
        Optional human-readable label used in error messages.
    """

    __slots__ = ("pid", "name", "generator", "done", "started_at",
                 "finished_at", "on_done")

    def __init__(self, generator: Generator, name: str = "") -> None:
        if not hasattr(generator, "send"):
            raise ProcessError(
                f"process body must be a generator, got {type(generator).__name__}"
            )
        self.pid: int = next(_process_ids)
        self.name: str = name or f"proc-{self.pid}"
        self.generator = generator
        self.done: bool = False
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
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
