"""Deterministic fault injection for the resilience test harness.

A :class:`FaultPlan` is a picklable set of :class:`FaultSpec`\\ s that
name *where* (a task index in the batch, or a shard) and *when* (which
retry attempts, or which simulated window) a failure fires.  The plan
travels to worker processes inside the submitted call, so it works
under any multiprocessing start method, and it round-trips through the
``REPRO_FAULTS`` environment variable so the CI smoke job can drive a
stock ``btree-perf`` sweep through the same failures.

Fault kinds
-----------

``kill-worker``
    The worker process hosting the task exits hard (``os._exit``),
    which breaks the whole ``ProcessPoolExecutor`` — the harshest
    failure the executor must absorb.  Inline (``jobs<=1``) runs raise
    :class:`~repro.errors.InjectedFaultError` instead, so the calling
    process survives.
``stall-task``
    The worker sleeps ``seconds`` before running the task, simulating a
    hang the simulator's population cap cannot see; only the
    executor's parent-side ``task_timeout`` can clear it.
``corrupt-cache-entry``
    The task's on-disk cache entry is overwritten with a payload whose
    checksum cannot verify, exercising the corrupt-entry-degrades-to-
    miss path inside a real sweep.

Simulation-time fault kinds
---------------------------

The kinds above strike the *sweep harness* (worker processes, cache
files).  The cluster tier (:mod:`repro.cluster`) adds faults that
strike the *simulated system* at simulated times — ``task_index``
names the target **shard** and ``at``/``duration`` open a window on the
simulation clock:

``shard-crash``
    The whole shard (primary and replicas) is down during
    ``[at, at + duration)``; in-flight and arriving operations fail
    (or retry, under a retry policy).  After recovery the shard
    replays its backlog: service times are inflated by ``factor``
    for a catch-up window of the same length (the Section 7 recovery
    analogy — writes behave like lock-retaining recovery writes).
``slow-shard``
    Brownout of the shard's *primary* server: its service times are
    dilated by ``factor`` during the window (replicas keep serving
    reads at nominal speed, which is what makes hedged reads win).
``replica-lag``
    The shard's replica servers serve reads ``factor`` times slower
    during the window (stale/lagging followers).

All faults are deterministic: they key off task index / shard, attempt
number and simulated time, never off wall-clock timing or randomness.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import ConfigurationError, InjectedFaultError

#: Fault kinds that strike the sweep harness.
KILL_WORKER = "kill-worker"
STALL_TASK = "stall-task"
CORRUPT_CACHE = "corrupt-cache-entry"
#: Simulation-time fault kinds (the cluster tier's chaos vocabulary).
SHARD_CRASH = "shard-crash"
SLOW_SHARD = "slow-shard"
REPLICA_LAG = "replica-lag"

#: Kinds that strike the simulated cluster rather than the harness.
SIMULATION_KINDS = (SHARD_CRASH, SLOW_SHARD, REPLICA_LAG)

_KINDS = (KILL_WORKER, STALL_TASK, CORRUPT_CACHE) + SIMULATION_KINDS

#: Defaults for the optional encoded fields (omitted when defaulted).
_DEFAULT_SECONDS = 30.0
_DEFAULT_AT = 0.0
_DEFAULT_DURATION = 100.0
_DEFAULT_FACTOR = 2.0

#: Environment variable carrying an encoded plan into CLI runs.
FAULTS_ENV = "REPRO_FAULTS"

#: Exit status of a worker killed by the harness.  Nothing reads it:
#: the executor attributes a broken pool by what it had in flight.
KILL_EXIT_CODE = 87


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic failure.

    ``attempts`` lists the retry-attempt numbers (0 = first try) on
    which the fault fires; ``None`` means every attempt — the shape of
    a *persistent* fault that retries cannot clear, where the default
    ``(0,)`` models a *transient* one.  For the simulation-time kinds
    (:data:`SIMULATION_KINDS`) ``task_index`` names the target *shard*
    and ``at``/``duration`` bound the fault window on the simulation
    clock; attempts do not apply.
    """

    kind: str
    task_index: Optional[int] = None
    attempts: Optional[Tuple[int, ...]] = (0,)
    #: Stall duration (``stall-task`` only).
    seconds: float = _DEFAULT_SECONDS
    #: Simulated start time of the fault window (simulation kinds).
    at: float = _DEFAULT_AT
    #: Simulated length of the fault window (simulation kinds).
    duration: float = _DEFAULT_DURATION
    #: Service-time multiplier: brownout / replica-lag dilation, or the
    #: post-crash catch-up replay inflation (simulation kinds).
    factor: float = _DEFAULT_FACTOR

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{', '.join(_KINDS)}")
        if self.kind in (KILL_WORKER, STALL_TASK, CORRUPT_CACHE) \
                and self.task_index is None:
            raise ConfigurationError(
                f"{self.kind} faults need a task_index")
        if self.kind in SIMULATION_KINDS and self.task_index is None:
            raise ConfigurationError(
                f"{self.kind} faults need a task_index naming the shard")
        if self.task_index is not None and self.task_index < 0:
            raise ConfigurationError(
                f"fault task index must be >= 0, got {self.task_index}")
        if self.attempts is not None and any(a < 0 for a in self.attempts):
            raise ConfigurationError(
                f"fault attempts must be >= 0, got {self.attempts}")
        # NaN passes every range check below, so finiteness comes first.
        for what, value in (("stall seconds", self.seconds),
                            ("fault start time", self.at),
                            ("fault duration", self.duration),
                            ("fault factor", self.factor)):
            if not math.isfinite(value):
                raise ConfigurationError(
                    f"{what} must be finite, got {value}")
        if self.seconds < 0:
            raise ConfigurationError(
                f"stall seconds must be >= 0, got {self.seconds}")
        if self.at < 0:
            raise ConfigurationError(
                f"fault start time must be >= 0, got {self.at}")
        if self.duration <= 0:
            raise ConfigurationError(
                f"fault duration must be > 0, got {self.duration}")
        if self.factor < 1.0:
            raise ConfigurationError(
                f"fault factor is a dilation >= 1, got {self.factor}")

    def fires_on(self, attempt: int) -> bool:
        return self.attempts is None or attempt in self.attempts

    @property
    def shard(self) -> int:
        """Target shard of a simulation-time fault (= ``task_index``)."""
        if self.kind not in SIMULATION_KINDS or self.task_index is None:
            raise ConfigurationError(
                f"{self.kind} faults do not target a shard")
        return self.task_index

    @property
    def window_end(self) -> float:
        """End of the fault window: ``at + duration``."""
        return self.at + self.duration

    def encode(self) -> str:
        """``kind@index#attempts~seconds!at%factor`` (omitting defaulted
        parts).  ``~`` carries the fault's window length: the stall
        seconds for ``stall-task``, the window duration for the
        simulation kinds."""
        parts = [self.kind]
        if self.task_index is not None:
            parts.append(f"@{self.task_index}")
        if self.attempts is None:
            parts.append("#*")
        elif self.attempts != (0,):
            parts.append("#" + "+".join(str(a) for a in self.attempts))
        if self.kind == STALL_TASK and self.seconds != _DEFAULT_SECONDS:
            parts.append(f"~{self.seconds:g}")
        if self.kind in SIMULATION_KINDS:
            if self.duration != _DEFAULT_DURATION:
                parts.append(f"~{self.duration:g}")
            if self.at != _DEFAULT_AT:
                parts.append(f"!{self.at:g}")
            if self.factor != _DEFAULT_FACTOR:
                parts.append(f"%{self.factor:g}")
        return "".join(parts)


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, picklable collection of :class:`FaultSpec`\\ s."""

    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __bool__(self) -> bool:
        return bool(self.specs)

    def worker_faults(self, index: int, attempt: int) -> Tuple[FaultSpec, ...]:
        """Kill/stall faults that fire for task ``index`` at ``attempt``."""
        return tuple(s for s in self.specs
                     if s.kind in (KILL_WORKER, STALL_TASK)
                     and s.task_index == index and s.fires_on(attempt))

    def cache_faults(self, index: int) -> Tuple[FaultSpec, ...]:
        """Cache-corruption faults targeting task ``index``."""
        return tuple(s for s in self.specs
                     if s.kind == CORRUPT_CACHE and s.task_index == index)

    def simulation_faults(self, kind: Optional[str] = None,
                          shard: Optional[int] = None,
                          ) -> Tuple[FaultSpec, ...]:
        """Simulation-time faults, sorted by window start.

        Optionally filtered to one ``kind`` and/or one target ``shard``;
        the cluster simulator consumes these (:mod:`repro.cluster`).
        """
        specs = [s for s in self.specs if s.kind in SIMULATION_KINDS
                 and (kind is None or s.kind == kind)
                 and (shard is None or s.task_index == shard)]
        specs.sort(key=lambda s: (s.at, s.task_index or 0))
        return tuple(specs)

    def encode(self) -> str:
        """Round-trippable text form for :data:`FAULTS_ENV`."""
        return ";".join(spec.encode() for spec in self.specs)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Inverse of :meth:`encode`; raises
        :class:`~repro.errors.ConfigurationError` on malformed specs."""
        specs = []
        for chunk in filter(None, (p.strip() for p in text.split(";"))):
            specs.append(_parse_spec(chunk))
        return cls(specs=tuple(specs))


def _parse_spec(chunk: str) -> FaultSpec:
    # Markers are stripped in reverse order of FaultSpec.encode so each
    # partition's tail is exactly one field's text.
    original = chunk
    factor = _DEFAULT_FACTOR
    if "%" in chunk:
        chunk, _, factor_text = chunk.partition("%")
        factor = _parse_float(factor_text, original, "factor")
    at = _DEFAULT_AT
    if "!" in chunk:
        chunk, _, at_text = chunk.partition("!")
        at = _parse_float(at_text, original, "start time")
    window = None
    if "~" in chunk:
        chunk, _, window_text = chunk.partition("~")
        window = _parse_float(window_text, original, "duration")
    attempts: Optional[Tuple[int, ...]] = (0,)
    if "#" in chunk:
        chunk, _, attempts_text = chunk.partition("#")
        if attempts_text == "*":
            attempts = None
        else:
            attempts = tuple(_parse_int(a, original, "attempt")
                             for a in attempts_text.split("+"))
    index: Optional[int] = None
    if "@" in chunk:
        chunk, _, index_text = chunk.partition("@")
        index = _parse_int(index_text, original, "task index")
    # ``~`` carries seconds for stall-task, the window duration for the
    # simulation-time kinds (the kind is only known now).
    seconds = _DEFAULT_SECONDS
    duration = _DEFAULT_DURATION
    if window is not None:
        if chunk in SIMULATION_KINDS:
            duration = window
        else:
            seconds = window
    try:
        return FaultSpec(kind=chunk, task_index=index, attempts=attempts,
                         seconds=seconds, at=at,
                         duration=duration, factor=factor)
    except ConfigurationError as error:
        raise ConfigurationError(
            f"fault spec {original!r}: {error}") from None


def _parse_int(text: str, original: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigurationError(
            f"bad {what} in fault spec {original!r}") from None


def _parse_float(text: str, original: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigurationError(
            f"bad {what} in fault spec {original!r}") from None


def plan_from_env() -> Optional[FaultPlan]:
    """The plan encoded in ``$REPRO_FAULTS``, or None when unset/empty."""
    text = os.environ.get(FAULTS_ENV, "").strip()
    if not text:
        return None
    return FaultPlan.parse(text)


# ----------------------------------------------------------------------
# Worker-side application (kill / stall)
# ----------------------------------------------------------------------
def apply_worker_faults(specs: Tuple[FaultSpec, ...]) -> None:
    """Fire ``specs`` inside the process about to run the task.

    Stalls run before kills so a combined spec list stalls-then-dies.
    In a worker process a kill is a real ``os._exit`` (the parent sees
    ``BrokenProcessPool``); inline it raises
    :class:`~repro.errors.InjectedFaultError` instead.
    """
    for spec in specs:
        if spec.kind == STALL_TASK and spec.seconds > 0:
            time.sleep(spec.seconds)
    for spec in specs:
        if spec.kind == KILL_WORKER:
            # A pool worker has multiprocessing loaded already; importing
            # it here keeps it out of a serial run.
            import multiprocessing
            if multiprocessing.parent_process() is not None:
                os._exit(KILL_EXIT_CODE)
            raise InjectedFaultError(
                f"kill-worker fault fired inline for task "
                f"{spec.task_index}")


# ----------------------------------------------------------------------
# Cache corruption
# ----------------------------------------------------------------------
def corrupt_cache_entry(cache, key: str) -> bool:
    """Overwrite ``key``'s stored payload so its checksum cannot verify.

    Keeps the entry's header magic intact so the *checksum*, not the
    format sniffing, is what catches it.  Returns False when the entry
    does not exist (nothing to corrupt).
    """
    path = cache.path_for(key)
    try:
        blob = path.read_bytes()
    except OSError:
        return False
    if not blob:
        return False
    # Flip the final payload byte; header (if any) stays valid.
    path.write_bytes(blob[:-1] + bytes([blob[-1] ^ 0xFF]))
    return True
