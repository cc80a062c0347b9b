"""Outcome records for a resilient batch.

A resilient sweep never aborts: it ends with partial results plus an
account of what went wrong.  :class:`BatchReport` is that account —
the in-order results list (``None`` where a task was quarantined),
the final :class:`FailureRecord` per quarantined task, and the event
totals (retries, timeouts, pool rebuilds, cache corruptions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

#: ``FailureRecord.error`` value for a parent-side deadline expiry.
ERROR_TIMEOUT = "TaskTimeout"
#: ``FailureRecord.error`` value for a worker that died mid-task.
ERROR_WORKER_DIED = "WorkerDied"


@dataclass(frozen=True)
class FailureRecord:
    """The final failure state of one task."""

    index: int
    key: Optional[str]
    #: Exception class name, or :data:`ERROR_TIMEOUT` /
    #: :data:`ERROR_WORKER_DIED` for executor-level failures.
    error: str
    message: str
    attempts: int

    def describe(self) -> str:
        return (f"task {self.index} ({self.key or 'unkeyed'}): "
                f"{self.error} after {self.attempts} attempt(s) — "
                f"{self.message}")


@dataclass
class BatchReport:
    """Everything a resilient :func:`~repro.parallel.run_batch_report`
    run produced."""

    #: Results in task order; ``None`` marks a quarantined task.
    results: List[Optional[object]]
    failures: List[FailureRecord] = field(default_factory=list)
    #: Total retry attempts scheduled (any cause).
    retries: int = 0
    #: Parent-side deadline expiries observed.
    timeouts: int = 0
    #: Process pools torn down and rebuilt (worker death or timeout).
    pool_rebuilds: int = 0
    #: Cache entries detected corrupt and recomputed.
    cache_corruptions: int = 0

    @property
    def quarantined_indices(self) -> List[int]:
        return [record.index for record in self.failures]

    @property
    def succeeded(self) -> int:
        return sum(1 for result in self.results if result is not None)

    @property
    def ok(self) -> bool:
        """True when every task produced a result."""
        return not self.failures

    def summary(self) -> str:
        """One human line for logs and the CLI."""
        n = len(self.results)
        parts = [f"{self.succeeded}/{n} tasks succeeded"]
        if self.retries:
            parts.append(f"{self.retries} retries")
        if self.timeouts:
            parts.append(f"{self.timeouts} timeouts")
        if self.pool_rebuilds:
            parts.append(f"{self.pool_rebuilds} pool rebuilds")
        if self.cache_corruptions:
            parts.append(f"{self.cache_corruptions} corrupt cache "
                         f"entries recomputed")
        if self.failures:
            parts.append("quarantined: " + ", ".join(
                str(record.index) for record in self.failures))
        return "; ".join(parts)
