"""Failure policy for resilient sweep execution.

:class:`RetryPolicy` bounds how often a failed task is retried and how
long to back off between attempts (exponential with deterministic
jitter — the jitter derives from the task identity and attempt number,
never from global randomness, so a rerun schedules identically).

:class:`ResilienceOptions` bundles everything
:func:`repro.parallel.run_batch` needs to survive a hostile sweep:
the retry policy, the parent-side per-task wall deadline and the fault
plan under test.  The batch's event totals go to its
:class:`~repro.resilience.BatchReport`.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.resilience.faults import FaultPlan


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    A task is attempted at most ``1 + max_retries`` times; the delay
    before retry ``attempt`` (1-based) is::

        min(backoff_base * backoff_factor ** (attempt - 1), backoff_cap)
            * (1 + jitter * u)

    where ``u`` in [0, 1) is a hash of ``(token, attempt)`` — stable
    across reruns, decorrelated across tasks.
    """

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap: float = 2.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ConfigurationError("backoff times must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1], got {self.jitter}")

    def delay_for(self, attempt: int, token: str = "") -> float:
        """Seconds to wait before retry ``attempt`` (1 = first retry)."""
        if attempt < 1:
            return 0.0
        base = min(self.backoff_base * self.backoff_factor ** (attempt - 1),
                   self.backoff_cap)
        digest = hashlib.sha256(
            f"{token}:{attempt}".encode("utf-8")).digest()
        u = int.from_bytes(digest[:8], "big") / 2 ** 64
        return base * (1.0 + self.jitter * u)


@dataclass(frozen=True)
class ResilienceOptions:
    """How :func:`~repro.parallel.run_batch` should weather failures.

    ``task_timeout`` is the parent-side wall deadline for one *running*
    attempt, enforced at any ``jobs``: with a timeout set, the batch
    runs its tasks in worker processes the parent can terminate.
    """

    retry: RetryPolicy = RetryPolicy()
    task_timeout: Optional[float] = None
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.task_timeout is not None and not (
                isinstance(self.task_timeout, (int, float))
                and math.isfinite(self.task_timeout)
                and self.task_timeout > 0):
            raise ConfigurationError(
                f"task_timeout must be a positive finite number of "
                f"seconds, got {self.task_timeout!r}")
