"""Resilient sweep execution (``repro.resilience``).

The paper's experiments live near and past saturation — the regime
where simulations can run effectively forever and fixed-point solvers
are most prone to divergence.  This package makes the sweep stack
degrade gracefully there instead of hanging or aborting.  A run that
outgrows the system stops itself at ``max_population`` and comes back
flagged ``overflowed``; everything else goes through one failure path:

* **failure policy** — :class:`RetryPolicy` +
  :class:`ResilienceOptions` drive bounded retries with exponential
  backoff and deterministic jitter inside
  :func:`repro.parallel.run_batch`; a parent-side ``task_timeout``
  preempts stalled tasks at any ``jobs``; exhausted tasks are
  quarantined and the sweep continues, with the account in a
  :class:`BatchReport`.
* **resume** — the content-keyed :class:`~repro.parallel.ResultCache`
  is the checkpoint: an interrupted run re-invoked on the same cache
  serves every point it had finished (``--no-cache`` opts out).
* **fault injection** — :class:`FaultPlan` /
  :mod:`repro.resilience.faults` deterministically kill workers, stall
  tasks and corrupt cache entries, driving the test suite and the CI
  smoke job.

See ``docs/robustness.md`` for the failure model and usage.
"""

from repro.resilience.faults import (
    CORRUPT_CACHE,
    FAULTS_ENV,
    KILL_WORKER,
    REPLICA_LAG,
    SHARD_CRASH,
    SIMULATION_KINDS,
    SLOW_SHARD,
    STALL_TASK,
    FaultPlan,
    FaultSpec,
    corrupt_cache_entry,
    plan_from_env,
)
from repro.resilience.policy import ResilienceOptions, RetryPolicy
from repro.resilience.report import (
    ERROR_TIMEOUT,
    ERROR_WORKER_DIED,
    BatchReport,
    FailureRecord,
)

__all__ = [
    "BatchReport",
    "CORRUPT_CACHE",
    "ERROR_TIMEOUT",
    "ERROR_WORKER_DIED",
    "FAULTS_ENV",
    "FailureRecord",
    "FaultPlan",
    "FaultSpec",
    "KILL_WORKER",
    "REPLICA_LAG",
    "ResilienceOptions",
    "RetryPolicy",
    "SHARD_CRASH",
    "SIMULATION_KINDS",
    "SLOW_SHARD",
    "STALL_TASK",
    "corrupt_cache_entry",
    "plan_from_env",
]
