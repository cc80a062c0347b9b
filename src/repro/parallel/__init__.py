"""Parallel sweep execution with on-disk result caching.

Every simulation run in this repository is a pure function of its
:class:`~repro.simulator.config.SimulationConfig` (plus, for closed
runs, the multiprogramming level), which buys two things at once:

* **fan-out** — a figure's whole ``(rate, seed)`` grid can run on a
  process pool (:func:`run_batch`, ``jobs=N``) with bit-identical
  results to the serial path;
* **memoization** — completed results persist in an on-disk cache
  (:class:`ResultCache`; ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``),
  so regenerating a figure at the same scale skips every
  already-computed point.

The :func:`execution` context manager installs ambient ``jobs``/
``cache``/``resilience`` defaults so the CLI can switch the entire
experiment layer with one ``with`` block; see ``docs/performance.md``
and ``docs/robustness.md``.  With a
:class:`~repro.resilience.ResilienceOptions` installed, batches retry,
preempt stalled tasks and quarantine instead of aborting on the first
failure; :func:`run_batch_report` returns the full
:class:`~repro.resilience.BatchReport`.
"""

from repro.parallel.cache import (
    CODE_SALT,
    CacheStats,
    ResultCache,
    config_key,
    default_cache_dir,
)
from repro.parallel.context import (
    ExecutionContext,
    current_context,
    execution,
)
from repro.parallel.executor import (
    SimTask,
    execute_task,
    replication_grid,
    replication_tasks,
    run_batch,
    run_batch_report,
    task_key,
)

__all__ = [
    "CODE_SALT",
    "CacheStats",
    "ExecutionContext",
    "ResultCache",
    "SimTask",
    "config_key",
    "current_context",
    "default_cache_dir",
    "execute_task",
    "execution",
    "replication_grid",
    "replication_tasks",
    "run_batch",
    "run_batch_report",
    "task_key",
]
