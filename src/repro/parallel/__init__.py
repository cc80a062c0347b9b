"""Parallel sweep execution with on-disk result caching.

Every run in this repository is a pure function of its configuration
(plus, for closed runs, the multiprogramming level, and for telemetry
runs, the telemetry options), whether it is a simulation run, a
telemetry run, a cluster run or the shape of a run's starting tree
(the five task kinds of :class:`SimTask` that simulate), and so is a
capacity search of the model (the sixth kind), which buys two things at
once:

* **fan-out** — a run's whole ``(config, seed)`` grid can run on a
  process pool (:func:`run_batch`, ``jobs=N``) with bit-identical
  results to the serial path;
* **memoization** — completed results persist in an on-disk cache
  (:class:`ResultCache`; ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``),
  so regenerating a figure at the same scale skips every
  already-computed point.

Every setting is an explicit argument: :func:`run_batch` defaults to
serial, uncached, silent and fail-fast, and a ``figures`` run hands all
of its figures' tasks to one :func:`run_batch` call (see
``docs/performance.md``).  With a
:class:`~repro.resilience.ResilienceOptions` passed in, batches retry,
preempt stalled tasks and quarantine instead of aborting on the first
failure; :func:`run_batch_report` returns the full
:class:`~repro.resilience.BatchReport` (``docs/robustness.md``).
"""

from repro.parallel.cache import (
    CODE_SALT,
    CacheStats,
    ResultCache,
    config_key,
    default_cache_dir,
)
from repro.parallel.executor import (
    SimTask,
    execute_task,
    replication_tasks,
    result_type,
    run_batch,
    run_batch_report,
    task_key,
)

__all__ = [
    "CODE_SALT",
    "CacheStats",
    "ResultCache",
    "SimTask",
    "config_key",
    "default_cache_dir",
    "execute_task",
    "replication_tasks",
    "result_type",
    "run_batch",
    "run_batch_report",
    "task_key",
]
