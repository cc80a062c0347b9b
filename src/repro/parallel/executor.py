"""Fan-out execution of independent simulation runs.

A figure sweep is a grid of independent ``(config, seed)`` points —
``run_simulation`` shares no state between runs and derives every RNG
stream from ``config.seed`` — so the grid can execute in any order, on
any number of worker processes, and still produce bit-identical
:class:`~repro.simulator.metrics.SimulationResult`\\ s.  :func:`run_batch`
is the single choke point all sweeps go through:

1. look every task up in the (optional) on-disk result cache;
2. run the misses — inline when serial, else on a
   ``ProcessPoolExecutor`` via the top-level picklable :func:`execute_task`;
3. store fresh results back and return them **in task order**.

Determinism contract: for a fixed task list, the returned list is
identical whatever ``jobs`` is and whatever mixture of cache hits and
recomputes served it.

With a :class:`~repro.resilience.ResilienceOptions` installed (argument
or ambient :func:`~repro.parallel.context.execution` context), the
batch additionally survives hostile conditions: per-task exceptions and
``BrokenProcessPool`` trigger bounded retries with exponential backoff,
exhausted tasks are quarantined (a ``None`` slot in the returned list)
instead of aborting the sweep, and stalled tasks are preempted by a
parent-side wall deadline (at any ``jobs``: a timeout runs the batch in
worker processes, one at ``jobs=1``).  :func:`run_batch_report` exposes
the full :class:`~repro.resilience.BatchReport`.  Without a policy the
same loop is fail-fast: the first task exception propagates.  Either
way a fault-free batch returns the same results.

A broken pool says that *a* worker died, not which.  With one task in
flight, that task is charged.  With several, none is: they go back to
the front of the queue as *suspects*, and while any suspect remains the
pool runs one task at a time, so the next break names its culprit.
Faults are keyed by attempt and suspects are requeued uncharged, so
this attribution does not depend on timing.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import ConfigurationError
from repro.parallel.cache import CODE_SALT, ResultCache, config_key
from repro.parallel.context import (
    resolve_cache,
    resolve_jobs,
    resolve_progress,
    resolve_resilience,
)
from repro.resilience.faults import (
    FaultPlan,
    FaultSpec,
    apply_worker_faults,
    corrupt_cache_entry,
    plan_from_env,
)
from repro.resilience.policy import ResilienceOptions
from repro.resilience.report import (
    ERROR_TIMEOUT,
    ERROR_WORKER_DIED,
    BatchReport,
    FailureRecord,
)
from repro.simulator.config import SimulationConfig
from repro.simulator.metrics import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.telemetry import RunTelemetry, TelemetryOptions

#: Task kinds understood by :func:`execute_task`.
KIND_OPEN = "open"
KIND_CLOSED = "closed"

#: Bound on how long pool teardown may block (joining dead workers).
_TEARDOWN_GRACE = 5.0

#: Parent wait granularity while a timeout or backoff is armed.
_POLL_INTERVAL = 0.05


@dataclass(frozen=True)
class SimTask:
    """One schedulable simulation run.

    ``kind`` selects the simulator entry point: "open" (Poisson
    arrivals, the paper's setting) or "closed" (fixed multiprogramming
    level ``mpl``, optional exponential ``think_time``).

    ``telemetry`` (a picklable
    :class:`~repro.obs.telemetry.TelemetryOptions`) asks the run to
    also record full run telemetry.  Telemetry runs bypass the result
    cache — the time series are the artifact, and a memoized result
    has none — and are supported for open tasks only.
    """

    config: SimulationConfig
    kind: str = KIND_OPEN
    mpl: Optional[int] = None
    think_time: float = 0.0
    telemetry: Optional["TelemetryOptions"] = None

    def __post_init__(self) -> None:
        if self.kind not in (KIND_OPEN, KIND_CLOSED):
            raise ConfigurationError(
                f"unknown task kind {self.kind!r}; expected "
                f"{KIND_OPEN!r} or {KIND_CLOSED!r}")
        if self.kind == KIND_CLOSED and (self.mpl is None or self.mpl < 1):
            raise ConfigurationError(
                f"closed tasks need a multiprogramming level >= 1, "
                f"got {self.mpl!r}")
        if self.telemetry is not None and self.kind != KIND_OPEN:
            raise ConfigurationError(
                "telemetry collection is supported for open tasks only")


def task_key(task: SimTask, salt: str = CODE_SALT) -> str:
    """The task's content key, under which the result cache stores
    the task's result."""
    extra = {} if task.kind == KIND_OPEN else \
        {"mpl": task.mpl, "think_time": task.think_time}
    return config_key(task.config, kind=task.kind, extra=extra, salt=salt)


def replication_tasks(config: SimulationConfig,
                      n_seeds: int) -> List[SimTask]:
    """The paper's replication scheme: seeds ``seed .. seed+n_seeds-1``."""
    return [SimTask(config.with_seed(config.seed + offset))
            for offset in range(n_seeds)]


def replication_grid(configs: Sequence[SimulationConfig], n_seeds: int,
                     jobs: Optional[int] = None,
                     ) -> List[List[Optional[SimulationResult]]]:
    """:func:`replication_tasks` for every config, run as one
    :func:`run_batch`; returns the per-config result lists in config
    order, each in seed order.

    The grid is submitted seed-major (every config of one seed, then
    the next seed): runs of one seed share a warm-up tree, so the
    one-tree memo of :func:`repro.btree.builder.warm_tree` grows each
    tree once.  Runs are independent, so the order changes no result.
    """
    per_config = [replication_tasks(config, n_seeds) for config in configs]
    tasks = [replicas[seed] for seed in range(n_seeds)
             for replicas in per_config]
    flat = run_batch(tasks, jobs=jobs)
    return [flat[i::len(configs)] for i in range(len(configs))]


def execute_task(task: SimTask) -> Any:
    """Run one task to completion (top-level, hence picklable: this is
    the function worker processes import and call).

    Returns the task's :class:`SimulationResult` — or, when the task
    carries telemetry options, the full
    :class:`~repro.obs.telemetry.RunTelemetry` (whose ``result`` field
    is the run's result)."""
    # Imported here, not at module top, to keep the worker import light
    # and to avoid a cycle (driver -> parallel -> driver).
    if task.kind == KIND_CLOSED:
        from repro.simulator.closed import run_closed_simulation
        return run_closed_simulation(task.config, task.mpl,
                                     think_time=task.think_time)
    from repro.simulator.driver import run_simulation
    if task.telemetry is not None:
        from repro.obs.telemetry import TelemetryRecorder
        recorder = TelemetryRecorder(task.telemetry)
        run_simulation(task.config, telemetry=recorder)
        return recorder.telemetry
    return run_simulation(task.config)


def _execute_guarded(task: SimTask,
                     fault_specs: Tuple[FaultSpec, ...]) -> Any:
    """Worker entry point of the process pool: fire the task's injected
    faults, then run it."""
    apply_worker_faults(fault_specs)
    return execute_task(task)


def run_batch(tasks: Sequence[SimTask],
              jobs: Optional[int] = None,
              cache: Optional[ResultCache] = None,
              progress: Optional[Callable[[SimulationResult], None]] = None,
              telemetry_sink: Optional[Callable[[int, "RunTelemetry"], None]]
              = None,
              resilience: Optional[ResilienceOptions] = None,
              ) -> List[Optional[SimulationResult]]:
    """Execute ``tasks`` and return their results in task order.

    ``jobs``/``cache``/``progress``/``resilience`` default to the
    ambient :class:`~repro.parallel.context.ExecutionContext` (serial,
    no cache, silent, fail-fast).  ``jobs <= 1`` runs
    everything inline in this process — byte-for-byte today's serial
    behavior; ``jobs > 1`` fans cache misses out over that many worker
    processes.  ``progress`` is called once per result; in parallel
    mode the call order follows completion order, not task order.

    Tasks carrying telemetry options always execute (never served from
    or stored into the cache); their
    :class:`~repro.obs.telemetry.RunTelemetry` is delivered through
    ``telemetry_sink(task_index, telemetry)`` while the returned list
    still holds plain results at every position.

    Without a failure policy, the first task exception propagates and
    the tasks not yet started are cancelled.  With one — installed
    explicitly, through the ambient context, or implicitly by a
    ``$REPRO_FAULTS`` plan — the batch runs resiliently: failed tasks
    are retried then quarantined (``None`` in the returned list) and
    the sweep always terminates; use :func:`run_batch_report` to also
    get the failure records.
    """
    resolved = resolve_resilience(resilience)
    if resolved is None and plan_from_env() is not None:
        # A fault plan in the environment (the CI smoke harness) gets
        # the default failure policy, else injected faults would simply
        # crash the sweep they are meant to exercise.
        resolved = ResilienceOptions()
    return _Batch(list(tasks), resolve_jobs(jobs), resolve_cache(cache),
                  resolve_progress(progress), telemetry_sink,
                  resolved).run().results


def run_batch_report(tasks: Sequence[SimTask],
                     jobs: Optional[int] = None,
                     cache: Optional[ResultCache] = None,
                     progress: Optional[Callable[[SimulationResult], None]]
                     = None,
                     telemetry_sink: Optional[
                         Callable[[int, "RunTelemetry"], None]] = None,
                     resilience: Optional[ResilienceOptions] = None,
                     ) -> BatchReport:
    """:func:`run_batch` with the full :class:`~repro.resilience.\
BatchReport` (results, failure records, event totals).

    Always runs resiliently; ``resilience`` defaults to the ambient
    context's options, else to ``ResilienceOptions()``.
    """
    resolved = resolve_resilience(resilience) or ResilienceOptions()
    return _Batch(list(tasks), resolve_jobs(jobs), resolve_cache(cache),
                  resolve_progress(progress), telemetry_sink,
                  resolved).run()


class _Batch:
    """One ``run_batch`` execution (single-use).

    ``options=None`` is fail-fast: the first task exception propagates
    unchanged (``BrokenProcessPool`` included) and the pool's pending
    futures are cancelled; nothing is retried or quarantined.
    """

    def __init__(self, tasks: List[SimTask], n_jobs: int,
                 cache: Optional[ResultCache],
                 progress: Optional[Callable],
                 telemetry_sink: Optional[Callable],
                 options: Optional[ResilienceOptions]) -> None:
        self.tasks = tasks
        self.n_jobs = n_jobs
        self.cache = cache
        self.progress = progress
        self.telemetry_sink = telemetry_sink
        self.fail_fast = options is None
        if options is None:
            options = ResilienceOptions()
        self.options = options
        faults = options.faults if options.faults is not None \
            else plan_from_env()
        self.faults = faults if faults is not None else FaultPlan()
        salt = cache.salt if cache is not None else CODE_SALT
        self.keys: List[Optional[str]] = [
            None if task.telemetry is not None else task_key(task, salt=salt)
            for task in tasks]
        n = len(tasks)
        self.results: List[Optional[SimulationResult]] = [None] * n
        #: Failed attempts charged so far, per task.
        self.failures = [0] * n
        #: Earliest monotonic time a retry may be resubmitted.
        self.eligible_at: Dict[int, float] = {}
        self.report = BatchReport(results=self.results)
        #: Tasks in flight at a pool break that was not charged to
        #: anyone; each leaves the set when it succeeds or is charged.
        self.suspects: Set[int] = set()

    # ------------------------------------------------------------------
    # Orchestration
    # ------------------------------------------------------------------
    def run(self) -> BatchReport:
        pending = self._serve_from_cache(list(range(len(self.tasks))))
        if pending:
            # Only a worker process can be preempted, so a deadline
            # needs the pool even at one job; a lone fail-fast task
            # gains nothing from one.
            if self.options.task_timeout is None and (
                    self.n_jobs <= 1
                    or (self.fail_fast and len(pending) == 1)):
                self._run_inline(pending)
            else:
                self._run_pool(pending)
        self.report.failures.sort(key=lambda record: record.index)
        return self.report

    def _serve_from_cache(self, pending: List[int]) -> List[int]:
        if self.cache is None:
            return pending
        missed: List[int] = []
        for index in pending:
            if self.tasks[index].telemetry is not None:
                missed.append(index)
                continue
            key = self.keys[index]
            for _ in self.faults.cache_faults(index):
                corrupt_cache_entry(self.cache, key)
            errors_before = self.cache.stats.errors
            hit = self.cache.get(key)
            if self.cache.stats.errors > errors_before:
                self.report.cache_corruptions += 1
            if hit is None:
                missed.append(index)
            else:
                self._record_success(index, hit, store=False)
        return missed

    # ------------------------------------------------------------------
    # Inline (jobs <= 1)
    # ------------------------------------------------------------------
    def _run_inline(self, pending: List[int]) -> None:
        for index in pending:
            while True:
                attempt = self.failures[index]
                specs = self.faults.worker_faults(index, attempt)
                try:
                    apply_worker_faults(specs)
                    outcome = execute_task(self.tasks[index])
                except Exception as error:
                    if self.fail_fast:
                        raise
                    if self._charge(index, type(error).__name__,
                                    str(error)):
                        time.sleep(self._remaining_backoff(index))
                        continue
                    break
                self._record_success(index, outcome)
                break

    # ------------------------------------------------------------------
    # Process pool (jobs >= 2, or any jobs with a task timeout)
    # ------------------------------------------------------------------
    def _run_pool(self, pending: List[int]) -> None:
        queue: deque = deque(pending)
        while queue:
            if self._pool_round(queue):
                self.report.pool_rebuilds += 1

    def _pool_round(self, queue: deque) -> bool:
        """Run one pool until the queue drains or the pool must be
        rebuilt (worker death / expired deadline).  Returns True when a
        rebuild is needed; unfinished tasks are already requeued."""
        workers = min(self.n_jobs, max(len(queue), 1))
        pool = ProcessPoolExecutor(max_workers=workers)
        futures: Dict[Any, int] = {}
        running_since: Dict[int, float] = {}
        torn_down = False
        try:
            while queue or futures:
                self._submit_eligible(pool, queue, futures, workers)
                if not futures:
                    # Everything left is backing off; nap until the
                    # soonest task becomes eligible again.
                    now = time.monotonic()
                    soonest = min((self.eligible_at.get(i, now)
                                   for i in queue), default=now)
                    time.sleep(min(max(soonest - now, 0.0),
                                   _POLL_INTERVAL * 10))
                    continue
                poll = _POLL_INTERVAL \
                    if (self.options.task_timeout is not None or queue) \
                    else None
                done, _ = wait(set(futures), timeout=poll,
                               return_when=FIRST_COMPLETED)
                for future, index in futures.items():
                    if future not in done and index not in running_since \
                            and future.running():
                        running_since[index] = time.monotonic()
                broken = None
                for future in done:
                    index = futures.pop(future)
                    running_since.pop(index, None)
                    try:
                        outcome = future.result()
                    except BrokenProcessPool as error:
                        futures[future] = index  # in flight at the break
                        broken = error
                    except Exception as error:
                        if self.fail_fast:
                            raise
                        if self._charge(index, type(error).__name__,
                                        str(error)):
                            queue.append(index)
                    else:
                        self._record_success(index, outcome)
                if broken is not None:
                    raise broken
                if self._expire_deadlines(pool, futures, running_since,
                                          queue):
                    torn_down = True
                    return True
            return False
        except BrokenProcessPool:
            # From a future or from ``pool.submit``: either way the
            # tasks left in ``futures`` were in flight when it broke.
            if self.fail_fast:
                raise
            self._handle_broken(pool, futures, queue)
            torn_down = True
            return True
        finally:
            if not torn_down:
                pool.shutdown(wait=True, cancel_futures=True)

    def _submit_eligible(self, pool, queue: deque,
                         futures: Dict[Any, int], workers: int) -> None:
        """Submit eligible tasks, at most one per worker: the pool marks
        a future running as soon as it is queued for a worker, so a task
        waiting behind a busy one would otherwise start its deadline
        clock early.  While a suspect remains, at most one in all.

        A ``BrokenProcessPool`` from ``pool.submit`` propagates, with
        the unsubmitted task back at the front of the queue."""
        limit = 1 if self.suspects else workers
        now = time.monotonic()
        for _ in range(len(queue)):
            if len(futures) >= limit:
                return
            index = queue.popleft()
            if self.eligible_at.get(index, 0.0) > now:
                queue.append(index)  # still backing off; rotate
                continue
            specs = self.faults.worker_faults(index, self.failures[index])
            try:
                future = pool.submit(_execute_guarded, self.tasks[index],
                                     specs)
            except BrokenProcessPool:
                queue.appendleft(index)
                raise
            futures[future] = index

    def _expire_deadlines(self, pool, futures: Dict[Any, int],
                          running_since: Dict[int, float],
                          queue: deque) -> bool:
        """Charge tasks running past ``task_timeout``; on any expiry the
        pool (which cannot preempt a worker) is torn down and rebuilt,
        requeueing the innocent in-flight tasks uncharged."""
        timeout = self.options.task_timeout
        if timeout is None:
            return False
        now = time.monotonic()
        expired = {index for index, started in running_since.items()
                   if now - started >= timeout}
        if not expired:
            return False
        for index in sorted(expired):
            self.report.timeouts += 1
            if self._charge(index, ERROR_TIMEOUT,
                            f"ran past the {timeout:g}s task deadline"):
                queue.append(index)
        for future, index in futures.items():
            future.cancel()
            if index not in expired:
                queue.append(index)
        self._teardown(pool)
        return True

    def _handle_broken(self, pool, futures: Dict[Any, int],
                       queue: deque) -> None:
        """A worker died.  A lone task in flight is charged; several
        are all requeued uncharged, at the front, as suspects."""
        self._teardown(pool)
        in_flight = sorted(futures.values())
        if len(in_flight) == 1:
            if self._charge(in_flight[0], ERROR_WORKER_DIED,
                            "worker process died while running "
                            "this task (process pool broken)"):
                queue.append(in_flight[0])
        else:
            self.suspects.update(in_flight)
            queue.extendleft(reversed(in_flight))

    def _teardown(self, pool) -> None:
        """Stop ``pool`` without waiting for its tasks: terminate its
        workers (a stalled one never returns), then join them for at
        most :data:`_TEARDOWN_GRACE` seconds."""
        procs = list((getattr(pool, "_processes", None) or {}).values())
        for proc in procs:
            try:
                proc.terminate()
            except Exception:  # already dead / already reaped
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - defensive
            pass
        deadline = time.monotonic() + _TEARDOWN_GRACE
        for proc in procs:
            try:
                proc.join(timeout=max(0.0, deadline - time.monotonic()))
            except Exception:  # pragma: no cover - defensive
                pass

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _remaining_backoff(self, index: int) -> float:
        return max(0.0, self.eligible_at.get(index, 0.0) - time.monotonic())

    def _charge(self, index: int, error: str, message: str) -> bool:
        """Record one failed attempt; True when the task may retry."""
        self.suspects.discard(index)
        self.failures[index] += 1
        attempts = self.failures[index]
        policy = self.options.retry
        if attempts > policy.max_retries:
            record = FailureRecord(
                index=index, key=self.keys[index], error=error,
                message=message, attempts=attempts)
            self.report.failures.append(record)
            return False
        delay = policy.delay_for(attempts,
                                 token=self.keys[index] or f"task-{index}")
        self.eligible_at[index] = time.monotonic() + delay
        self.report.retries += 1
        return True

    def _record_success(self, index: int, outcome: Any,
                        store: bool = True) -> None:
        if self.tasks[index].telemetry is not None:
            result = outcome.result
            if self.telemetry_sink is not None:
                self.telemetry_sink(index, outcome)
        else:
            result = outcome
            if store and self.cache is not None:
                self.cache.put(self.keys[index], result)
        self.results[index] = result
        self.suspects.discard(index)
        if self.progress is not None:
            self.progress(result)
