"""Fan-out execution of independent simulation runs.

A figure sweep is a grid of independent ``(config, seed)`` points —
``run_simulation`` shares no state between runs and derives every RNG
stream from ``config.seed`` — so the grid can execute in any order, on
any number of worker processes, and still produce bit-identical
results.  A :class:`SimTask` is one such point of one of six kinds:
an open or a closed simulation run, an open run under full telemetry,
a cluster run, the shape of the tree a simulation run starts from, or
one of the model's capacity searches.
:func:`run_batch` is the single choke point all sweeps go through:

1. look every task up in the (optional) on-disk result cache;
2. run the misses — inline when serial, else on a
   ``ProcessPoolExecutor`` via the top-level picklable :func:`execute_task`;
3. store fresh results back and return them **in task order**.

``concurrent.futures`` and ``multiprocessing`` are imported only when a
batch starts a pool, so a serial run never loads them.

Determinism contract: for a fixed task list, the returned list is
identical whatever ``jobs`` is and whatever mixture of cache hits and
recomputes served it.

With a :class:`~repro.resilience.ResilienceOptions` passed in, the
batch additionally survives hostile conditions: per-task exceptions and
``BrokenProcessPool`` trigger bounded retries with exponential backoff,
exhausted tasks are quarantined (a ``None`` slot in the returned list)
instead of aborting the sweep, and stalled tasks are preempted by a
parent-side wall deadline (at any ``jobs``: a timeout runs the batch in
worker processes, one at ``jobs=1``).  :func:`run_batch_report` returns
the full :class:`~repro.resilience.BatchReport` under the same policy.
Without a policy the same loop is fail-fast: the first task exception
propagates.  Either way a fault-free batch returns the same results.

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
from dataclasses import asdict, dataclass
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
    Union,
)

from repro.errors import ConfigurationError
from repro.parallel.cache import CODE_SALT, ResultCache, config_key
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
    from repro.cluster.sim import ClusterSimConfig
    from repro.model.throughput import CapacitySearch
    from repro.obs.telemetry import TelemetryOptions

#: Task kinds understood by :func:`execute_task`.
KIND_OPEN = "open"
KIND_CLOSED = "closed"
KIND_CLUSTER = "cluster"
KIND_SHAPE = "shape"
KIND_TELEMETRY = "telemetry"
KIND_SEARCH = "search"
_KINDS = (KIND_OPEN, KIND_CLOSED, KIND_CLUSTER, KIND_SHAPE, KIND_TELEMETRY,
          KIND_SEARCH)

#: Bound on how long pool teardown may block (joining dead workers).
_TEARDOWN_GRACE = 5.0

#: Parent wait granularity while a timeout or backoff is armed.
_POLL_INTERVAL = 0.05


@dataclass(frozen=True)
class SimTask:
    """One schedulable run.

    ``kind`` selects the entry point and the result type:

    * "open" — Poisson arrivals, the paper's setting
      (:func:`~repro.simulator.driver.run_simulation`, a
      :class:`SimulationResult`);
    * "closed" — fixed multiprogramming level ``mpl``, optional
      exponential ``think_time``
      (:func:`~repro.simulator.closed.run_closed_simulation`, a
      :class:`SimulationResult`);
    * "cluster" — ``config`` is a
      :class:`~repro.cluster.sim.ClusterSimConfig`
      (:func:`~repro.cluster.sim.run_cluster_simulation`, a
      :class:`~repro.cluster.metrics.ClusterResult`);
    * "shape" — the shape of the tree the runs of ``config`` start from
      (:func:`~repro.model.validation.measured_shape`, a
      :class:`~repro.model.params.TreeShape`);
    * "telemetry" — an open run recorded under the ``telemetry``
      options (a :class:`~repro.obs.telemetry.TelemetryOptions`, which
      only this kind takes and must have), a
      :class:`~repro.obs.telemetry.RunTelemetry` whose ``result`` is
      the run's :class:`SimulationResult`;
    * "search" — ``config`` is a
      :class:`~repro.model.throughput.CapacitySearch`
      (:meth:`~repro.model.throughput.CapacitySearch.run`, a ``float``;
      ``math.inf`` when the search is unbounded).
    """

    config: Union[SimulationConfig, "ClusterSimConfig", "CapacitySearch"]
    kind: str = KIND_OPEN
    mpl: Optional[int] = None
    think_time: float = 0.0
    telemetry: Optional["TelemetryOptions"] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"unknown task kind {self.kind!r}; expected one of "
                f"{', '.join(repr(kind) for kind in _KINDS)}")
        if self.kind == KIND_SEARCH:
            from repro.model.throughput import CapacitySearch
            fits = isinstance(self.config, CapacitySearch)
        else:
            fits = (self.kind == KIND_CLUSTER) != \
                isinstance(self.config, SimulationConfig)
        if not fits:
            raise ConfigurationError(
                f"a {self.kind!r} task cannot run a "
                f"{type(self.config).__name__}")
        if self.kind == KIND_CLOSED and (self.mpl is None or self.mpl < 1):
            raise ConfigurationError(
                f"closed tasks need a multiprogramming level >= 1, "
                f"got {self.mpl!r}")
        if (self.telemetry is None) == (self.kind == KIND_TELEMETRY):
            raise ConfigurationError(
                "telemetry options go with, and only with, a "
                f"{KIND_TELEMETRY!r} task")


def result_type(kind: str) -> type:
    """The type of result a task of ``kind`` returns; a cache entry of
    any other type is never served for such a task."""
    if kind == KIND_CLUSTER:
        from repro.cluster.metrics import ClusterResult
        return ClusterResult
    if kind == KIND_SHAPE:
        from repro.model.params import TreeShape
        return TreeShape
    if kind == KIND_TELEMETRY:
        from repro.obs.telemetry import RunTelemetry
        return RunTelemetry
    if kind == KIND_SEARCH:
        return float
    return SimulationResult


def task_key(task: SimTask, salt: str = CODE_SALT) -> str:
    """The task's content key, under which the result cache stores
    the task's result."""
    if task.kind == KIND_CLOSED:
        extra = {"mpl": task.mpl, "think_time": task.think_time}
    elif task.kind == KIND_TELEMETRY:
        extra = asdict(task.telemetry)
    else:
        extra = {}
    return config_key(task.config, kind=task.kind, extra=extra, salt=salt)


def replication_tasks(config: SimulationConfig,
                      n_seeds: int) -> List[SimTask]:
    """The paper's replication scheme: seeds ``seed .. seed+n_seeds-1``."""
    return [SimTask(config.with_seed(config.seed + offset))
            for offset in range(n_seeds)]


def execute_task(task: SimTask) -> Any:
    """Run one task to completion (top-level, hence picklable: this is
    the function worker processes import and call).

    Returns the task's result (see :class:`SimTask`)."""
    # Imported here, not at module top, to keep the worker import light
    # and to avoid a cycle (driver -> parallel -> driver).
    if task.kind == KIND_CLOSED:
        from repro.simulator.closed import run_closed_simulation
        return run_closed_simulation(task.config, task.mpl,
                                     think_time=task.think_time)
    if task.kind == KIND_CLUSTER:
        from repro.cluster.sim import run_cluster_simulation
        return run_cluster_simulation(task.config)
    if task.kind == KIND_SHAPE:
        from repro.model.validation import measured_shape
        return measured_shape(task.config)
    if task.kind == KIND_SEARCH:
        return task.config.run()
    from repro.simulator.driver import run_simulation
    if task.kind == KIND_TELEMETRY:
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
              jobs: int = 1,
              cache: Optional[ResultCache] = None,
              progress: Optional[Callable[[Any], None]] = None,
              resilience: Optional[ResilienceOptions] = None,
              ) -> List[Any]:
    """Execute ``tasks`` and return their results in task order.

    The defaults are serial, uncached, silent and fail-fast.  ``jobs``
    0 or 1 runs everything inline in this process; ``jobs > 1`` fans
    cache misses out over that many worker processes; a negative
    ``jobs`` raises ConfigurationError.  ``progress`` is called once per
    result; in parallel mode the call order follows completion order,
    not task order.

    A cache entry is served only when its type is the one its task's
    kind returns (:func:`result_type`); any other entry counts as a
    corruption, is deleted and recomputed.

    Without a failure policy, the first task exception propagates and
    the tasks not yet started are cancelled.  With one — passed as
    ``resilience``, or implied by a ``$REPRO_FAULTS`` plan — the batch
    runs resiliently: failed tasks are retried then quarantined
    (``None`` in the returned list) and the sweep always terminates;
    use :func:`run_batch_report` to also get the failure records.
    """
    return run_batch_report(tasks, jobs, cache, progress,
                            resilience).results


def run_batch_report(tasks: Sequence[SimTask],
                     jobs: int = 1,
                     cache: Optional[ResultCache] = None,
                     progress: Optional[Callable[[Any], None]] = None,
                     resilience: Optional[ResilienceOptions] = None,
                     ) -> BatchReport:
    """:func:`run_batch` with the full :class:`~repro.resilience.\
BatchReport` (results, failure records, event totals), under the same
    failure policy: fail-fast unless ``resilience`` is given or a
    ``$REPRO_FAULTS`` plan implies ``ResilienceOptions()``.
    """
    if resilience is None and plan_from_env() is not None:
        # A fault plan in the environment (the CI smoke harness) gets
        # the default failure policy, else injected faults would simply
        # crash the sweep they are meant to exercise.
        resilience = ResilienceOptions()
    return _Batch(list(tasks), jobs, cache, progress, resilience).run()


class _Batch:
    """One ``run_batch`` execution (single-use).

    ``options=None`` is fail-fast: the first task exception propagates
    unchanged (``BrokenProcessPool`` included) and the pool's pending
    futures are cancelled; nothing is retried or quarantined.
    """

    def __init__(self, tasks: List[SimTask], jobs: int,
                 cache: Optional[ResultCache],
                 progress: Optional[Callable],
                 options: Optional[ResilienceOptions]) -> None:
        if jobs < 0:
            raise ConfigurationError(f"jobs must be >= 0, got {jobs}")
        self.tasks = tasks
        self.n_jobs = max(jobs, 1)  # 0 and 1 both run inline
        self.cache = cache
        self.progress = progress
        self.fail_fast = options is None
        if options is None:
            options = ResilienceOptions()
        self.options = options
        faults = options.faults if options.faults is not None \
            else plan_from_env()
        self.faults = faults if faults is not None else FaultPlan()
        salt = cache.salt if cache is not None else CODE_SALT
        self.keys = [task_key(task, salt=salt) for task in tasks]
        n = len(tasks)
        self.results: List[Any] = [None] * n
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
            key = self.keys[index]
            for _ in self.faults.cache_faults(index):
                corrupt_cache_entry(self.cache, key)
            errors_before = self.cache.stats.errors
            hit = self.cache.get(key,
                                 expect=result_type(self.tasks[index].kind))
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
        # The pool stack (multiprocessing, and with it socket and
        # subprocess) is imported where a pool starts, so a serial run
        # never loads it.
        from concurrent.futures import FIRST_COMPLETED, \
            ProcessPoolExecutor, wait
        from concurrent.futures.process import BrokenProcessPool

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
        from concurrent.futures.process import BrokenProcessPool

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
        delay = policy.delay_for(attempts, token=self.keys[index])
        self.eligible_at[index] = time.monotonic() + delay
        self.report.retries += 1
        return True

    def _record_success(self, index: int, result: Any,
                        store: bool = True) -> None:
        if store and self.cache is not None:
            self.cache.put(self.keys[index], result)
        self.results[index] = result
        self.suspects.discard(index)
        if self.progress is not None:
            self.progress(result)
