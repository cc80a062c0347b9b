"""Fault-injection tests: the sweep stack under hostile conditions.

Every fault here is deterministic (keyed off task index + attempt), and
the executor charges a worker death by what it had in flight, never by
which process the pool reaps first.  So these tests exercise real
worker deaths, stalls and cache corruption with outcomes that do not
depend on timing; the worker-death tests repeat one batch to show it.
The CI fault-smoke job repeats the transient worker-kill case end to
end, through ``$REPRO_FAULTS``.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses

import pytest

from repro.errors import InjectedFaultError
from repro.parallel import (
    CacheStats,
    ResultCache,
    SimTask,
    execute_task,
    run_batch,
    run_batch_report,
)
from repro.resilience import (
    ERROR_TIMEOUT,
    ERROR_WORKER_DIED,
    FAULTS_ENV,
    FaultPlan,
    FaultSpec,
    KILL_WORKER,
    STALL_TASK,
    CORRUPT_CACHE,
    ResilienceOptions,
    RetryPolicy,
)
from repro.simulator.config import SimulationConfig

#: Fast options shared by the pool tests.
_FAST_RETRY = RetryPolicy(max_retries=1, backoff_base=0.01,
                          backoff_cap=0.05, jitter=0.0)


def _quick(**overrides) -> SimulationConfig:
    defaults = dict(algorithm="naive-lock-coupling", arrival_rate=0.15,
                    n_items=2_000, n_operations=150, warmup_operations=20,
                    seed=7)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def _tasks(n: int, start_seed: int = 100):
    return [SimTask(_quick(seed=start_seed + i)) for i in range(n)]


def _fingerprints(results):
    return [repr(dataclasses.asdict(r)) if r is not None else None
            for r in results]


# ----------------------------------------------------------------------
# Worker death (satellite: run_batch must survive BrokenProcessPool)
# ----------------------------------------------------------------------
class TestWorkerDeath:

    def test_transient_kill_retries_and_completes(self):
        plan = FaultPlan(specs=(
            FaultSpec(kind=KILL_WORKER, task_index=1),))  # first try only
        report = run_batch_report(
            _tasks(4), jobs=2,
            resilience=ResilienceOptions(retry=_FAST_RETRY, faults=plan))
        assert report.ok
        assert report.succeeded == 4
        assert report.retries == 1
        assert report.pool_rebuilds >= 1
        # Bit-identical to an undisturbed serial run.
        clean = run_batch(_tasks(4), jobs=1)
        assert _fingerprints(report.results) == _fingerprints(clean)

    def test_persistent_kill_quarantines_only_the_culprit(self):
        plan = FaultPlan(specs=(
            FaultSpec(kind=KILL_WORKER, task_index=2, attempts=None),))
        report = run_batch_report(
            _tasks(6), jobs=3,
            resilience=ResilienceOptions(retry=_FAST_RETRY, faults=plan))
        assert report.quarantined_indices == [2]
        assert report.succeeded == 5
        [failure] = report.failures
        assert failure.error == ERROR_WORKER_DIED
        assert failure.attempts == 2  # initial try + one retry

    @pytest.mark.parametrize("rep", range(10))
    def test_transient_kill_charged_once_every_time(self, rep):
        # Attribution must not depend on which worker the pool reaps
        # first, so the same batch charges exactly one retry every run.
        plan = FaultPlan(specs=(
            FaultSpec(kind=KILL_WORKER, task_index=1),))
        report = run_batch_report(
            _tasks(4), jobs=2,
            resilience=ResilienceOptions(retry=_FAST_RETRY, faults=plan))
        assert report.ok, report.summary()
        assert report.retries == 1, report.summary()

    def test_two_persistent_kills_in_one_round_spare_bystanders(self):
        # Tasks 1 and 2 die in the same four-worker round, so the first
        # break cannot name a culprit; running the suspects one at a
        # time must quarantine exactly those two and charge no one else.
        plan = FaultPlan(specs=(
            FaultSpec(kind=KILL_WORKER, task_index=1, attempts=None),
            FaultSpec(kind=KILL_WORKER, task_index=2, attempts=None),))
        report = run_batch_report(
            _tasks(8), jobs=4,
            resilience=ResilienceOptions(retry=_FAST_RETRY, faults=plan))
        assert report.quarantined_indices == [1, 2], report.summary()
        assert [f.attempts for f in report.failures] == [2, 2]
        assert {f.error for f in report.failures} == {ERROR_WORKER_DIED}
        # One retry each for the two culprits; a charged bystander
        # would add more.
        assert report.retries == 2, report.summary()
        clean = run_batch(_tasks(8), jobs=1)
        expected = _fingerprints(clean)
        expected[1] = expected[2] = None
        assert _fingerprints(report.results) == expected

    def test_pool_broken_before_next_submit_is_absorbed(self, monkeypatch):
        # Force the race where the pool breaks between the parent's last
        # wait and its next submit: each submit first waits on every
        # future this pool already returned, so task 0's kill breaks
        # the pool before task 1 is submitted.  The executor imports the
        # pool class from concurrent.futures each round, so that is the
        # name to patch.
        pools = []

        class WaitingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.returned = []
                pools.append(self)

            def submit(self, *args, **kwargs):
                concurrent.futures.wait(self.returned, timeout=60)
                future = super().submit(*args, **kwargs)
                self.returned.append(future)
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            WaitingPool)
        plan = FaultPlan(specs=(
            FaultSpec(kind=KILL_WORKER, task_index=0),))
        report = run_batch_report(
            _tasks(3), jobs=2,
            resilience=ResilienceOptions(retry=_FAST_RETRY, faults=plan))
        assert report.ok, report.summary()
        assert report.retries == 1, report.summary()
        # The break rebuilt the pool, and every round used the patch.
        assert len(pools) == report.pool_rebuilds + 1 >= 2
        clean = run_batch(_tasks(3), jobs=1)
        assert _fingerprints(report.results) == _fingerprints(clean)

    def test_inline_kill_raises_injected_fault_not_exit(self):
        # jobs=1 must not take the test process down with it.
        plan = FaultPlan(specs=(
            FaultSpec(kind=KILL_WORKER, task_index=0, attempts=None),))
        report = run_batch_report(
            _tasks(2), jobs=1,
            resilience=ResilienceOptions(retry=_FAST_RETRY, faults=plan))
        assert report.quarantined_indices == [0]
        assert report.failures[0].error == InjectedFaultError.__name__
        assert report.results[1] is not None

    def test_legacy_run_batch_returns_partial_results(self):
        # The historical API, under a failure policy, yields None slots
        # instead of aborting the whole sweep.
        plan = FaultPlan(specs=(
            FaultSpec(kind=KILL_WORKER, task_index=0, attempts=None),))
        results = run_batch(
            _tasks(3), jobs=2,
            resilience=ResilienceOptions(retry=_FAST_RETRY, faults=plan))
        assert results[0] is None
        assert all(r is not None for r in results[1:])


# ----------------------------------------------------------------------
# Stalls and deadlines
# ----------------------------------------------------------------------
class TestStallsAndDeadlines:

    def test_transient_stall_cleared_by_timeout_then_succeeds(self):
        plan = FaultPlan(specs=(
            FaultSpec(kind=STALL_TASK, task_index=1, seconds=10.0),))
        report = run_batch_report(
            _tasks(3), jobs=2,
            resilience=ResilienceOptions(retry=_FAST_RETRY,
                                         task_timeout=1.0, faults=plan))
        assert report.ok
        assert report.timeouts == 1
        assert report.pool_rebuilds >= 1

    def test_persistent_stall_quarantined(self):
        plan = FaultPlan(specs=(
            FaultSpec(kind=STALL_TASK, task_index=0, attempts=None,
                      seconds=10.0),))
        # At jobs=1 the deadline still holds: the batch runs in a
        # one-worker pool rather than stalling the parent.
        for jobs in (1, 2):
            report = run_batch_report(
                _tasks(3), jobs=jobs,
                resilience=ResilienceOptions(retry=RetryPolicy(
                    max_retries=0), task_timeout=0.75, faults=plan))
            assert report.timeouts == 1, jobs
            assert report.quarantined_indices == [0], jobs
            assert report.failures[0].error == ERROR_TIMEOUT
            assert report.succeeded == 2


# ----------------------------------------------------------------------
# Cache corruption inside a sweep
# ----------------------------------------------------------------------
class TestCacheCorruptionFault:

    def test_corrupt_entry_recomputed_not_crashed(self, tmp_path):
        cache = ResultCache(tmp_path)
        tasks = _tasks(3)
        warm = run_batch(tasks, jobs=1, cache=cache)
        plan = FaultPlan(specs=(
            FaultSpec(kind=CORRUPT_CACHE, task_index=1),))
        report = run_batch_report(
            tasks, jobs=1, cache=cache,
            resilience=ResilienceOptions(faults=plan))
        assert report.ok
        assert report.cache_corruptions == 1
        assert _fingerprints(report.results) == _fingerprints(warm)
        # The recomputed entry was re-stored and now verifies.
        clean = run_batch_report(tasks, jobs=1, cache=cache,
                                 resilience=ResilienceOptions())
        assert clean.cache_corruptions == 0


# ----------------------------------------------------------------------
# Resume under faults: the result cache checkpoints finished points
# ----------------------------------------------------------------------
class TestCheckpointResume:

    def test_interrupted_sweep_resumes_without_recomputing(self, tmp_path):
        cache = ResultCache(tmp_path)
        tasks = _tasks(5)
        plan = FaultPlan(specs=(
            FaultSpec(kind=KILL_WORKER, task_index=3, attempts=None),))
        first = run_batch_report(
            tasks, jobs=2, cache=cache,
            resilience=ResilienceOptions(retry=RetryPolicy(max_retries=0),
                                         faults=plan))
        assert first.quarantined_indices == [3]

        # Rerun fault-free: the finished points come from the cache and
        # only the quarantined one runs again.
        cache.stats = CacheStats()
        second = run_batch_report(tasks, jobs=2, cache=cache,
                                  resilience=ResilienceOptions())
        assert second.ok
        assert (cache.stats.hits, cache.stats.misses) == (4, 1)
        clean = run_batch(tasks, jobs=1)
        assert _fingerprints(second.results) == _fingerprints(clean)

    def test_resumed_results_not_re_cached_from_scratch(self, tmp_path):
        cache = ResultCache(tmp_path)
        tasks = _tasks(3)
        run_batch_report(tasks, jobs=1, cache=cache,
                         resilience=ResilienceOptions())
        cache.stats = CacheStats()
        report = run_batch_report(tasks, jobs=1, cache=cache,
                                  resilience=ResilienceOptions())
        assert report.ok
        assert (cache.stats.hits, cache.stats.stores) == (3, 0)


# ----------------------------------------------------------------------
# Environment-driven plans (the CI smoke path)
# ----------------------------------------------------------------------
class TestEnvDrivenFaults:

    def test_env_plan_activates_resilient_batch(self, monkeypatch):
        plan = FaultPlan(specs=(
            FaultSpec(kind=KILL_WORKER, task_index=0, attempts=None),))
        monkeypatch.setenv(FAULTS_ENV, plan.encode())
        # No explicit resilience options anywhere: the env plan alone
        # must switch run_batch to the resilient path instead of
        # crashing the sweep.
        results = run_batch(_tasks(3), jobs=2)
        assert results[0] is None
        assert all(r is not None for r in results[1:])

    def test_figure_run_carries_resilience(self):
        # fig03 at this scale is one seed per rate: task 1 is the whole
        # rate-0.1 point, so its quarantine leaves that point undefined
        # (NaN, not the +inf of a saturated point) while the figure
        # still finishes.
        import math

        from repro.report import get_figure
        plan = FaultPlan(specs=(
            FaultSpec(kind=KILL_WORKER, task_index=1, attempts=None),))
        options = ResilienceOptions(retry=_FAST_RETRY, faults=plan)
        table = get_figure("fig03").run(scale=0.01, jobs=2,
                                        resilience=options)
        sims = table.column("sim_insert_response")
        assert len(sims) == 7
        assert math.isnan(sims[1])
        assert all(math.isfinite(sim) for sim in sims[:1] + sims[2:])

    def test_ext08_finishes_with_a_quarantined_cluster_run(self):
        # ext08's tasks are (fragile, resilient) per scenario: task 1 is
        # scenario 0's resilient run, so its quarantine leaves that
        # row's resilient columns NaN and every other cell measured.
        import math

        from repro.report import get_figure
        plan = FaultPlan(specs=(
            FaultSpec(kind=KILL_WORKER, task_index=1, attempts=None),))
        options = ResilienceOptions(retry=_FAST_RETRY, faults=plan)
        table = get_figure("ext08").run(scale=0.05, jobs=2,
                                        resilience=options)
        assert len(table.rows) == 12
        first = dict(zip(table.columns, table.rows[0]))
        assert {column for column, value in first.items()
                if math.isnan(value)} == {
            "availability_resilient", "goodput_resilient", "shed_writes",
            "retries", "hedged_wins"}
        for row in table.rows[1:]:
            measured = dict(zip(table.columns, row))
            del measured["sim_response"]  # NaN on every faulted row
            assert not any(math.isnan(value)
                           for value in measured.values()), row

    @pytest.mark.parametrize("figure_id,task_index,undefined", [
        # One seed per point at this scale: task 1 is a whole point.
        ("fig09", 1, {(1, "sim_crossings_per_1k_ops"), (1, "sim_ops")}),
        ("fig10", 1, {(1, "sim_rho_w_root")}),
        # Task 0 is the shape task; task 1 the first closed run.
        ("ext04", 1, {(0, "naive_throughput"),
                      (0, "naive_search_response")}),
        # Task 0 is the naive run, whose root utilization is reported.
        ("ext05", 0, {(0, "naive_insert"), (0, "naive_rho_root")}),
        ("ext06", 1, {(0, "optimistic_insert")}),
        ("ext07", 1, {(0, "optimistic_insert")}),
        # A capacity search is a task too: fig11's first, and ext04's
        # last (after its shape task and 21 closed runs), which every
        # model prediction reads.
        ("fig11", 0, {(0, "max_throughput")}),
        ("ext04", 22, {(row, "naive_model_throughput")
                       for row in range(7)}),
    ], ids=["fig09", "fig10", "ext04", "ext05", "ext06", "ext07",
            "fig11-search", "ext04-search"])
    def test_driver_finishes_with_a_quarantined_run(
            self, figure_id, task_index, undefined):
        # A quarantined run measured nothing: the figure finishes with
        # exactly that run's cells NaN (undefined, not +inf).
        import math

        from repro.report import get_figure
        plan = FaultPlan(specs=(FaultSpec(
            kind=KILL_WORKER, task_index=task_index, attempts=None),))
        options = ResilienceOptions(retry=RetryPolicy(max_retries=0),
                                    faults=plan)
        table = get_figure(figure_id).run(scale=0.01, jobs=1,
                                          resilience=options)
        cells = {(row, column): value
                 for row, values in enumerate(table.rows)
                 for column, value in zip(table.columns, values)}
        assert {cell for cell, value in cells.items()
                if math.isnan(value)} == undefined


    def test_figures_run_reports_its_losses_on_stderr(self, tmp_path,
                                                      capsys):
        from repro.report import generate_figures
        plan = FaultPlan(specs=(FaultSpec(
            kind=KILL_WORKER, task_index=1, attempts=None),))
        result = generate_figures(
            ["fig09"], scale=0.01, out_dir=tmp_path / "lossy",
            include_claims=False, resilience=ResilienceOptions(
                retry=RetryPolicy(max_retries=0), faults=plan))
        assert result.batch.quarantined_indices == [1]
        assert capsys.readouterr().err == \
            f"figures batch: {result.batch.summary()}\n"
        clean = generate_figures(
            ["fig09"], scale=0.01, out_dir=tmp_path / "clean",
            include_claims=False, resilience=ResilienceOptions())
        assert clean.batch.ok and clean.batch.retries == 0
        assert capsys.readouterr().err == ""


# ----------------------------------------------------------------------
# Acceptance: the ISSUE's 20-task hostile sweep
# ----------------------------------------------------------------------
class TestAcceptanceSweep:

    def test_twenty_task_sweep_survives_injected_faults(self, tmp_path):
        """Under kill + stall + cache-corruption faults, a 20-task sweep
        must terminate with >= 17 successes, failure records naming the
        quarantined tasks, and fingerprints identical to a clean run
        for every non-quarantined task."""
        cache = ResultCache(tmp_path / "cache")
        tasks = _tasks(20)
        # Warm one entry so the corruption fault has a target.
        run_batch([tasks[5]], jobs=1, cache=cache)

        plan = FaultPlan(specs=(
            FaultSpec(kind=KILL_WORKER, task_index=3, attempts=None),
            FaultSpec(kind=KILL_WORKER, task_index=11),        # transient
            FaultSpec(kind=STALL_TASK, task_index=7, attempts=None,
                      seconds=10.0),                           # persistent
            FaultSpec(kind=CORRUPT_CACHE, task_index=5),
        ))
        report = run_batch_report(
            tasks, jobs=4, cache=cache,
            resilience=ResilienceOptions(
                retry=_FAST_RETRY, task_timeout=1.5, faults=plan))

        # Terminates with partial results: 18/20 (persistent kill and
        # persistent stall quarantined, transient kill retried).
        assert report.succeeded == 18
        assert sorted(report.quarantined_indices) == [3, 7]
        assert report.cache_corruptions == 1

        # The failure records name the quarantined tasks and why.
        assert [f.index for f in report.failures] == [3, 7]
        errors = {failure.error for failure in report.failures}
        assert errors == {ERROR_WORKER_DIED, ERROR_TIMEOUT}

        # The report's event totals observed the events.
        assert len(report.failures) == 2
        assert report.retries >= 3
        assert report.cache_corruptions == 1

        # Every surviving result is bit-identical to a clean serial run.
        clean = run_batch(tasks, jobs=1)
        survived = _fingerprints(report.results)
        expected = _fingerprints(clean)
        for index in range(20):
            if index in (3, 7):
                assert survived[index] is None
            else:
                assert survived[index] == expected[index]


# ----------------------------------------------------------------------
# Fault-free resilient path is byte-identical (golden guarantee)
# ----------------------------------------------------------------------
class TestFaultFreeParity:

    def test_resilient_path_matches_legacy_exactly(self):
        tasks = _tasks(4)
        direct = [execute_task(task) for task in tasks]
        resilient = run_batch_report(
            tasks, jobs=2, resilience=ResilienceOptions())
        assert resilient.ok
        assert resilient.retries == 0
        assert resilient.pool_rebuilds == 0
        assert _fingerprints(resilient.results) == _fingerprints(direct)
        assert _fingerprints(run_batch(tasks, jobs=2)) == \
            _fingerprints(direct)


# ----------------------------------------------------------------------
# Property-style: arbitrary plans round-trip through $REPRO_FAULTS
# ----------------------------------------------------------------------
class TestPlanRoundTripProperty:
    """Any well-formed fault-spec sequence — including the cluster
    simulation kinds with their ``~window !at %factor`` fields — must
    survive ``encode -> $REPRO_FAULTS -> parse`` byte-identically."""

    @staticmethod
    def _random_spec(rng):
        from repro.resilience import REPLICA_LAG, SHARD_CRASH, SLOW_SHARD
        kind = rng.choice((KILL_WORKER, STALL_TASK, CORRUPT_CACHE,
                           SHARD_CRASH, SLOW_SHARD, REPLICA_LAG))
        # %g-stable floats: <= 6 significant digits survive the text form.
        def stable(lo, hi):
            return round(rng.uniform(lo, hi), 3)
        if kind == CORRUPT_CACHE:
            return FaultSpec(kind=kind, task_index=rng.randrange(16))
        if kind in (KILL_WORKER, STALL_TASK):
            attempts = rng.choice((None, (0,), (1,), (0, 2),
                                   tuple(sorted(rng.sample(range(4), 2)))))
            if kind == STALL_TASK:
                return FaultSpec(kind=kind, task_index=rng.randrange(16),
                                 attempts=attempts,
                                 seconds=stable(0.001, 5.0))
            return FaultSpec(kind=kind, task_index=rng.randrange(16),
                             attempts=attempts)
        return FaultSpec(kind=kind, task_index=rng.randrange(32),
                         at=stable(0.0, 900.0),
                         duration=stable(0.001, 900.0),
                         factor=stable(1.0, 50.0))

    @pytest.mark.parametrize("seed", range(25))
    def test_random_plan_round_trips_byte_identically(self, seed,
                                                      monkeypatch):
        import random

        from repro.resilience import plan_from_env
        rng = random.Random(seed)
        plan = FaultPlan(specs=tuple(
            self._random_spec(rng) for _ in range(rng.randrange(1, 9))))
        encoded = plan.encode()
        monkeypatch.setenv(FAULTS_ENV, encoded)
        recovered = plan_from_env()
        assert recovered == plan
        # The text form is a fixed point: re-encoding changes nothing.
        assert recovered.encode() == encoded

    def test_simulation_kinds_survive_alongside_worker_kinds(self,
                                                             monkeypatch):
        from repro.resilience import REPLICA_LAG, SHARD_CRASH, SLOW_SHARD, \
            plan_from_env
        plan = FaultPlan(specs=(
            FaultSpec(kind=SHARD_CRASH, task_index=2, at=50.0,
                      duration=40.0, factor=3.0),
            FaultSpec(kind=SLOW_SHARD, task_index=0),
            FaultSpec(kind=REPLICA_LAG, task_index=1, at=12.5,
                      duration=7.25, factor=8.0),
            FaultSpec(kind=STALL_TASK, task_index=4, seconds=12.0),
            FaultSpec(kind=KILL_WORKER, task_index=2, attempts=(0, 1)),
        ))
        monkeypatch.setenv(FAULTS_ENV, plan.encode())
        assert plan_from_env() == plan
