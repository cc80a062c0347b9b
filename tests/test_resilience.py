"""Unit tests for the repro.resilience building blocks."""

from __future__ import annotations

import math
import re

import pytest

from repro.errors import ConfigurationError
from repro.resilience import (
    BatchReport,
    FailureRecord,
    FaultPlan,
    FaultSpec,
    KILL_WORKER,
    STALL_TASK,
    CORRUPT_CACHE,
    ResilienceOptions,
    RetryPolicy,
)


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------
class TestFaultPlan:

    def test_encode_parse_round_trip(self):
        plan = FaultPlan(specs=(
            FaultSpec(kind=KILL_WORKER, task_index=3, attempts=None),
            FaultSpec(kind=STALL_TASK, task_index=7, seconds=0.5),
            FaultSpec(kind=CORRUPT_CACHE, task_index=2),
            FaultSpec(kind=KILL_WORKER, task_index=1, attempts=(0, 2)),
        ))
        assert FaultPlan.parse(plan.encode()) == plan

    def test_env_round_trip(self, monkeypatch):
        from repro.resilience import FAULTS_ENV, plan_from_env
        plan = FaultPlan(specs=(
            FaultSpec(kind=KILL_WORKER, task_index=0, attempts=None),))
        monkeypatch.setenv(FAULTS_ENV, plan.encode())
        assert plan_from_env() == plan
        monkeypatch.setenv(FAULTS_ENV, "")
        assert plan_from_env() is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="set-on-fire", task_index=0)
        with pytest.raises(ConfigurationError):
            FaultPlan.parse("kill-worker")  # needs a task index
        with pytest.raises(ConfigurationError):
            # Solver NaN faults are not a plan kind: the environment
            # cannot arm them.
            FaultPlan.parse("inject-nanx-1")

    @pytest.mark.parametrize("text", [
        "kill-worker@-1",          # no task has a negative index
        "kill-worker@0#-1",        # nor a negative attempt
        "kill-worker@0#0+-2",
        "stall-task@0~nan",        # NaN passes every range check
        "stall-task@0~inf",
        "shard-crash@0!nan",
        "shard-crash@0~inf",
        "slow-shard@0%nan",
        "replica-lag@0%inf",
    ])
    def test_spec_that_can_never_fire_is_refused(self, text):
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"fault spec {text!r}")):
            FaultPlan.parse(text)

    def test_attempt_selection(self):
        transient = FaultSpec(kind=KILL_WORKER, task_index=0)
        persistent = FaultSpec(kind=KILL_WORKER, task_index=0,
                               attempts=None)
        assert transient.fires_on(0) and not transient.fires_on(1)
        assert persistent.fires_on(0) and persistent.fires_on(5)
        plan = FaultPlan(specs=(transient,))
        assert plan.worker_faults(0, 0) == (transient,)
        assert plan.worker_faults(0, 1) == ()
        assert plan.worker_faults(1, 0) == ()


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
class TestRetryPolicy:

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                             backoff_cap=0.3, jitter=0.0)
        delays = [policy.delay_for(a) for a in (1, 2, 3, 4)]
        assert delays[0] == pytest.approx(0.1)
        assert delays[1] == pytest.approx(0.2)
        assert delays[2] == pytest.approx(0.3)  # capped
        assert delays[3] == pytest.approx(0.3)

    def test_jitter_is_deterministic_per_token(self):
        policy = RetryPolicy(backoff_base=0.1, jitter=0.5)
        a = policy.delay_for(1, token="alpha")
        b = policy.delay_for(1, token="beta")
        assert a == policy.delay_for(1, token="alpha")
        assert a != b  # different tokens spread out

    def test_options_validation(self):
        with pytest.raises(ConfigurationError):
            ResilienceOptions(task_timeout=0.0)
        with pytest.raises(ConfigurationError):
            ResilienceOptions(task_timeout=math.nan)
        ResilienceOptions(task_timeout=0.5)


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
class TestBatchReport:

    def test_summary_mentions_quarantine(self):
        report = BatchReport(results=[object(), None])
        report.failures.append(FailureRecord(
            index=1, key="k", error="Boom", message="m", attempts=3))
        report.retries = 2
        assert report.succeeded == 1
        assert not report.ok
        assert report.quarantined_indices == [1]
        text = report.summary()
        assert "1/2 tasks succeeded" in text
        assert "quarantined: 1" in text

    def test_clean_report_is_ok(self):
        report = BatchReport(results=[object()])
        assert report.ok
        assert report.summary() == "1/1 tasks succeeded"
