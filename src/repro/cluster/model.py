"""Analytical cluster composition: router M/G/1 + per-shard queues.

The composition layers three results:

1. **Per-shard service demands** come from the single-tree framework:
   :func:`shard_service_demands` evaluates an algorithm's per-level
   queue-network analysis at vanishing load, where the response time
   *is* the total service demand of one operation (no queueing) — so
   every Section 5 cost parameter (disk dilation, split costs, fanouts)
   flows into the cluster model unchanged.
2. **Each shard server is a multi-class M/G/1** (Pollaczek-Khinchine,
   :mod:`repro.model.mg1`): the primary serves writes plus 1/R of the
   reads, each class exponential around its demand; replicas serve
   reads only.  This serializes a shard into one queue per server — a
   deliberate approximation the cluster *simulator* is built to match
   exactly, so the model-vs-simulation comparison in ext08 validates
   the composition itself, not a coincidence of constants.
3. **The router is an M/G/1 stage with deterministic service** in front
   of the shard fan-out (``E[X^2] = t^2``).

On top sits a closed-form availability model
(:func:`predict_availability`) for ``shard-crash`` fault plans: without
retries every operation arriving inside a crash window fails; with a
:class:`~repro.cluster.policies.RouterRetryPolicy` an operation whose
remaining outage is shorter than the retry schedule's total span
(:func:`rescue_horizon`) is rescued.  The paper's rho_w = 0.5 rule of
thumb enters ext08 as a capacity search
(:class:`~repro.model.throughput.CapacitySearch` with ``target=0.5``):
the per-shard arrival rate at which the single-tree root writer
utilization crosses 0.5, i.e. where the circuit breaker's regime
begins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.cluster.policies import ClusterPolicies, RouterRetryPolicy
from repro.cluster.spec import ClusterSpec
from repro.errors import ConfigurationError
from repro.model.params import ModelConfig
from repro.model.results import DELETE, INSERT, SEARCH
from repro.resilience.faults import SHARD_CRASH, FaultPlan

#: Arrival rate standing in for "zero load" when extracting demands.
ZERO_LOAD_RATE = 1e-9

_OPS = (SEARCH, INSERT, DELETE)


def shard_service_demands(analyze: Callable, config: ModelConfig,
                          **analyzer_kwargs) -> Dict[str, float]:
    """Zero-load per-operation service demands of one shard.

    At ``ZERO_LOAD_RATE`` the queue network has no waiting, so the
    predicted response times are the pure service demands the cluster
    tier should charge per operation.
    """
    prediction = analyze(config, ZERO_LOAD_RATE, **analyzer_kwargs)
    return {op: prediction.response(op) for op in _OPS}


def rescue_horizon(retry: RouterRetryPolicy) -> float:
    """Expected total span of the retry schedule: the longest remaining
    outage a retried operation survives.

    Each of the ``max_retries`` attempts burns the connection timeout
    plus an expected backoff delay of ``min(base * factor^(k-1), cap) *
    (1 + jitter/2)`` (the jitter ``u`` is uniform on [0, 1))."""
    if not retry.enabled:
        return 0.0
    backoff = retry.backoff
    span = 0.0
    for attempt in range(1, backoff.max_retries + 1):
        base = min(backoff.backoff_base
                   * backoff.backoff_factor ** (attempt - 1),
                   backoff.backoff_cap)
        span += retry.timeout + base * (1.0 + 0.5 * backoff.jitter)
    return span


@dataclass(frozen=True)
class ClusterPrediction:
    """Analytical steady-state prediction for one cluster operating
    point (the *hottest* shard bounds every utilization)."""

    spec: ClusterSpec
    offered_rate: float
    stable: bool
    router_utilization: float
    router_wait: float
    primary_utilization: float
    replica_utilization: float
    primary_wait: float
    replica_wait: float
    #: End-to-end expected response per operation type; +inf when any
    #: stage is saturated.
    response_times: Dict[str, float]

    @property
    def mean_response(self) -> float:
        """Plain mean over the operation types (mix-weighted response
        is exposed by :func:`analyze_cluster` callers that know the
        mix; the simulator's mean is compared against
        ``response_times`` weighted by the same mix)."""
        if not self.stable:
            return math.inf
        return sum(self.response_times.values()) / len(self.response_times)

    def mixed_response(self, mix: Dict[str, float]) -> float:
        """Mix-weighted expected response (matches the simulator's
        completed-operation mean in expectation)."""
        if not self.stable:
            return math.inf
        return math.fsum(mix[op] * self.response_times[op] for op in _OPS)


def _saturated(spec: ClusterSpec, offered_rate: float, rho_router: float,
               rho_primary: float, rho_replica: float) -> ClusterPrediction:
    return ClusterPrediction(
        spec=spec, offered_rate=offered_rate, stable=False,
        router_utilization=rho_router, router_wait=math.inf,
        primary_utilization=rho_primary,
        replica_utilization=rho_replica,
        primary_wait=math.inf, replica_wait=math.inf,
        response_times={op: math.inf for op in _OPS})


def analyze_cluster(spec: ClusterSpec, offered_rate: float,
                    service_means: Dict[str, float],
                    mix: Dict[str, float],
                    router_service: float = 0.01) -> ClusterPrediction:
    """Steady-state response composition at total arrival ``offered_rate``.

    ``service_means`` / ``mix`` use the same shape as
    :class:`~repro.cluster.sim.ClusterSimConfig`, so one demand dict
    (usually from :func:`shard_service_demands`) feeds both sides of
    the model-vs-simulation comparison.
    """
    if not math.isfinite(offered_rate) or offered_rate <= 0:
        raise ConfigurationError(
            f"offered rate must be positive and finite, got {offered_rate}")
    for op in _OPS:
        if service_means.get(op, 0.0) <= 0:
            raise ConfigurationError(
                f"service mean for {op!r} must be positive")
    replicas = spec.replicas
    weight = spec.hottest_weight
    shard_rate = offered_rate * weight
    rates = {op: shard_rate * mix[op] for op in _OPS}
    read_rate = rates[SEARCH] / replicas

    # Primary: every write class plus its 1/R read share; replicas:
    # reads only.  Multi-class M/G/1 with exponential per-class service.
    rho_primary = (rates[INSERT] * service_means[INSERT]
                   + rates[DELETE] * service_means[DELETE]
                   + read_rate * service_means[SEARCH])
    rho_replica = read_rate * service_means[SEARCH]
    rho_router = offered_rate * router_service
    if rho_primary >= 1.0 or rho_replica >= 1.0 or rho_router >= 1.0:
        return _saturated(spec, offered_rate, rho_router, rho_primary,
                          rho_replica)

    # Pollaczek-Khinchine with the class-mixture second moment:
    # W = sum_c lambda_c E[X_c^2] / (2 (1 - rho)), E[X^2] = 2 m^2 for
    # the exponential classes, t^2 exactly for the constant router.
    primary_num = (rates[INSERT] * 2.0 * service_means[INSERT] ** 2
                   + rates[DELETE] * 2.0 * service_means[DELETE] ** 2
                   + read_rate * 2.0 * service_means[SEARCH] ** 2)
    primary_wait = primary_num / (2.0 * (1.0 - rho_primary))
    replica_wait = (read_rate * 2.0 * service_means[SEARCH] ** 2
                    / (2.0 * (1.0 - rho_replica)))
    router_wait = (offered_rate * router_service ** 2
                   / (2.0 * (1.0 - rho_router)))

    front = router_service + router_wait
    read_wait = (primary_wait
                 + (replicas - 1) * replica_wait) / replicas
    response_times = {
        SEARCH: front + read_wait + service_means[SEARCH],
        INSERT: front + primary_wait + service_means[INSERT],
        DELETE: front + primary_wait + service_means[DELETE],
    }
    return ClusterPrediction(
        spec=spec, offered_rate=offered_rate, stable=True,
        router_utilization=rho_router, router_wait=router_wait,
        primary_utilization=rho_primary,
        replica_utilization=rho_replica,
        primary_wait=primary_wait, replica_wait=replica_wait,
        response_times=response_times)


def predict_availability(spec: ClusterSpec, faults: FaultPlan,
                         policies: Optional[ClusterPolicies],
                         horizon: float) -> float:
    """Closed-form availability under a ``shard-crash`` fault plan.

    For each crash window on shard s (weight w_s), operations arriving
    at time t inside the window fail unless the remaining outage
    ``end - t`` fits inside the retry schedule's span
    (:func:`rescue_horizon`); Poisson arrivals make the lost fraction
    the lost *time* fraction.  ``slow-shard`` / ``replica-lag`` windows
    degrade latency, not availability, and do not appear here.  Crash
    windows on one shard are assumed non-overlapping (as
    :func:`repro.cluster.chaos.chaos_plan` guarantees).
    """
    if horizon <= 0:
        raise ConfigurationError(
            f"horizon must be positive, got {horizon}")
    span = rescue_horizon(policies.retry) if policies is not None else 0.0
    lost = 0.0
    for fault in faults.simulation_faults(kind=SHARD_CRASH):
        start = fault.at
        if start >= horizon:
            continue
        # Arrivals stop at the horizon; retries drain past it, so the
        # rescue cutoff is the true window end, not the horizon.
        failed_until = min(fault.window_end - span, horizon)
        lost += spec.weight(fault.shard) \
            * max(0.0, failed_until - start) / horizon
    return max(0.0, 1.0 - lost)
