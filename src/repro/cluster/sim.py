"""Event-driven cluster simulator: router, shards, replicas, chaos.

The simulator advances one event heap over the whole cluster.  Each
shard is a set of FIFO servers (server 0 = primary taking every write
plus its share of reads; servers 1..R-1 = read replicas) whose service
times are exponential around the *zero-load demands of the single-tree
analytical model* (:func:`repro.cluster.model.shard_service_demands`) —
the per-level queue network supplies what a shard costs, the cluster
tier supplies how shards queue, fail and recover.  The router is a
FIFO stage with constant service time in front of everything.

Chaos arrives as simulation-time faults from the deterministic fault
harness (:meth:`repro.resilience.faults.FaultPlan.simulation_faults`):

* ``shard-crash`` — the whole shard is down during the window;
  operations reaching it fail, or retry under a
  :class:`~repro.cluster.policies.RouterRetryPolicy`; after recovery
  the shard replays its backlog at ``factor``-inflated service for a
  catch-up window of the same length.
* ``slow-shard`` — the primary's service dilates by ``factor`` (the
  brownout hedged reads are designed to survive).
* ``replica-lag`` — replica service dilates by ``factor``.

Everything is deterministic given the seed: one ``random.Random``
drives arrivals, op types, keys and service draws in event order; retry
jitter hashes the operation id (via
:meth:`repro.resilience.RetryPolicy.delay_for`); heap ties break on a
monotone sequence number.  Two runs with the same config are
byte-identical, which the chaos-smoke CI job asserts end to end.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Dict, List, Tuple

from repro.cluster.metrics import ClusterResult, ShardStats
from repro.cluster.policies import ClusterPolicies, get_policies
from repro.cluster.spec import ClusterSpec
from repro.errors import ConfigurationError
from repro.model.results import DELETE, INSERT, SEARCH
from repro.resilience.faults import (
    REPLICA_LAG,
    SHARD_CRASH,
    SLOW_SHARD,
    FaultPlan,
)

#: Event kinds, in dispatch order for equal timestamps.
_ARRIVAL = 0
_DISPATCH = 1
_HEDGE = 2

#: Default router service time (sim units): a hash-and-forward stage,
#: far cheaper than a tree operation (one root search = 1 unit).
ROUTER_SERVICE = 0.01


@dataclass(frozen=True)
class ClusterSimConfig:
    """One cluster run: topology, policies, load, demands, chaos."""

    spec: ClusterSpec
    #: Total (cluster-wide) Poisson arrival rate.
    arrival_rate: float
    #: Mean service demand per operation type (``search`` / ``insert``
    #: / ``delete``), normally the single-tree model's zero-load
    #: response times.
    service_means: Dict[str, float]
    #: Operation-type probabilities (``search``/``insert``/``delete``).
    mix: Dict[str, float]
    policies: ClusterPolicies = field(
        default_factory=lambda: get_policies("resilient"))
    router_service: float = ROUTER_SERVICE
    horizon: float = 2_000.0
    seed: int = 1
    faults: FaultPlan = field(default_factory=FaultPlan)

    def __post_init__(self) -> None:
        if not math.isfinite(self.arrival_rate) or self.arrival_rate <= 0:
            raise ConfigurationError(
                f"arrival rate must be positive and finite, got "
                f"{self.arrival_rate}")
        if not math.isfinite(self.horizon) or self.horizon <= 0:
            raise ConfigurationError(
                f"horizon must be positive and finite, got {self.horizon}")
        if self.router_service < 0:
            raise ConfigurationError(
                f"router service must be >= 0, got {self.router_service}")
        for op in (SEARCH, INSERT, DELETE):
            if op not in self.service_means:
                raise ConfigurationError(
                    f"service_means lacks {op!r}")
            if self.service_means[op] <= 0:
                raise ConfigurationError(
                    f"service mean for {op!r} must be positive")
            if op not in self.mix:
                raise ConfigurationError(f"mix lacks {op!r}")
        total = math.fsum(self.mix[op] for op in (SEARCH, INSERT, DELETE))
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
            raise ConfigurationError(
                f"operation mix sums to {total}, not 1")

    def __hash__(self) -> int:
        # Hashable like every other task config, so equal cluster tasks
        # de-duplicate; the two dicts are treated as read-only.
        return hash((self.spec, self.arrival_rate,
                     tuple(sorted(self.service_means.items())),
                     tuple(sorted(self.mix.items())), self.policies,
                     self.router_service, self.horizon, self.seed,
                     self.faults))


class _Op:
    """One routed operation."""

    __slots__ = ("op_id", "kind", "shard", "arrival", "attempt")

    def __init__(self, op_id: int, kind: str, shard: int,
                 arrival: float) -> None:
        self.op_id = op_id
        self.kind = kind
        self.shard = shard
        self.arrival = arrival
        self.attempt = 0


def _fault_windows(faults: FaultPlan, shards: int):
    """Per-shard (start, end, factor) windows, split by fault kind."""
    crashes: List[List[Tuple[float, float, float]]] = \
        [[] for _ in range(shards)]
    slows: List[List[Tuple[float, float, float]]] = \
        [[] for _ in range(shards)]
    lags: List[List[Tuple[float, float, float]]] = \
        [[] for _ in range(shards)]
    for spec in faults.simulation_faults():
        if spec.shard >= shards:
            raise ConfigurationError(
                f"fault {spec.encode()!r} targets shard {spec.shard} of a "
                f"{shards}-shard cluster")
        window = (spec.at, spec.window_end, spec.factor)
        if spec.kind == SHARD_CRASH:
            crashes[spec.shard].append(window)
        elif spec.kind == SLOW_SHARD:
            slows[spec.shard].append(window)
        elif spec.kind == REPLICA_LAG:
            lags[spec.shard].append(window)
    return crashes, slows, lags


def run_cluster_simulation(config: ClusterSimConfig) -> ClusterResult:
    """Run one seeded cluster simulation to completion.

    Arrivals stop at ``config.horizon``; in-flight work (including
    armed retries and hedges) drains past it so every attempted
    operation is accounted completed, failed or shed.
    """
    spec = config.spec
    policies = config.policies
    retry, hedge, breaker = policies.retry, policies.hedge, policies.breaker
    n_shards, n_servers = spec.shards, spec.replicas
    rng = random.Random(config.seed)
    crashes, slows, lags = _fault_windows(config.faults, n_shards)

    free = [[0.0] * n_servers for _ in range(n_shards)]
    stats = [ShardStats(shard=s) for s in range(n_shards)]
    breaker_open = [False] * n_shards

    q_search = config.mix[SEARCH]
    q_insert = q_search + config.mix[INSERT]
    means = config.service_means
    max_retries = retry.backoff.max_retries if retry.enabled else 0
    mean_service = math.fsum(
        config.mix[op] * means[op] for op in (SEARCH, INSERT, DELETE))
    open_backlog = breaker.open_backlog(mean_service)
    close_backlog = breaker.hysteresis * open_backlog

    attempted = completed = failed = shed = 0
    retries = hedges = hedged_wins = 0
    response_sum = 0.0
    router_free = 0.0
    heap: list = []
    seq = 0

    def push(time: float, kind: int, payload) -> None:
        nonlocal seq
        heappush(heap, (time, kind, seq, payload))
        seq += 1

    def crashed_at(shard: int, t: float) -> bool:
        return any(at <= t < end for at, end, _ in crashes[shard])

    def dilation(shard: int, server: int, t: float) -> float:
        f = 1.0
        for at, end, factor in crashes[shard]:
            # Catch-up replay: a window of the outage's own length,
            # immediately after recovery, at inflated service.
            if end <= t < end + (end - at):
                f *= factor
        if server == 0:
            for at, end, factor in slows[shard]:
                if at <= t < end:
                    f *= factor
        else:
            for at, end, factor in lags[shard]:
                if at <= t < end:
                    f *= factor
        return f

    def breaker_sheds(shard: int, t: float) -> bool:
        """Update the breaker's hysteresis state from the primary's
        backlog (queued work ahead of a new dispatch) and report
        whether writes are currently shed."""
        backlog = free[shard][0] - t
        if breaker_open[shard]:
            if backlog < close_backlog:
                breaker_open[shard] = False
        elif backlog > open_backlog:
            breaker_open[shard] = True
        return breaker_open[shard]

    def serve(shard: int, server: int, t: float, mean: float) -> float:
        """Enqueue one service demand; returns the completion time."""
        demand = rng.expovariate(1.0 / mean) * dilation(shard, server, t)
        start = free[shard][server] if free[shard][server] > t else t
        completion = start + demand
        free[shard][server] = completion
        stats[shard].busy_time += demand
        return completion

    def complete(op: _Op, completion: float) -> None:
        nonlocal completed, response_sum
        completed += 1
        stats[op.shard].completed += 1
        response_sum += completion - op.arrival

    push(0.0, _ARRIVAL, None)

    while heap:
        t, kind, _, payload = heappop(heap)

        if kind == _ARRIVAL:
            key = rng.randrange(spec.key_space)
            u = rng.random()
            op_kind = SEARCH if u < q_search else (
                INSERT if u < q_insert else DELETE)
            op = _Op(attempted, op_kind, spec.shard_for(key), t)
            attempted += 1
            # FIFO router stage; arrivals are processed in time order so
            # the running free-time is the queue.
            router_free = (router_free if router_free > t else t) \
                + config.router_service
            push(router_free, _DISPATCH, op)
            next_arrival = t + rng.expovariate(config.arrival_rate)
            if next_arrival < config.horizon:
                push(next_arrival, _ARRIVAL, None)
            continue

        if kind == _DISPATCH:
            op = payload
            shard = op.shard
            if crashed_at(shard, t):
                if op.attempt < max_retries:
                    op.attempt += 1
                    retries += 1
                    stats[shard].retries += 1
                    delay = retry.timeout + retry.backoff.delay_for(
                        op.attempt, token=f"op{op.op_id}")
                    push(t + delay, _DISPATCH, op)
                else:
                    failed += 1
                    stats[shard].failed += 1
                continue
            is_write = op.kind != SEARCH
            if is_write and breaker.enabled and breaker_sheds(shard, t):
                shed += 1
                stats[shard].shed_writes += 1
                continue
            server = 0 if is_write or n_servers == 1 \
                else rng.randrange(n_servers)
            completion = serve(shard, server, t, means[op.kind])
            if (not is_write and hedge.enabled and n_servers > 1
                    and completion > t + hedge.delay):
                push(t + hedge.delay, _HEDGE, (op, server, completion))
            else:
                complete(op, completion)
            continue

        # _HEDGE: the original read is still in flight; duplicate it on
        # the least-loaded *other* server and let the first finish win.
        op, first_server, first_completion = payload
        hedges += 1
        stats[op.shard].hedges += 1
        others = [s for s in range(n_servers) if s != first_server]
        server = min(others, key=lambda s: (free[op.shard][s], s))
        second_completion = serve(op.shard, server, t, means[SEARCH])
        if second_completion < first_completion:
            hedged_wins += 1
            stats[op.shard].hedged_wins += 1
            complete(op, second_completion)
        else:
            complete(op, first_completion)

    return ClusterResult(
        policy_name=policies.name,
        offered_rate=config.arrival_rate,
        horizon=config.horizon,
        seed=config.seed,
        attempted=attempted,
        completed=completed,
        failed=failed,
        shed_writes=shed,
        retries=retries,
        hedges=hedges,
        hedged_wins=hedged_wins,
        response_sum=response_sum,
        per_shard=tuple(stats),
    )
