"""Fault-tolerant sharded B-tree cluster tier (``repro.cluster``).

The paper analyses one B-tree whose capacity is capped by the root
writer utilization rho_w = 0.5 (Section 6).  The ROADMAP's "millions of
users" scenario range-partitions the keyspace across S such trees
behind a router — and a production cluster is defined as much by how it
*degrades* as by how it scales.  This package models that deployment on
both sides of the framework:

* **Topology** — :class:`ClusterSpec`: S range-partitioned shards, R
  read-serving replicas per shard, an optional non-uniform arrival
  weighting (:mod:`repro.cluster.spec`).
* **Robustness policies** — router timeout + retry with exponential
  backoff and deterministic jitter (reusing
  :class:`repro.resilience.RetryPolicy`), hedged reads against
  replicas, and a rho-triggered circuit breaker shedding writes when a
  shard's measured utilization crosses the paper's 0.5 rule of thumb
  (:mod:`repro.cluster.policies`).
* **Simulator** — an event-driven cluster simulator
  (:func:`run_cluster_simulation`) whose per-shard service demands come
  from the single-tree analytical model's zero-load response times, and
  which consumes simulation-time chaos (``shard-crash`` /
  ``slow-shard`` / ``replica-lag``) from the deterministic fault
  harness (:mod:`repro.resilience.faults`).
* **Analytical composition** — the router is an M/G/1 stage from
  :mod:`repro.model.mg1` composed with a multi-class M/G/1 serialization
  of each shard, the shard demands again supplied by the per-level
  queue network; plus a closed-form availability model under a fault
  plan (:mod:`repro.cluster.model`).

The ``ext08`` experiment sweeps shard count x fault rate at 100–1000x
the paper's arrival rates and validates the composition against the
simulator; ``btree-perf cluster`` / ``btree-perf list-cluster-policies``
expose the tier on the command line.  See ``docs/robustness.md`` for
the cluster fault model and determinism guarantees.
"""

from repro.cluster.chaos import chaos_plan
from repro.cluster.metrics import ClusterResult, ShardStats
from repro.cluster.model import (
    ClusterPrediction,
    analyze_cluster,
    predict_availability,
    rescue_horizon,
    shard_service_demands,
)
from repro.cluster.policies import (
    POLICY_PRESETS,
    BreakerPolicy,
    ClusterPolicies,
    HedgePolicy,
    RouterRetryPolicy,
    get_policies,
    policy_names,
)
from repro.cluster.sim import ClusterSimConfig, run_cluster_simulation
from repro.cluster.spec import ClusterSpec

__all__ = [
    "BreakerPolicy",
    "ClusterPolicies",
    "ClusterPrediction",
    "ClusterResult",
    "ClusterSimConfig",
    "ClusterSpec",
    "HedgePolicy",
    "POLICY_PRESETS",
    "RouterRetryPolicy",
    "ShardStats",
    "analyze_cluster",
    "chaos_plan",
    "get_policies",
    "policy_names",
    "predict_availability",
    "rescue_horizon",
    "run_cluster_simulation",
    "shard_service_demands",
]
