"""Degradation metrics of one cluster run.

Definitions (kept deliberately strict — deliberate load-shedding still
counts against availability, because a shed client saw an error):

* ``availability`` — completed / attempted operations.
* ``goodput`` — completed operations per simulated time unit.
* ``mean_response`` — mean response of *completed* operations only
  (failed operations have no response to average).

:meth:`ClusterResult.counters` names the tallies under the ``cluster.*``
namespace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple


@dataclass
class ShardStats:
    """Mutable per-shard tallies accumulated by the simulator."""

    shard: int
    completed: int = 0
    failed: int = 0
    shed_writes: int = 0
    retries: int = 0
    hedges: int = 0
    hedged_wins: int = 0
    #: Total service demand dispatched to the shard's servers.
    busy_time: float = 0.0

    @property
    def attempted(self) -> int:
        return self.completed + self.failed + self.shed_writes

    @property
    def availability(self) -> float:
        attempted = self.attempted
        if attempted == 0:
            return 1.0
        return self.completed / attempted


@dataclass(frozen=True)
class ClusterResult:
    """Everything one :func:`~repro.cluster.sim.run_cluster_simulation`
    run produced."""

    policy_name: str
    offered_rate: float
    horizon: float
    seed: int
    attempted: int
    completed: int
    failed: int
    shed_writes: int
    retries: int
    hedges: int
    hedged_wins: int
    #: Sum of completed-operation response times (mean = sum/completed).
    response_sum: float
    per_shard: Tuple[ShardStats, ...] = field(default_factory=tuple)

    @property
    def availability(self) -> float:
        if self.attempted == 0:
            return 1.0
        return self.completed / self.attempted

    @property
    def goodput(self) -> float:
        if self.horizon <= 0:
            return 0.0
        return self.completed / self.horizon

    @property
    def mean_response(self) -> float:
        if self.completed == 0:
            return math.inf
        return self.response_sum / self.completed

    def counters(self) -> Dict[str, int]:
        """The ``cluster.*`` counter snapshot of this run."""
        return {
            "cluster.attempted": self.attempted,
            "cluster.completed": self.completed,
            "cluster.failed": self.failed,
            "cluster.shed_writes": self.shed_writes,
            "cluster.retries": self.retries,
            "cluster.hedges": self.hedges,
            "cluster.hedged_wins": self.hedged_wins,
        }
