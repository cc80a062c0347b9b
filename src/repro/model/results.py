"""Result containers and the level solver shared by the algorithm
analyses.

The framework models a tree as one FCFS R/W lock queue per level.  An
analysis states only each level's arrival rates and hold times and
hands them to :func:`solve_level`, which solves the queue (Theorem 6)
and its waits (Theorem 4, or Theorem 3 for lock-coupled holds); the
response sums every analysis shares live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.model.mg1 import LockCouplingServer
from repro.model.occupancy import OccupancyModel
from repro.model.params import ModelConfig
from repro.model.rwqueue import RWQueueInput, solve_rw_queue

#: Canonical operation labels used in response-time dictionaries.
SEARCH = "search"
INSERT = "insert"
DELETE = "delete"


@dataclass(frozen=True)
class LevelSolution:
    """The solved lock queue of one representative node at ``level``.

    All quantities follow the paper's variable names: ``R``/``W`` are the
    expected times to *obtain* an R/W lock at the level, ``rho_w`` the
    writer presence probability, ``r_u``/``r_e`` the reader drains of
    Theorem 6.
    """

    level: int
    lambda_r: float
    lambda_w: float
    mu_r: float
    mu_w: float
    rho_w: float
    r_u: float
    r_e: float
    R: float
    W: float


@dataclass(frozen=True)
class AlgorithmPrediction:
    """Full analytical prediction for one algorithm at one arrival rate."""

    algorithm: str
    arrival_rate: float
    stable: bool
    #: Per-level queue solutions, index 0 = leaves.  Empty when unstable.
    levels: List[LevelSolution] = field(default_factory=list)
    #: Expected response times keyed by "search" / "insert" / "delete";
    #: +inf when unstable.
    response_times: Dict[str, float] = field(default_factory=dict)
    #: Level whose queue saturated first, when unstable.
    saturated_level: Optional[int] = None

    @property
    def root_writer_utilization(self) -> float:
        """rho_w at the root — the paper's bottleneck indicator
        (Figure 10); +inf when the prediction is unstable."""
        if not self.stable:
            return math.inf
        return self.levels[-1].rho_w

    @property
    def max_writer_utilization(self) -> float:
        """max over levels of rho_w (the Link-type bottleneck need not be
        the root); +inf when unstable."""
        if not self.stable:
            return math.inf
        return max(level.rho_w for level in self.levels)

    def response(self, operation: str) -> float:
        """Response time for ``operation`` (+inf when unstable)."""
        if not self.stable:
            return math.inf
        return self.response_times[operation]

    def level(self, level: int) -> LevelSolution:
        """Solution for a specific level (leaves = 1)."""
        return self.levels[level - 1]


def unstable_prediction(algorithm: str, arrival_rate: float,
                        saturated_level: int) -> AlgorithmPrediction:
    """Standard result for a saturated configuration."""
    return AlgorithmPrediction(
        algorithm=algorithm,
        arrival_rate=arrival_rate,
        stable=False,
        levels=[],
        response_times={SEARCH: math.inf, INSERT: math.inf, DELETE: math.inf},
        saturated_level=saturated_level,
    )


def occupancy_for(config: ModelConfig,
                  occupancy: Optional[OccupancyModel]) -> OccupancyModel:
    """``occupancy``, or Corollary 1's closed form for ``config``."""
    if occupancy is not None:
        return occupancy
    return OccupancyModel.corollary1(config.mix, config.order, config.height)


def solve_level(level: int, lam_r: float, lam_w: float, mu_r: float,
                mu_w: float,
                coupled: Optional[Tuple[float, float, float,
                                        LevelSolution]] = None,
                ) -> LevelSolution:
    """Solve the lock queue of one level and its waits.

    Theorem 6 gives the queue; R is Theorem 4's exponential-aggregate
    wait unless writers arrive and ``coupled = (Se(i), p_f, t_f, below)``
    describes a lock-coupled W hold, in which case R comes from Theorem
    3's Figure 2 server: ``p_f`` is the chance the child is unsafe,
    ``t_f`` the time then held through it (read as a time, see
    docs/theory.md), ``below`` the solved level underneath.  W adds the
    mean reader drain.  Raises
    :class:`~repro.errors.UnstableQueueError` carrying ``level`` when
    the queue saturates.
    """
    queue = solve_rw_queue(
        RWQueueInput(lambda_r=lam_r, lambda_w=lam_w, mu_r=mu_r, mu_w=mu_w),
        level=level,
    )
    drain = queue.mean_reader_drain
    if coupled is None or lam_w == 0.0:
        wait_r = (queue.rho_w / (1.0 - queue.rho_w)
                  * (1.0 / mu_w + drain)) if lam_w > 0 else 0.0
    else:
        se_i, p_f, t_f, below = coupled
        rho_o = below.rho_w
        inv_mu_o = (below.R / rho_o + below.r_u) if rho_o > 0.0 else 0.0
        server = LockCouplingServer(
            t_e=se_i + drain, p_f=p_f, t_f=t_f, rho_o=rho_o,
            inv_mu_o=inv_mu_o, r_e_child=below.r_e,
        )
        wait_r = server.wait(lam_w, queue.rho_w)
    return LevelSolution(
        level=level, lambda_r=lam_r, lambda_w=lam_w, mu_r=mu_r, mu_w=mu_w,
        rho_w=queue.rho_w, r_u=queue.r_u, r_e=queue.r_e,
        R=wait_r, W=wait_r + drain,
    )


def search_response(levels: Sequence[LevelSolution],
                    se: Sequence[float]) -> float:
    """Per(S) = sum_i (Se(i) + R(i)): an R-lock descent."""
    return sum(se_i + level.R for se_i, level in zip(se, levels))


def w_descent_response(levels: Sequence[LevelSolution],
                       se: Sequence[float], modify: float) -> float:
    """M + sum_{i>=2} Se(i) + sum_i W(i): a W-lock descent and the leaf
    modify, before any restructuring (Naive insert, the Optimistic
    Descent redo, Two-Phase updates)."""
    return modify + sum(se[1:]) + sum(level.W for level in levels)
