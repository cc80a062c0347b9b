"""Result containers shared by the three algorithm analyses."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

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

    @property
    def mean_response(self) -> float:
        """Mix-weighted response is computed by callers that know the mix;
        this is the plain mean over the defined operations."""
        if not self.stable:
            return math.inf
        return sum(self.response_times.values()) / len(self.response_times)


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
