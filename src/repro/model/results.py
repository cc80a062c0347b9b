"""Result containers and the level solver shared by the algorithm
analyses.

The framework models a tree as one FCFS R/W lock queue per level.  An
analysis takes its configuration's rate-independent terms from
:func:`level_terms`, states each level's arrival rates and hold times
and hands them to :func:`solve_level`, which solves the queue (Theorem
6) and its waits (Theorem 4, or Theorem 3 for lock-coupled holds); the
response sums every analysis shares live here too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.model.mg1 import LockCouplingServer
from repro.model.occupancy import OccupancyModel
from repro.model.params import ModelConfig
from repro.model.rwqueue import solve_rw_queue

#: Canonical operation labels used in response-time dictionaries.
SEARCH = "search"
INSERT = "insert"
DELETE = "delete"


class LevelSolution(NamedTuple):
    """The solved lock queue of one representative node at ``level``.

    All quantities follow the paper's variable names: ``R``/``W`` are the
    expected times to *obtain* an R/W lock at the level, ``rho_w`` the
    writer presence probability, ``r_u``/``r_e`` the reader drains of
    Theorem 6.  A named tuple: every level solve builds one.
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


@dataclass(frozen=True)
class LevelTerms:
    """The rate-independent per-level terms of one ``(config,
    occupancy)``.  Every tuple is indexed leaf-first: entry ``i`` is
    level ``i + 1``."""

    #: The occupancy the terms were computed with (Corollary 1's closed
    #: form when the analysis was given none).
    occupancy: OccupancyModel
    #: Se(i), Sp(i), Mg(i) and the generalised modify cost of level i.
    se: Tuple[float, ...]
    sp: Tuple[float, ...]
    mg: Tuple[float, ...]
    modify_at: Tuple[float, ...]
    #: M: the leaf modify.
    modify: float
    #: Proposition 2: the share of the total arrival rate one node of
    #: level i sees.
    share: Tuple[float, ...]
    #: Pr[F(i)] and Pr[Em(i)].
    full: Tuple[float, ...]
    empty: Tuple[float, ...]
    #: ``split[k]`` / ``merge[k]`` = prod_{j=1..k} Pr[F(j)] / Pr[Em(j)],
    #: for k = 0..h (``split[0] == 1``).
    split: Tuple[float, ...]
    merge: Tuple[float, ...]
    #: sum_{j=1..h-1} split[j] Sp(j): the expected restructuring work of
    #: an insert.
    split_work: float


def _level_terms(config: ModelConfig,
                 occupancy: Optional[OccupancyModel]) -> LevelTerms:
    occ = occupancy_for(config, occupancy)
    costs, shape, h = config.costs, config.shape, config.height
    levels = range(1, h + 1)
    sp = tuple(costs.sp(level, h) for level in levels)
    # The products grow term by term in the order the occupancy model's
    # own split_propagation / merge_propagation multiply them.
    split, merge = [1.0], [1.0]
    for level in levels:
        split.append(split[-1] * occ.full(level))
        merge.append(merge[-1] * occ.empty(level))
    return LevelTerms(
        occupancy=occ,
        se=tuple(costs.se(level, h) for level in levels),
        sp=sp,
        mg=tuple(costs.mg(level, h) for level in levels),
        modify_at=tuple(costs.modify_at(level, h) for level in levels),
        modify=costs.modify(h),
        share=tuple(shape.arrival_share(level) for level in levels),
        full=tuple(occ.full(level) for level in levels),
        empty=tuple(occ.empty(level) for level in levels),
        split=tuple(split),
        merge=tuple(merge),
        split_work=sum(split[j] * sp[j - 1] for j in range(1, h)),
    )


_cached_level_terms = functools.lru_cache(maxsize=256)(_level_terms)


def level_terms(config: ModelConfig,
                occupancy: Optional[OccupancyModel] = None) -> LevelTerms:
    """The rate-independent terms of ``config`` and ``occupancy`` (or
    Corollary 1's).

    Memoized like :meth:`OccupancyModel.corollary1`: every analysis at
    every arrival rate asks for them, and they are a pure function of
    immutable inputs.  Errors are not cached, and unhashable inputs (an
    occupancy built from lists, say) are computed without the memo.
    """
    try:
        hash((config, occupancy))
    except TypeError:
        return _level_terms(config, occupancy)
    return _cached_level_terms(config, occupancy)


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
    rho_w, r_u, r_e, _t_a = solve_rw_queue((lam_r, lam_w, mu_r, mu_w),
                                           level=level)
    drain = rho_w * r_u + (1.0 - rho_w) * r_e
    if coupled is None or lam_w == 0.0:
        wait_r = (rho_w / (1.0 - rho_w)
                  * (1.0 / mu_w + drain)) if lam_w > 0 else 0.0
    else:
        se_i, p_f, t_f, below = coupled
        rho_o = below.rho_w
        inv_mu_o = (below.R / rho_o + below.r_u) if rho_o > 0.0 else 0.0
        # (t_e, p_f, t_f, rho_o, inv_mu_o, r_e_child)
        server = LockCouplingServer(se_i + drain, p_f, t_f, rho_o, inv_mu_o,
                                    below.r_e)
        wait_r = server.wait(lam_w, rho_w)
    # Positional, in field order: a named tuple builds faster that way.
    return LevelSolution(level, lam_r, lam_w, mu_r, mu_w, rho_w, r_u, r_e,
                         wait_r, wait_r + drain)


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
