"""Analysis of the Link-type (Lehman-Yao) algorithm (paper Section 5.1).

With right links there is no lock coupling: at most one lock is held at a
time, so every level is an *independent* FCFS R/W queue:

* every operation R-locks one node per level on the way down, so the
  per-node reader arrival rate at level i is the total rate divided by
  the number of level-i nodes;
* W locks appear at the leaves for every update, and at level i > 1 only
  when a child half-splits — rate ``q_i * lambda * prod_{k<i} Pr[F(k)]``
  spread over the level's nodes;
* an R lock is held for the node search time only, a W lock for the node
  modify plus (with probability Pr[F(i)]) the half-split.

Because the hold times are short and coupled to nothing, the waits use
Theorem 4's exponential-aggregate form.  Link crossings slightly raise
the arrival rates; the paper observes (Figure 9) that the effect is
negligible, and :func:`link_crossing_probability` provides the
back-of-envelope rate estimate that justifies neglecting it.
"""

from __future__ import annotations

from typing import List, Optional

from repro.algorithms import names
from repro.errors import ConfigurationError, UnstableQueueError
from repro.model.occupancy import OccupancyModel
from repro.model.params import ModelConfig
from repro.model.results import (
    DELETE,
    INSERT,
    SEARCH,
    AlgorithmPrediction,
    LevelSolution,
    level_terms,
    occupancy_for,
    search_response,
    solve_level,
    unstable_prediction,
)

ALGORITHM = names.LINK_TYPE


def analyze_link(config: ModelConfig, arrival_rate: float,
                 occupancy: Optional[OccupancyModel] = None,
                 ) -> AlgorithmPrediction:
    """Predict Link-type performance at ``arrival_rate``."""
    if arrival_rate <= 0:
        raise ConfigurationError(f"arrival rate must be positive, got {arrival_rate}")

    mix = config.mix
    h = config.height
    terms = level_terms(config, occupancy)
    se, sp, modify = terms.se, terms.sp, terms.modify_at
    split = terms.split

    levels: List[LevelSolution] = []
    try:
        for level in range(1, h + 1):
            i = level - 1
            share = terms.share[i]
            if level == 1:
                lam_r = mix.q_search * arrival_rate * share
                lam_w = mix.q_update * arrival_rate * share
            else:
                lam_r = arrival_rate * share
                # W locks arrive when a child completes a half-split.
                lam_w = mix.q_insert * arrival_rate * split[level - 1] * share
            hold_w = modify[i] + terms.full[i] * sp[i]
            levels.append(solve_level(level, lam_r, lam_w, 1.0 / se[i],
                                      1.0 / hold_w))
    except UnstableQueueError as exc:
        return unstable_prediction(ALGORITHM, arrival_rate, exc.level)

    # A plain descent plus the expected split climb: a split at level j
    # costs the half-split itself (``Sp(j)``, paid under the level-j W
    # lock) and then a W lock + modify at level j+1; the climb continues
    # with probability Pr[F(j+1)].
    descent = (modify[0] + levels[0].W
               + sum(se[i] + levels[i].R for i in range(1, h)))
    climb = 0.0
    for j in range(1, h):
        step = sp[j - 1] + levels[j].W + modify[j]
        climb += split[j] * step
    responses = {SEARCH: search_response(levels, se),
                 INSERT: descent + climb, DELETE: descent}
    return AlgorithmPrediction(
        algorithm=ALGORITHM, arrival_rate=arrival_rate, stable=True,
        levels=levels, response_times=responses,
    )


def link_crossing_probability(config: ModelConfig, arrival_rate: float,
                              level: int,
                              occupancy: Optional[OccupancyModel] = None,
                              ) -> float:
    """Order-of-magnitude estimate of the probability that a descent must
    chase a right link at ``level``.

    A crossing happens when the target node half-splits between the
    moment the parent was read and the moment the node is read.  That
    window is about one node access; the per-node split rate at the level
    is ``q_i * lambda * prod_{k<=level} Pr[F(k)] / nodes_at(level)``.
    The product of the two is tiny, which is the paper's Figure 9 point.
    """
    mix, costs, shape = config.mix, config.costs, config.shape
    h = shape.height
    if not 1 <= level <= h:
        raise ConfigurationError(f"no level {level} in height-{h} tree")
    occ = occupancy_for(config, occupancy)
    split_rate_per_node = (mix.q_insert * arrival_rate
                           * occ.split_propagation(level)
                           * shape.arrival_share(level))
    window = costs.se(level, h)
    return min(1.0, split_rate_per_node * window)


def expected_crossings_per_descent(config: ModelConfig,
                                   arrival_rate: float,
                                   occupancy: Optional[OccupancyModel] = None,
                                   ) -> float:
    """Expected link crossings over one whole root-to-leaf descent —
    the sum of the per-level probabilities, directly comparable with
    the simulator's crossings-per-operation counter (Figure 9)."""
    return sum(
        link_crossing_probability(config, arrival_rate, level,
                                  occupancy=occupancy)
        for level in range(1, config.height + 1)
    )
