"""Analysis of Two-Phase Locking on the B-tree.

The paper's conclusions promise an analysis of Two-Phase locking for the
full version; this module supplies it within the same framework.  Under
strict two-phase locking an operation never releases a lock before it
has acquired all of them, so *every* lock on the access path is held
until the operation completes:

* a search holds the level-i R lock for the node search plus the entire
  remaining descent (``T(S,i) = Se(i) + R(i-1) + T(S,i-1)``);
* an update holds the level-i W lock for the remaining descent plus the
  leaf modify and any restructuring
  (``T(U,i) = Se(i) + W(i-1) + T(U,i-1)``).

Compared with Naive Lock-coupling the only change is that safe children
no longer let ancestors go — which is exactly the "restrictive
serialization technique" the paper's introduction warns becomes a
bottleneck: the root lock is held for whole operations, so the maximum
throughput collapses to roughly one over the mean operation length.

Waiting times use the exponential-aggregate form (Theorem 4 at every
level): a 2PL hold is a long *sum* of stages, so its coefficient of
variation is below 1 and the hyperexponential branch model of Theorem 3
does not apply.
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
    search_response,
    solve_level,
    unstable_prediction,
    w_descent_response,
)

ALGORITHM = names.TWO_PHASE_LOCKING


def analyze_two_phase(config: ModelConfig, arrival_rate: float,
                      occupancy: Optional[OccupancyModel] = None,
                      ) -> AlgorithmPrediction:
    """Predict Two-Phase Locking performance at ``arrival_rate``."""
    if arrival_rate <= 0:
        raise ConfigurationError(f"arrival rate must be positive, got {arrival_rate}")

    mix = config.mix
    h = config.height
    terms = level_terms(config, occupancy)
    se, modify = terms.se, terms.modify
    # All restructuring work, charged while the whole path is locked.
    split_work = terms.split_work

    lam = [arrival_rate * share for share in terms.share]

    levels: List[LevelSolution] = []

    try:
        for level in range(1, h + 1):
            i = level - 1
            if level == 1:
                t_s = se[0]
                t_u = modify + split_work
            else:
                below = levels[i - 1]
                t_s = se[i] + below.R + t_s
                t_u = se[i] + below.W + t_u
            levels.append(solve_level(level, mix.q_search * lam[i],
                                      mix.q_update * lam[i],
                                      1.0 / t_s, 1.0 / t_u))
    except UnstableQueueError as exc:
        return unstable_prediction(ALGORITHM, arrival_rate, exc.level)

    per_update_base = w_descent_response(levels, se, modify)
    responses = {
        SEARCH: search_response(levels, se),
        INSERT: per_update_base + split_work,
        DELETE: per_update_base,
    }
    return AlgorithmPrediction(
        algorithm=ALGORITHM, arrival_rate=arrival_rate, stable=True,
        levels=levels, response_times=responses,
    )
