"""Analysis of the Naive Lock-coupling algorithm (paper Section 5).

The computation follows the paper's summary exactly:

1. leaves first — lock hold times (Theorem 1, level 1), the FCFS R/W
   queue fixed point (Theorem 6), and the M/M/1-style waits (Theorem 4);
2. then each level upward — hold times via Theorem 1 (which consume the
   waits of the level below, because lock-coupling makes a level-i hold
   include the wait for level i-1), the queue fixed point, and the
   hyperexponential M/G/1 waits of Theorem 3 (Figure 2's server);
3. finally the operation response times of Theorem 5.

Inserts and deletes always place W locks, so they are the queue's writer
class; searches are the reader class (Proposition 1).  Arrival rates thin
by the fanout from level to level (Proposition 2).
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

ALGORITHM = names.NAIVE_LOCK_COUPLING


def analyze_lock_coupling(config: ModelConfig, arrival_rate: float,
                          occupancy: Optional[OccupancyModel] = None,
                          ) -> AlgorithmPrediction:
    """Predict response times and per-level queue state for Naive
    Lock-coupling at ``arrival_rate``.

    Returns an unstable prediction (infinite response times, with the
    saturated level recorded) instead of raising when some queue cannot
    sustain the load — sweeps past the knee are routine in the figures.
    """
    if arrival_rate <= 0:
        raise ConfigurationError(f"arrival rate must be positive, got {arrival_rate}")

    mix = config.mix
    h = config.height
    terms = level_terms(config, occupancy)
    se, sp, mg, modify = terms.se, terms.sp, terms.mg, terms.modify
    full, empty = terms.full, terms.empty                  # Pr[F], Pr[Em]
    split, merge = terms.split, terms.merge
    insert_share, delete_share = mix.insert_share, mix.delete_share
    q_search, q_update = mix.q_search, mix.q_update

    # Per-level arrival rates (Proposition 2); index 0 = level 1 (leaves).
    lam = [arrival_rate * share for share in terms.share]

    # T(S, i), T(I, i), T(D, i) roll up from the leaves (Theorem 1).
    t_i = t_d = modify
    levels: List[LevelSolution] = []

    try:
        for level in range(1, h + 1):
            i = level - 1
            coupled = None
            if level == 1:
                t_s = se[0]
            else:
                below = levels[i - 1]
                # Theorem 3: the propagation product stops at level-2
                # because p_f already carries Pr[F(level-1)].
                coupled = (se[i], insert_share * full[i - 1],
                           t_i + sp[i - 1] * split[level - 2],
                           below)
                t_s = se[i] + below.R
                t_i = (se[i] + below.W
                       + full[i - 1] * t_i
                       + sp[i - 1] * split[level - 1])
                t_d = (se[i] + below.W
                       + empty[i - 1] * t_d
                       + mg[i - 1] * merge[level - 1])
            # Proposition 1: service rates of the reader / writer classes.
            w_hold = insert_share * t_i + delete_share * t_d
            levels.append(solve_level(
                level, q_search * lam[i], q_update * lam[i],
                1.0 / t_s, 1.0 / w_hold if w_hold > 0 else 0.0, coupled))
    except UnstableQueueError as exc:
        return unstable_prediction(ALGORITHM, arrival_rate, exc.level)

    # Theorem 5.  Per(D) groups M + W(1) apart from the upper levels.
    responses = {
        SEARCH: search_response(levels, se),
        INSERT: w_descent_response(levels, se, modify) + terms.split_work,
        DELETE: modify + levels[0].W + sum(se[i] + levels[i].W
                                           for i in range(1, h)),
    }
    return AlgorithmPrediction(
        algorithm=ALGORITHM, arrival_rate=arrival_rate, stable=True,
        levels=levels, response_times=responses,
    )
