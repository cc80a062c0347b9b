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
from repro.model.mg1 import LockCouplingServer
from repro.model.occupancy import OccupancyModel
from repro.model.params import ModelConfig
from repro.model.results import (
    DELETE,
    INSERT,
    SEARCH,
    AlgorithmPrediction,
    LevelSolution,
    unstable_prediction,
)
from repro.model.rwqueue import RWQueueInput, solve_rw_queue

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

    mix, costs, shape = config.mix, config.costs, config.shape
    h = shape.height
    occ = occupancy if occupancy is not None \
        else OccupancyModel.corollary1(mix, config.order, h)

    se = [costs.se(level, h) for level in range(1, h + 1)]        # Se(i)
    sp = [costs.sp(level, h) for level in range(1, h + 1)]        # Sp(i)
    mg = [costs.mg(level, h) for level in range(1, h + 1)]        # Mg(i)
    modify = costs.modify(h)                                      # M

    # Per-level arrival rates (Proposition 2); index 0 = level 1 (leaves).
    lam = [arrival_rate * shape.arrival_share(level)
           for level in range(1, h + 1)]

    t_search: List[float] = []   # T(S, i)
    t_insert: List[float] = []   # T(I, i)
    t_delete: List[float] = []   # T(D, i)
    levels: List[LevelSolution] = []

    for level in range(1, h + 1):
        i = level - 1
        if level == 1:
            t_s, t_i, t_d = se[0], modify, modify
        else:
            below = levels[i - 1]
            t_s = se[i] + below.R
            t_i = (se[i] + below.W
                   + occ.full(level - 1) * t_insert[i - 1]
                   + sp[i - 1] * occ.split_propagation(level - 1))
            t_d = (se[i] + below.W
                   + occ.empty(level - 1) * t_delete[i - 1]
                   + mg[i - 1] * occ.merge_propagation(level - 1))
        t_search.append(t_s)
        t_insert.append(t_i)
        t_delete.append(t_d)

        # Proposition 1: service rates of the reader / writer classes.
        mu_r = 1.0 / t_s
        w_hold = mix.insert_share * t_i + mix.delete_share * t_d
        mu_w = 1.0 / w_hold if w_hold > 0 else 0.0
        lam_r = mix.q_search * lam[i]
        lam_w = mix.q_update * lam[i]

        try:
            queue = solve_rw_queue(
                RWQueueInput(lambda_r=lam_r, lambda_w=lam_w,
                             mu_r=mu_r, mu_w=mu_w),
                level=level,
            )
        except UnstableQueueError:
            return unstable_prediction(ALGORITHM, arrival_rate, level)

        drain = queue.mean_reader_drain
        if level == 1 or lam_w == 0.0:
            # Theorem 4: exponential aggregate service.
            wait_r = (queue.rho_w / (1.0 - queue.rho_w)
                      * (1.0 / mu_w + drain)) if lam_w > 0 else 0.0
        else:
            below = levels[i - 1]
            server = _theorem3_server(
                se_i=se[i], queue_drain=drain, occ=occ, level=level,
                mix=mix, t_insert_below=t_insert[i - 1],
                sp_below=sp[i - 1], below=below,
            )
            wait_r = server.wait(lam_w, queue.rho_w)
        wait_w = wait_r + drain

        levels.append(LevelSolution(
            level=level, lambda_r=lam_r, lambda_w=lam_w,
            mu_r=mu_r, mu_w=mu_w, rho_w=queue.rho_w,
            r_u=queue.r_u, r_e=queue.r_e, R=wait_r, W=wait_w,
        ))

    responses = _theorem5_responses(levels, se, sp, modify, occ, h)
    return AlgorithmPrediction(
        algorithm=ALGORITHM, arrival_rate=arrival_rate, stable=True,
        levels=levels, response_times=responses,
    )


def _theorem3_server(se_i: float, queue_drain: float, occ: OccupancyModel,
                     level: int, mix, t_insert_below: float,
                     sp_below: float, below: LevelSolution,
                     ) -> LockCouplingServer:
    """Assemble the Figure 2 hyperexponential server for ``level``.

    ``t_f`` is read as a *time* (the paper's definition inverts it, but
    the Laplace transform and moment formula require the time; see
    DESIGN.md).  The propagation product excludes level-1..(level-2)
    because ``p_f`` already carries Pr[F(level-1)].
    """
    p_f = mix.insert_share * occ.full(level - 1)
    rho_o = below.rho_w
    t_e = se_i + queue_drain
    t_f = t_insert_below + sp_below * occ.split_propagation(level - 2)
    inv_mu_o = (below.R / rho_o + below.r_u) if rho_o > 0.0 else 0.0
    return LockCouplingServer(
        t_e=t_e, p_f=p_f, t_f=t_f, rho_o=rho_o,
        inv_mu_o=inv_mu_o, r_e_child=below.r_e,
    )


def _theorem5_responses(levels: List[LevelSolution], se: List[float],
                        sp: List[float], modify: float,
                        occ: OccupancyModel, h: int) -> dict:
    """Operation response times (Theorem 5)."""
    per_search = sum(se[i] + levels[i].R for i in range(h))
    per_delete = modify + levels[0].W + sum(
        se[i] + levels[i].W for i in range(1, h))
    split_work = sum(occ.split_propagation(j) * sp[j - 1]
                     for j in range(1, h))
    per_insert = (modify
                  + sum(se[i] for i in range(1, h))
                  + sum(level.W for level in levels)
                  + split_work)
    return {SEARCH: per_search, INSERT: per_insert, DELETE: per_delete}
