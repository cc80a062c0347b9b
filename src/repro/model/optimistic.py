"""Analysis of the Optimistic Descent algorithm (paper Section 5.1).

Optimistic Descent reuses the Naive Lock-coupling machinery with a
different operation classification.  An update first descends like a
search (R locks, lock-coupling) and W-locks only the leaf; if the leaf is
unsafe it releases everything and re-descends with W locks.  The paper
models the second pass as a separate *redo* operation class arriving at
rate ``q_i Pr[F(1)] lambda`` (redo-deletes are negligible because
``Pr[Em] ~= 0`` under merge-at-empty).

Consequences for the per-level queues:

* readers at every level are *all* first descents (searches and updates);
  at level 2 an updating reader holds its R lock across the leaf W-lock
  wait, so its hold time uses ``W(1)`` instead of ``R(1)``;
* writers above the leaves are only the redo operations, which behave
  exactly like Naive Lock-coupling inserts (Theorem 3's hyperexponential
  server applies);
* at the leaves, writers are the first-descent updates plus the redos.

The ``leaf_hold_extra`` / ``internal_hold_extra`` parameters implement the
Section 7 recovery extension: they add lock *retention* time (until the
enclosing transaction commits) to the W-lock holds.  See
:mod:`repro.model.recovery`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

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

ALGORITHM = names.OPTIMISTIC_DESCENT


def analyze_optimistic(config: ModelConfig, arrival_rate: float,
                       occupancy: Optional[OccupancyModel] = None,
                       leaf_hold_extra: float = 0.0,
                       internal_hold_extra: Optional[Sequence[float]] = None,
                       ) -> AlgorithmPrediction:
    """Predict Optimistic Descent performance at ``arrival_rate``.

    ``leaf_hold_extra`` is added to every leaf W-lock hold;
    ``internal_hold_extra[i-1]`` (indexed by level) is added to the W-lock
    hold at level i >= 2.  Both default to zero (no recovery retention).
    """
    if arrival_rate <= 0:
        raise ConfigurationError(f"arrival rate must be positive, got {arrival_rate}")

    mix = config.mix
    h = config.height
    terms = level_terms(config, occupancy)
    extras = list(internal_hold_extra) if internal_hold_extra is not None \
        else [0.0] * h
    if len(extras) != h:
        raise ConfigurationError(
            f"internal_hold_extra needs {h} entries, got {len(extras)}")

    se, sp, modify = terms.se, terms.sp, terms.modify
    full, split = terms.full, terms.split

    lam = [arrival_rate * share for share in terms.share]
    # Fraction of all operations that redo (make a W-lock second descent).
    redo_fraction = (mix.q_insert * full[0]
                     + mix.q_delete * terms.empty[0])

    levels: List[LevelSolution] = []

    try:
        for level in range(1, h + 1):
            i = level - 1
            coupled = None
            if level == 1:
                t_x = modify + leaf_hold_extra  # a redo's W-lock hold
                hold_r = se[0]
                lam_r = mix.q_search * lam[0]
                # First descents W-lock the leaf too; they hold it for the
                # modify (plus any recovery retention), same as a redo.
                lam_w = (mix.q_update + redo_fraction) * lam[0]
            else:
                below = levels[i - 1]
                # Redo operations lock-couple, so Theorem 3's server
                # applies.  All redos are effectively inserts (Pr[Em] ~= 0).
                coupled = (se[i], full[i - 1],
                           t_x + sp[i - 1] * split[level - 2],
                           below)
                t_x = (se[i] + below.W
                       + full[i - 1] * t_x
                       + sp[i - 1] * split[level - 1]
                       + extras[i])
                # Readers: all first descents.  At level 2 the updaters
                # hold their R lock while waiting for the leaf W lock.
                if level == 2:
                    hold_r = (mix.q_search * (se[i] + below.R)
                              + mix.q_update * (se[i] + below.W))
                else:
                    hold_r = se[i] + below.R
                lam_r = lam[i]
                lam_w = redo_fraction * lam[i]
            levels.append(solve_level(level, lam_r, lam_w, 1.0 / hold_r,
                                      1.0 / t_x, coupled))
    except UnstableQueueError as exc:
        return unstable_prediction(ALGORITHM, arrival_rate, exc.level)

    # First descent plus Pr[F(1)] (Pr[Em(1)]) times a redo descent, which
    # is a Naive Lock-coupling insert (Theorem 5's Per(I)) evaluated with
    # *this* system's lock waits.
    first_descent = (modify + levels[0].W
                     + sum(se[i] + levels[i].R for i in range(1, h)))
    redo_insert = (w_descent_response(levels, se, modify)
                   + terms.split_work)
    responses = {
        SEARCH: search_response(levels, se),
        INSERT: first_descent + full[0] * redo_insert,
        DELETE: first_descent + terms.empty[0] * redo_insert,
    }
    return AlgorithmPrediction(
        algorithm=ALGORITHM, arrival_rate=arrival_rate, stable=True,
        levels=levels, response_times=responses,
    )
