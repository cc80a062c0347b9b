"""Recovery extensions of the analysis (paper Section 7).

A transaction-processing database retains a transaction's exclusive locks
until the transaction commits, so B-tree W locks may be held far beyond
the B-tree operation itself.  The paper compares three policies on top of
Optimistic Descent:

* **No recovery** — the baseline: locks are released as the algorithm
  finishes with them.
* **Naive recovery** — every W lock (leaf or internal) is retained until
  commit.  The paper models the internal-lock retention as an extra
  ``Pr[F(i)] * T_trans`` on the level-i W hold (an internal lock is only
  retained long when the node was actually restructured).
* **Leaf-only recovery** (Shasha) — only leaf W locks are retained
  (``T(OP,1) + T_trans``); internal locks are released immediately, which
  is sufficient for correct recovery.

``T_trans`` is the expected remaining transaction time after the B-tree
operation (the paper uses 100 time units as a conservative value).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.algorithms import names
from repro.model.occupancy import OccupancyModel
from repro.model.optimistic import analyze_optimistic
from repro.model.params import ModelConfig, check_t_trans
from repro.model.results import AlgorithmPrediction, level_terms

#: The paper's conservative remaining-transaction-time estimate.
PAPER_T_TRANS = 100.0


@dataclass(frozen=True)
class RecoveryPolicy:
    """Which W locks a transaction retains until commit."""

    name: str
    retain_leaf: bool
    retain_internal: bool

    def __str__(self) -> str:
        return self.name


NO_RECOVERY = RecoveryPolicy("no-recovery", retain_leaf=False,
                             retain_internal=False)
LEAF_ONLY_RECOVERY = RecoveryPolicy("leaf-only-recovery", retain_leaf=True,
                                    retain_internal=False)
NAIVE_RECOVERY = RecoveryPolicy("naive-recovery", retain_leaf=True,
                                retain_internal=True)

ALL_POLICIES = (NO_RECOVERY, LEAF_ONLY_RECOVERY, NAIVE_RECOVERY)


def analyze_optimistic_with_recovery(
        config: ModelConfig, arrival_rate: float,
        policy: RecoveryPolicy = NO_RECOVERY,
        t_trans: float = PAPER_T_TRANS,
        occupancy: Optional[OccupancyModel] = None,
        ) -> AlgorithmPrediction:
    """Optimistic Descent under a recovery lock-retention policy.

    Implements the paper's T' transformation: leaf W holds gain
    ``T_trans`` whenever leaf locks are retained; level-i W holds gain
    ``Pr[F(i)] * T_trans`` under Naive recovery.
    """
    check_t_trans(t_trans)
    full = level_terms(config, occupancy).full
    leaf_extra = t_trans if policy.retain_leaf else 0.0
    extras = [0.0] * config.height
    if policy.retain_internal:
        for i in range(1, config.height):
            extras[i] = full[i] * t_trans
    prediction = analyze_optimistic(
        config, arrival_rate, occupancy=occupancy,
        leaf_hold_extra=leaf_extra, internal_hold_extra=extras,
    )
    # Re-label so comparison plots can tell the policies apart.
    return replace(prediction,
                   algorithm=f"{names.OPTIMISTIC_DESCENT}+{policy.name}")
