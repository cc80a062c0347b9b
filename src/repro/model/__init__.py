"""The paper's analytical framework (primary contribution).

A concurrent B-tree is modelled as an open network of FCFS reader/writer
lock queues, one representative queue per level (paper Figure 1).  The
subpackage exposes:

* :mod:`~repro.model.params` — cost model, operation mix, tree shape.
* :mod:`~repro.model.occupancy` — Pr[F(i)], Pr[Em(i)], E(i) (Corollary 1).
* :mod:`~repro.model.rwqueue` — the FCFS R/W queue fixed point (Theorem 6).
* :mod:`~repro.model.results` — ``solve_level``, one level's queue and
  waits (Theorems 6, 4 and 3), which every analysis below shares.
* :mod:`~repro.model.lock_coupling` — Naive Lock-coupling (Theorems 1-5).
* :mod:`~repro.model.optimistic` — Optimistic Descent (redo-insert class).
* :mod:`~repro.model.link` — the Link-type (Lehman-Yao) algorithm.
* :mod:`~repro.model.recovery` — Naive / Leaf-only recovery (Section 7).
* :mod:`~repro.model.throughput` — maximum throughput and the
  "effective maximum arrival rate" lambda_{rho=.5}.
* :mod:`~repro.model.thumb` — Rules of Thumb 1-4 (Section 6).
"""

from repro.model.params import (
    CostModel,
    ModelConfig,
    OperationMix,
    TreeShape,
    paper_default_config,
)
from repro.model.occupancy import OccupancyModel
from repro.model.results import AlgorithmPrediction, LevelSolution
from repro.model.rwqueue import RWQueueInput, RWQueueSolution, solve_rw_queue
from repro.model.lock_coupling import analyze_lock_coupling
from repro.model.optimistic import analyze_optimistic
from repro.model.link import analyze_link
from repro.model.two_phase import analyze_two_phase
from repro.model.recovery import (
    LEAF_ONLY_RECOVERY,
    NAIVE_RECOVERY,
    NO_RECOVERY,
    RecoveryPolicy,
    analyze_optimistic_with_recovery,
)
from repro.model.throughput import (
    arrival_rate_for_root_utilization,
    max_throughput,
)
from repro.model.thumb import (
    rule_of_thumb_1,
    rule_of_thumb_2,
    rule_of_thumb_3,
    rule_of_thumb_4,
)
from repro.model.validation import measured_model_config, measured_shape
from repro.model.closed import (
    ClosedSystemPrediction,
    closed_system_prediction,
)
from repro.model.workload import (
    EffectiveLoad,
    effective_load,
    piecewise_response,
)

__all__ = [
    "AlgorithmPrediction",
    "ClosedSystemPrediction",
    "closed_system_prediction",
    "CostModel",
    "EffectiveLoad",
    "LEAF_ONLY_RECOVERY",
    "LevelSolution",
    "ModelConfig",
    "NAIVE_RECOVERY",
    "NO_RECOVERY",
    "OccupancyModel",
    "OperationMix",
    "RWQueueInput",
    "RWQueueSolution",
    "RecoveryPolicy",
    "TreeShape",
    "analyze_link",
    "analyze_lock_coupling",
    "analyze_optimistic",
    "analyze_optimistic_with_recovery",
    "analyze_two_phase",
    "arrival_rate_for_root_utilization",
    "effective_load",
    "max_throughput",
    "measured_model_config",
    "measured_shape",
    "paper_default_config",
    "piecewise_response",
    "rule_of_thumb_1",
    "rule_of_thumb_2",
    "rule_of_thumb_3",
    "rule_of_thumb_4",
    "solve_rw_queue",
]
