"""repro: performance analysis of concurrent B-tree algorithms.

A faithful reproduction of Johnson & Shasha, "A Framework for the
Performance Analysis of Concurrent B-tree Algorithms" (PODS 1990):

* :mod:`repro.model` — the analytical framework (queueing models of
  Naive Lock-coupling, Optimistic Descent and the Link-type algorithm,
  rules of thumb, recovery extensions);
* :mod:`repro.simulator` — the validating concurrent B-tree simulator;
* :mod:`repro.btree` — the B+-tree substrate (merge-at-empty, right
  links);
* :mod:`repro.des` — the discrete-event simulation kernel;
* :mod:`repro.experiments` — drivers regenerating every figure of the
  paper's evaluation.

Quickstart::

    from repro import paper_default_config, analyze_lock_coupling
    prediction = analyze_lock_coupling(paper_default_config(), 0.2)
    print(prediction.response("insert"))
"""

from repro.model import (
    AlgorithmPrediction,
    CostModel,
    LEAF_ONLY_RECOVERY,
    ModelConfig,
    NAIVE_RECOVERY,
    NO_RECOVERY,
    OccupancyModel,
    OperationMix,
    TreeShape,
    analyze_link,
    analyze_lock_coupling,
    analyze_optimistic,
    analyze_optimistic_with_recovery,
    analyze_two_phase,
    arrival_rate_for_root_utilization,
    max_throughput,
    paper_default_config,
    rule_of_thumb_1,
    rule_of_thumb_2,
    rule_of_thumb_3,
    rule_of_thumb_4,
)
from repro.btree import BPlusTree, build_tree
from repro.simulator import SimulationConfig, run_replications, run_simulation

__version__ = "1.0.0"

__all__ = [
    "AlgorithmPrediction",
    "BPlusTree",
    "CostModel",
    "LEAF_ONLY_RECOVERY",
    "ModelConfig",
    "NAIVE_RECOVERY",
    "NO_RECOVERY",
    "OccupancyModel",
    "OperationMix",
    "SimulationConfig",
    "TreeShape",
    "__version__",
    "analyze_link",
    "analyze_lock_coupling",
    "analyze_optimistic",
    "analyze_optimistic_with_recovery",
    "analyze_two_phase",
    "arrival_rate_for_root_utilization",
    "build_tree",
    "max_throughput",
    "paper_default_config",
    "rule_of_thumb_1",
    "rule_of_thumb_2",
    "rule_of_thumb_3",
    "rule_of_thumb_4",
    "run_replications",
    "run_simulation",
]
