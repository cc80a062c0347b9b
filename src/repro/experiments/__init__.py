"""Experiment drivers regenerating every figure of the paper.

Each ``figNN`` function in :mod:`repro.experiments.figures` reproduces the
corresponding paper figure as an :class:`~repro.experiments.common.ExperimentTable`
(the plotted series as rows).  ``scale`` shrinks the simulation effort for
quick runs; ``scale=1.0`` matches the paper's 10,000 measured operations
and 5 seeds.

Use :data:`~repro.experiments.registry.EXPERIMENTS` to enumerate them or
``btree-perf figures`` to render them with the validation report.
"""

from repro.experiments.common import ExperimentTable
from repro.experiments.registry import EXPERIMENTS, get_experiment

__all__ = [
    "EXPERIMENTS",
    "ExperimentTable",
    "get_experiment",
]
