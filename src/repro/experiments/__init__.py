"""Experiment drivers regenerating every figure of the paper.

Each ``figNN`` function in :mod:`repro.experiments.figures` reproduces the
corresponding paper figure as an :class:`~repro.experiments.common.ExperimentTable`
(the plotted series as rows), and each ``extNN`` function in
:mod:`repro.experiments.extensions` one extension figure.  ``scale``
shrinks the simulation effort for quick runs; ``scale=1.0`` matches the
paper's 10,000 measured operations and 5 seeds.

A driver with a simulated series is a generator that yields its
simulation tasks once and returns its table.  Use
:data:`repro.report.FIGURES` to enumerate them (``get_figure(id).run``
regenerates one) or ``btree-perf figures`` to render them with the
validation report.
"""

from repro.experiments.common import ExperimentTable

__all__ = [
    "ExperimentTable",
]
