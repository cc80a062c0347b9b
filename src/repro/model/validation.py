"""Model configurations measured from the simulator.

A model-vs-simulation comparison is only fair when the analytical model
sees the tree the simulator grows.  :func:`measured_shape` measures the
shape of the very tree a run of the configuration starts from and
:func:`measured_model_config` puts it in a model configuration; the
comparison itself lives on the report path
(:mod:`repro.report.validation`).
"""

from __future__ import annotations

from typing import Optional

from repro.btree import collect_statistics
from repro.btree.builder import warm_tree
from repro.model.params import ModelConfig, TreeShape
from repro.simulator.config import SimulationConfig, run_seeds


def measured_shape(sim_config: SimulationConfig) -> TreeShape:
    """The shape of the tree the simulator's runs of ``sim_config``
    start from.

    The tree is :func:`~repro.btree.builder.warm_tree`'s loan, grown
    from the run's derived build seed and rolled back after the
    measurement, so the runs that follow borrow the same template
    instead of growing it again.  A ``"shape"``
    :class:`~repro.parallel.SimTask` computes this in a batch, where
    the result cache serves it on a rerun.
    """
    tree, _levels = warm_tree(
        run_seeds(sim_config.seed)[0], sim_config.n_items, sim_config.order,
        sim_config.mix.insert_share or 1.0, sim_config.key_space)
    try:
        return TreeShape.from_statistics(collect_statistics(tree))
    finally:
        tree.rollback()


def measured_model_config(sim_config: SimulationConfig,
                          shape: Optional[TreeShape] = None,
                          ) -> ModelConfig:
    """A :class:`ModelConfig` whose tree shape is *measured* from the
    tree the simulator's runs of ``sim_config`` start from, so shape
    mismatch cannot pollute a comparison.

    ``shape`` is that tree's :func:`measured_shape` when the caller
    already has it (ext04 gets it from its batch's ``"shape"`` task);
    without it, it is measured here.
    """
    if shape is None:
        shape = measured_shape(sim_config)
    return ModelConfig(mix=sim_config.mix, costs=sim_config.costs,
                       shape=shape, order=sim_config.order)
