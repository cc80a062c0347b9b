"""Model configurations measured from the simulator.

A model-vs-simulation comparison is only fair when the analytical model
sees the tree the simulator grows.  :func:`measured_model_config`
measures the shape of the very tree a run of the configuration starts
from; the comparison itself lives on the report path
(:mod:`repro.report.validation`).
"""

from __future__ import annotations

import random

from repro.btree import build_tree, collect_statistics
from repro.model.params import ModelConfig, TreeShape
from repro.simulator.config import SimulationConfig, run_seeds


def measured_model_config(sim_config: SimulationConfig,
                          ) -> ModelConfig:
    """A :class:`ModelConfig` whose tree shape is *measured* from the
    tree the simulator's runs of ``sim_config`` start from, so shape
    mismatch cannot pollute a comparison.

    That tree is grown from the run's derived build seed; this builds
    it afresh rather than through
    :func:`~repro.btree.builder.warm_tree`, whose memo would keep it
    alive after the measurement.
    """
    tree = build_tree(sim_config.n_items, order=sim_config.order,
                      insert_fraction=sim_config.mix.insert_share or 1.0,
                      key_space=sim_config.key_space,
                      rng=random.Random(run_seeds(sim_config.seed)[0]))
    stats = collect_statistics(tree)
    return ModelConfig(mix=sim_config.mix, costs=sim_config.costs,
                       shape=TreeShape.from_statistics(stats),
                       order=sim_config.order)
