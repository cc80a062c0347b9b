"""Model configurations measured from the simulator.

A model-vs-simulation comparison is only fair when the analytical model
sees the tree the simulator grows.  :func:`measured_model_config` builds
that tree and measures its shape; the comparison itself lives on the
report path (:mod:`repro.report.validation`).
"""

from __future__ import annotations

from repro.btree import build_tree, collect_statistics
from repro.model.params import ModelConfig, TreeShape
from repro.simulator.config import SimulationConfig


def measured_model_config(sim_config: SimulationConfig,
                          ) -> ModelConfig:
    """A :class:`ModelConfig` whose tree shape is *measured* from the
    simulator configuration's construction phase, so shape mismatch
    cannot pollute a comparison."""
    tree = build_tree(sim_config.n_items, order=sim_config.order,
                      insert_fraction=sim_config.mix.insert_share or 1.0,
                      key_space=sim_config.key_space,
                      seed=sim_config.seed)
    stats = collect_statistics(tree)
    return ModelConfig(mix=sim_config.mix, costs=sim_config.costs,
                       shape=TreeShape.from_statistics(stats),
                       order=sim_config.order)
