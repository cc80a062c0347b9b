"""Rules of Thumb (paper Section 6).

Closed-form approximations of the "effective maximum arrival rate"
``lambda_{rho=.5}`` — the arrival rate at which the root writer
utilization reaches one half, beyond which waiting grows
disproportionately:

* Rule 1 — Naive Lock-coupling, full form.
* Rule 2 — Naive Lock-coupling in the large-node / large-root-fanout
  limit: the maximum rate no longer depends on the node size at all.
* Rule 3 — Optimistic Descent, full form (writers are the redo
  operations, rate ``q_i Pr[F(1)] lambda``, so the achievable rate grows
  roughly like N / log^2 N with the node size).
* Rule 4 — Optimistic Descent limit.

The contrast between Rules 2 and 4 is the paper's design guidance: keep
nodes small for Naive Lock-coupling, make them as large as possible for
Optimistic Descent.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.errors import ConfigurationError
from repro.model.occupancy import OccupancyModel
from repro.model.params import ModelConfig
from repro.model.results import occupancy_for


def _common_inputs(config: ModelConfig,
                   occupancy: Optional[OccupancyModel]):
    h = config.height
    if h < 2:
        raise ConfigurationError("rules of thumb need a tree of height >= 2")
    occ = occupancy_for(config, occupancy)
    se_root = config.costs.se(h, h)
    se_2 = config.costs.se(2, h)
    e_root = config.shape.root_fanout
    return occ, se_root, se_2, e_root


def rule_of_thumb_1(config: ModelConfig,
                    occupancy: Optional[OccupancyModel] = None) -> float:
    """Naive Lock-coupling: lambda such that the root rho_w is 0.5."""
    mix = config.mix
    q_s = mix.q_search
    if q_s >= 1.0:
        raise ConfigurationError("rule of thumb 1 needs some updates (q_s < 1)")
    occ, se_root, se_2, e_root = _common_inputs(config, occupancy)
    pr_f_below_root = occ.full(config.height - 1)

    root_term = se_root * (1.0 + math.log1p(q_s / (2.0 * (1.0 - q_s))))
    child_weight = (1.0 / (2.0 * e_root - 1.0)
                    + mix.insert_share * pr_f_below_root)
    child_term = se_2 * (1.5 + q_s / (2.0 * e_root * (1.0 - q_s)))
    denominator = 2.0 * (1.0 - q_s) * (root_term + child_weight * child_term)
    return 1.0 / denominator


def rule_of_thumb_2(config: ModelConfig) -> float:
    """Naive Lock-coupling, large-node limit: independent of N."""
    q_s = config.mix.q_search
    if q_s >= 1.0:
        raise ConfigurationError("rule of thumb 2 needs some updates (q_s < 1)")
    se_root = config.costs.se(config.height, config.height)
    root_term = se_root * (1.0 + math.log1p(q_s / (2.0 * (1.0 - q_s))))
    return 1.0 / (2.0 * (1.0 - q_s) * root_term)


def rule_of_thumb_3(config: ModelConfig,
                    occupancy: Optional[OccupancyModel] = None) -> float:
    """Optimistic Descent: lambda such that the root rho_w is 0.5.

    Writers at the root are the redo operations, so the writer fraction
    is ``q_i Pr[F(1)]`` and the reader/writer ratio is its reciprocal
    (too large for the ``ln(1+x) ~= x`` shortcut of Rule 1).
    """
    mix = config.mix
    occ, se_root, se_2, e_root = _common_inputs(config, occupancy)
    writer_fraction = mix.q_insert * occ.full(1)
    if writer_fraction <= 0.0:
        raise ConfigurationError(
            "rule of thumb 3 needs inserts that can split (q_i Pr[F(1)] > 0)")
    pr_f_below_root = occ.full(config.height - 1)

    root_term = se_root * (1.0 + math.log1p(1.0 / (2.0 * writer_fraction)))
    child_weight = (1.0 / (2.0 * e_root - 1.0)
                    + mix.insert_share * pr_f_below_root)
    child_term = se_2 * (
        1.5 + math.log1p(1.0 / (2.0 * e_root * writer_fraction)))
    denominator = 2.0 * writer_fraction * (root_term + child_weight * child_term)
    return 1.0 / denominator


def rule_of_thumb_4(config: ModelConfig,
                    occupancy: Optional[OccupancyModel] = None) -> float:
    """Optimistic Descent, large-node limit."""
    mix = config.mix
    occ, se_root, _se_2, _e_root = _common_inputs(config, occupancy)
    writer_fraction = mix.q_insert * occ.full(1)
    if writer_fraction <= 0.0:
        raise ConfigurationError(
            "rule of thumb 4 needs inserts that can split (q_i Pr[F(1)] > 0)")
    root_term = se_root * (1.0 + math.log1p(1.0 / (2.0 * writer_fraction)))
    return 1.0 / (2.0 * writer_fraction * root_term)
