"""LRU buffer-pool extension.

The paper's conclusions promise "a discussion of ... LRU buffering" for
the full version.  This module supplies the standard model: the B-tree's
pages compete for a buffer pool of ``buffer_pages`` frames under LRU
replacement.  A descent touches one page per level, so the per-page
reference rate at level i is proportional to ``1 / nodes_at(i)`` —
upper levels are hotter, and LRU approximately keeps the hottest pages
resident.  Allocating the buffer top-down gives per-level hit rates:

* levels whose whole page set fits in the remaining budget are fully
  cached (hit rate 1);
* the first level that does not fit gets the leftover frames spread
  uniformly across its pages (hit rate = leftover / n_pages — uniform
  access within a level makes all its pages equally hot);
* everything below misses entirely.

The effective access-time dilation of level i is then
``1 + (1 - hit(i)) * (disk_cost - 1)``, which plugs straight into the
framework through :class:`~repro.model.params.CostModel`'s
``level_dilations``.  The paper's fixed "top two levels in memory" is
the special case of a buffer just large enough for those levels.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

from repro.errors import ConfigurationError
from repro.model.params import CostModel, ModelConfig, TreeShape


@dataclass(frozen=True)
class BufferPlan:
    """Per-level residency of a tree in an LRU buffer pool."""

    buffer_pages: float
    #: Pages per level, leaf-first.
    pages: Tuple[float, ...]
    #: Hit rate per level, leaf-first.
    hit_rates: Tuple[float, ...]


def plan_buffer(shape: TreeShape, buffer_pages: float) -> BufferPlan:
    """Distribute ``buffer_pages`` LRU frames over the tree's levels,
    hottest (top) levels first."""
    if buffer_pages < 0:
        raise ConfigurationError(f"buffer_pages must be >= 0, got {buffer_pages}")
    pages = [shape.nodes_at(level) for level in range(1, shape.height + 1)]
    hit_rates: List[float] = [0.0] * shape.height
    remaining = float(buffer_pages)
    for level in range(shape.height, 0, -1):  # root down
        level_pages = pages[level - 1]
        if remaining <= 0.0:
            break
        if remaining >= level_pages:
            hit_rates[level - 1] = 1.0
            remaining -= level_pages
        else:
            hit_rates[level - 1] = remaining / level_pages
            remaining = 0.0
    return BufferPlan(buffer_pages=float(buffer_pages),
                      pages=tuple(pages), hit_rates=tuple(hit_rates))


def buffered_cost_model(costs: CostModel, shape: TreeShape,
                        buffer_pages: float) -> CostModel:
    """A :class:`CostModel` whose per-level dilations reflect the LRU
    hit rates of a ``buffer_pages``-frame pool."""
    plan = plan_buffer(shape, buffer_pages)
    dilations = tuple(
        1.0 + (1.0 - hit) * (costs.disk_cost - 1.0)
        for hit in plan.hit_rates
    )
    return replace(costs, level_dilations=dilations)


def buffered_config(config: ModelConfig, buffer_pages: float) -> ModelConfig:
    """Copy of ``config`` with the buffer-pool cost model installed."""
    return replace(config, costs=buffered_cost_model(
        config.costs, config.shape, buffer_pages))


def pages_for_top_levels(shape: TreeShape, n_levels: int) -> float:
    """Frames needed to fully cache the top ``n_levels`` levels — the
    buffer size at which this model reduces to the paper's fixed
    in-memory-levels setting."""
    if n_levels < 0:
        raise ConfigurationError(f"n_levels must be >= 0, got {n_levels}")
    top = range(max(1, shape.height - n_levels + 1), shape.height + 1)
    return sum(shape.nodes_at(level) for level in top)
