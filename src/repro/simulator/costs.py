"""Service-time sampling for the simulator.

All service times are exponentially distributed (paper Section 4) with
the means of the Section 5 cost model: searching a level-i node has mean
``Se(i)``, a leaf modify ``M = 2 Se(1)``, a split ``Sp(i) = 3 Se(i)``.
On-disk levels (all but the top ``in_memory_levels``) are dilated by the
disk cost D.  The dilation is evaluated against the tree's *current*
height, so a root split during the run keeps the same number of cached
levels.
"""

from __future__ import annotations

import random
from typing import Dict

from repro.btree.tree import BPlusTree
from repro.model.params import CostModel


class ServiceTimeSampler:
    """Draws exponential service times for node accesses."""

    def __init__(self, costs: CostModel, tree: BPlusTree,
                 rng: random.Random) -> None:
        self._costs = costs
        self._tree = tree
        self._rng = rng
        #: ``{height: {level: 1 / Se(level)}}``, filled on first use
        #: (``Se`` is positive: ``CostModel`` validates its factors).
        self._search_rates: Dict[int, Dict[int, float]] = {}

    def _exp(self, mean: float) -> float:
        if mean <= 0.0:
            return 0.0
        return self._rng.expovariate(1.0 / mean)

    def search(self, level: int) -> float:
        """Time to search a level-``level`` node."""
        try:
            rate = self._search_rates[self._tree.root.level][level]
        except KeyError:
            height = self._tree.height
            rate = 1.0 / self._costs.se(level, height)
            self._search_rates.setdefault(height, {})[level] = rate
        return self._rng.expovariate(rate)

    def modify(self, level: int = 1) -> float:
        """Time to modify a level-``level`` node (usually a leaf)."""
        return self._exp(self._costs.modify_at(level, self._tree.height))

    def split(self, level: int) -> float:
        """Time to split a level-``level`` node (includes the parent
        modify, matching the analytical Sp(i))."""
        return self._exp(self._costs.sp(level, self._tree.height))

    def merge(self, level: int) -> float:
        """Time to restructure away an empty level-``level`` node."""
        return self._exp(self._costs.mg(level, self._tree.height))

    def half_split(self, level: int) -> float:
        """Time for a Link-type half-split: the node-local part of a
        split.  The parent modify is charged separately (under the
        parent's own W lock), so the two halves together cost Sp(i) on
        average, keeping the total split work identical across
        algorithms."""
        h = self._tree.height
        full = self._costs.sp(level, h)
        parent_level = min(level + 1, h)
        parent_modify = self._costs.modify_at(parent_level, h)
        return self._exp(max(full - parent_modify, 0.25 * full))

    def parent_post(self, level: int) -> float:
        """Time to post a separator into a level-``level`` parent
        (Link-type split completion)."""
        return self._exp(self._costs.modify_at(level, self._tree.height))

    def transaction_remainder(self, t_trans: float) -> float:
        """Remaining transaction time for recovery lock retention."""
        return self._exp(t_trans)
