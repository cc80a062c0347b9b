"""Shape and occupancy statistics of a B-tree.

The analytical model needs the tree-shape inputs of paper Section 5:
per-level fanouts ``E(i)``, the root fanout, per-level node counts, and
the empirical probabilities that a node is insert-unsafe (full) or
delete-unsafe.  ``collect_statistics`` measures all of them from an actual
tree so the model can be driven either by theory (Corollary 1) or by
measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

from repro.btree.tree import BPlusTree

#: Asymptotic fill factor of a random B-tree (ln 2); the paper's 0.69N.
LN2_FILL = math.log(2.0)


@dataclass(frozen=True)
class LevelStatistics:
    """Occupancy summary for one tree level (leaves = level 1)."""

    level: int
    n_nodes: int
    mean_entries: float
    min_entries: int
    max_entries: int
    #: Fraction of the level's nodes that are insert-unsafe (full).
    fraction_full: float
    #: Fraction that are delete-unsafe (one entry, so a delete empties them).
    fraction_delete_unsafe: float


@dataclass(frozen=True)
class TreeStatistics:
    """Whole-tree shape summary."""

    order: int
    height: int
    n_items: int
    levels: List[LevelStatistics] = field(default_factory=list)

    @property
    def root_fanout(self) -> float:
        """Entries in the root (children, or keys for a one-leaf tree)."""
        return self.levels[-1].mean_entries

    def fanout(self, level: int) -> float:
        """Mean entries of a node at ``level`` — the model's E(level)."""
        return self._by_level()[level].mean_entries

    def nodes_at(self, level: int) -> int:
        return self._by_level()[level].n_nodes

    def fill_factor(self) -> float:
        """Leaf-space utilization: mean leaf entries / order."""
        return self._by_level()[1].mean_entries / self.order

    def fraction_full(self, level: int) -> float:
        """Empirical Pr[F(level)]."""
        return self._by_level()[level].fraction_full

    def _by_level(self) -> Dict[int, LevelStatistics]:
        return {stat.level: stat for stat in self.levels}


def collect_statistics(tree: BPlusTree) -> TreeStatistics:
    """Measure per-level occupancy of ``tree`` by walking each level's
    right-link chain."""
    levels: List[LevelStatistics] = []
    for level in range(1, tree.height + 1):
        counts = [node.n_entries() for node in tree.level_nodes(level)]
        n_nodes = len(counts)
        total = sum(counts)
        full = sum(1 for c in counts if c >= tree.order)
        unsafe = sum(
            1 for c, node in zip(counts, tree.level_nodes(level))
            if node is not tree.root and c == 1
        )
        levels.append(LevelStatistics(
            level=level,
            n_nodes=n_nodes,
            mean_entries=total / n_nodes if n_nodes else 0.0,
            min_entries=min(counts) if counts else 0,
            max_entries=max(counts) if counts else 0,
            fraction_full=full / n_nodes if n_nodes else 0.0,
            fraction_delete_unsafe=unsafe / n_nodes if n_nodes else 0.0,
        ))
    return TreeStatistics(
        order=tree.order,
        height=tree.height,
        n_items=len(tree),
        levels=levels,
    )

