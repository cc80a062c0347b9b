"""Node-occupancy probabilities: Pr[F(i)], Pr[Em(i)] and E(i).

These are the restructuring inputs of the framework, taken from the
paper's Corollary 1 (which itself summarises Johnson & Shasha's B-tree
utilization results, refs [9] and [10]):

* With at least 5% more inserts than deletes in the mix and a
  merge-at-empty tree,

  - ``Pr[F(1)] = (1 - 2q) / ((1 - q) * 0.68 * N)`` where ``q`` is the
    delete fraction among updates (``q_d / (q_i + q_d)``),
  - ``Pr[F(j)] = 1 / (0.69 * N)`` for 1 < j <= h,
  - ``Pr[Em(j)] ~= 0`` (leaf merges are almost never triggered and
    propagated merges are "infinitely" rarer).

* The effective fanout below the root is 0.69 N (the ln 2 fill factor of
  random B-trees).

The class also accepts measured probabilities from an actual tree, which
the integration tests use to cross-check the closed forms.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

from repro.btree.stats import TreeStatistics
from repro.errors import ConfigurationError
from repro.model.params import OperationMix

#: Fill-factor constant in Corollary 1's leaf formula.
LEAF_FILL = 0.68
#: Fill-factor constant for the levels above the leaves (ln 2 rounded as
#: the paper rounds it).
INTERNAL_FILL = 0.69


def pr_full_leaf(mix: OperationMix, order: int) -> float:
    """Corollary 1: probability that a leaf is insert-unsafe (full)."""
    q = mix.delete_share
    if q >= 0.5:
        raise ConfigurationError(
            "Corollary 1 requires more inserts than deletes "
            f"(delete share {q:.3f} >= 0.5)"
        )
    return (1.0 - 2.0 * q) / ((1.0 - q) * LEAF_FILL * order)


def pr_full_internal(order: int) -> float:
    """Corollary 1: probability that a non-leaf node is full (the
    pure-insert-tree value)."""
    return 1.0 / (INTERNAL_FILL * order)


@dataclass(frozen=True)
class OccupancyModel:
    """Per-level insert-unsafe / delete-unsafe probabilities.

    ``pr_full[i-1]`` is Pr[F(i)] for levels i = 1..h.  ``pr_empty`` is
    Pr[Em(i)], zero by default per Corollary 1.
    """

    pr_full: Sequence[float]
    pr_empty: Sequence[float]

    def __post_init__(self) -> None:
        if len(self.pr_full) != len(self.pr_empty):
            raise ConfigurationError("pr_full and pr_empty lengths differ")
        for p in list(self.pr_full) + list(self.pr_empty):
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(f"probability {p} outside [0, 1]")

    @property
    def height(self) -> int:
        return len(self.pr_full)

    def full(self, level: int) -> float:
        """Pr[F(level)]."""
        return self.pr_full[level - 1]

    def empty(self, level: int) -> float:
        """Pr[Em(level)]."""
        return self.pr_empty[level - 1]

    def split_propagation(self, top_level: int) -> float:
        """``prod_{k=1..top_level} Pr[F(k)]`` — probability that an insert
        splits every node up to and including ``top_level``."""
        product = 1.0
        for level in range(1, top_level + 1):
            product *= self.full(level)
        return product

    def merge_propagation(self, top_level: int) -> float:
        """``prod_{k=1..top_level} Pr[Em(k)]``."""
        product = 1.0
        for level in range(1, top_level + 1):
            product *= self.empty(level)
        return product

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    @functools.lru_cache(maxsize=256)
    def corollary1(cls, mix: OperationMix, order: int,
                   height: int) -> "OccupancyModel":
        """The paper's closed-form occupancy (Corollary 1).

        Memoized: every analysis at every arrival rate asks for it, and it
        is a pure function of immutable inputs.  Errors are not cached.
        """
        full = [pr_full_leaf(mix, order)]
        full.extend(pr_full_internal(order) for _ in range(height - 1))
        empty = [0.0] * height
        return cls(pr_full=tuple(full), pr_empty=tuple(empty))

    @classmethod
    def measured(cls, stats: TreeStatistics) -> "OccupancyModel":
        """Empirical occupancy taken from an actual tree's statistics."""
        full = tuple(stats.fraction_full(level)
                     for level in range(1, stats.height + 1))
        empty = tuple(level_stat.fraction_delete_unsafe
                      for level_stat in stats.levels)
        return cls(pr_full=full, pr_empty=empty)

    @classmethod
    def uniform(cls, pr_full: float, height: int,
                pr_empty: float = 0.0) -> "OccupancyModel":
        """Constant probabilities across levels (tests and ablations)."""
        return cls(pr_full=(pr_full,) * height,
                   pr_empty=(pr_empty,) * height)

