"""Model inputs: operation mix, cost model and tree shape.

All three analyses consume a single :class:`ModelConfig` combining:

* :class:`OperationMix` — the probabilities (q_s, q_i, q_d) that an
  arriving operation is a search, insert or delete;
* :class:`CostModel` — the serial access-time parameters of paper
  Section 5 (Se(i), M, Sp(i), Mg(i)) expressed through the Section 5.3
  conventions: the time unit is one root search, on-disk levels are
  dilated by the disk cost D, a leaf modify costs twice a leaf search and
  a split three times a search;
* :class:`TreeShape` — the height h and per-level fanouts E(i), either
  idealised from (n_items, order) with the 0.69 N fill rule or measured
  from an actual tree.

``paper_default_config()`` reproduces the experimental setting of Section
5.3: N = 13, ~40,000 items, h = 5, root fanout ~6, two in-memory levels,
D = 5, mix (.3, .5, .2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Tuple

from repro.btree.stats import LN2_FILL, TreeStatistics
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class OperationMix:
    """Probabilities that an arriving operation is a search / insert /
    delete.  They must sum to 1."""

    q_search: float
    q_insert: float
    q_delete: float

    def __post_init__(self) -> None:
        for name, q in (("q_search", self.q_search),
                        ("q_insert", self.q_insert),
                        ("q_delete", self.q_delete)):
            if not 0.0 <= q <= 1.0:
                raise ConfigurationError(f"{name}={q} outside [0, 1]")
        total = self.q_search + self.q_insert + self.q_delete
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
            raise ConfigurationError(
                f"operation mix (q_search={self.q_search}, "
                f"q_insert={self.q_insert}, q_delete={self.q_delete}) "
                f"sums to {total}, not 1")

    @property
    def q_update(self) -> float:
        """Probability of an update (insert or delete)."""
        return self.q_insert + self.q_delete

    @property
    def insert_share(self) -> float:
        """q_i / (q_i + q_d): the insert fraction among updates."""
        if self.q_update == 0.0:
            return 0.0
        return self.q_insert / self.q_update

    @property
    def delete_share(self) -> float:
        """q_d / (q_i + q_d): Corollary 1's mix parameter ``q``."""
        if self.q_update == 0.0:
            return 0.0
        return self.q_delete / self.q_update

    def grows(self) -> bool:
        """True when inserts outnumber deletes (steady-state assumption)."""
        return self.q_insert > self.q_delete


#: The paper's concurrent-operation proportions (Section 5.3).
PAPER_MIX = OperationMix(q_search=0.3, q_insert=0.5, q_delete=0.2)


@dataclass(frozen=True)
class CostModel:
    """Serial access-time parameters (paper Section 5 parameter list).

    Times are in units of one in-memory node search; the root search is
    the paper's unit of time because the top levels are cached.
    """

    #: Time to search an in-memory node (the time unit).
    node_search_time: float = 1.0
    #: Dilation factor for a node that lives on disk (paper's D).
    disk_cost: float = 5.0
    #: Number of levels (counted from the root) held in memory.
    in_memory_levels: int = 2
    #: Leaf modify cost as a multiple of the leaf search cost.
    modify_factor: float = 2.0
    #: Split cost (including the parent modify) as a multiple of search.
    split_factor: float = 3.0
    #: Merge cost multiplier; merges are negligible under merge-at-empty
    #: but the Theorem 1 formulas accept a cost anyway.
    merge_factor: float = 3.0
    #: Optional explicit per-level access multipliers, indexed leaf-first
    #: (``level_dilations[0]`` is the leaves').  When given they replace
    #: the sharp in-memory/on-disk split — the LRU buffering extension
    #: (:mod:`repro.model.buffering`) produces fractional dilations from
    #: per-level hit rates.
    level_dilations: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.node_search_time <= 0:
            raise ConfigurationError("node_search_time must be positive")
        if self.disk_cost < 1.0:
            raise ConfigurationError(
                f"disk_cost is a dilation factor >= 1, got {self.disk_cost}")
        if self.in_memory_levels < 0:
            raise ConfigurationError("in_memory_levels must be >= 0")
        if self.level_dilations is not None:
            if any(d < 1.0 for d in self.level_dilations):
                raise ConfigurationError("level dilations must be >= 1")

    def dilation(self, level: int, height: int) -> float:
        """Access-time multiplier for ``level`` (leaves = 1, root = h)."""
        if self.level_dilations is not None:
            if not 1 <= level <= len(self.level_dilations):
                raise ConfigurationError(
                    f"no dilation for level {level}; "
                    f"{len(self.level_dilations)} levels configured")
            return self.level_dilations[level - 1]
        if level > height - self.in_memory_levels:
            return 1.0
        return self.disk_cost

    def se(self, level: int, height: int) -> float:
        """Se(i): expected time to search a level-``level`` node."""
        return self.node_search_time * self.dilation(level, height)

    def modify(self, height: int) -> float:
        """M: expected time to modify a leaf."""
        return self.modify_factor * self.se(1, height)

    def modify_at(self, level: int, height: int) -> float:
        """Generalised modify cost for a level-``level`` node (used by the
        Link-type model where parents are updated under their own lock)."""
        return self.modify_factor * self.se(level, height)

    def sp(self, level: int, height: int) -> float:
        """Sp(i): expected time to split a level-``level`` node (includes
        the parent modify, per the paper's parameter list)."""
        return self.split_factor * self.se(level, height)

    def mg(self, level: int, height: int) -> float:
        """Mg(i): expected time to merge a level-``level`` node."""
        return self.merge_factor * self.se(level, height)


def check_t_trans(t_trans: float) -> None:
    """Refuse a ``T_trans`` (remaining transaction time under a recovery
    policy) that is not finite and >= 0: the model adds it to W hold
    times and the simulator holds locks for a draw of it."""
    if not (math.isfinite(t_trans) and t_trans >= 0):
        raise ConfigurationError(
            f"t_trans must be finite and >= 0, got {t_trans}")


@dataclass(frozen=True)
class TreeShape:
    """Height and per-level fanouts.

    ``fanouts[i]`` (for i = 2 .. h, exposed through :meth:`fanout`) is
    E(i): the expected number of children of a level-i node.  The root's
    fanout depends on tree size; below the root it is ~0.69 N.
    """

    height: int
    #: E(2) ... E(h) as a tuple indexed by level-2 offset.
    _fanouts: Tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.height < 1:
            raise ConfigurationError(f"height must be >= 1, got {self.height}")
        if len(self._fanouts) != max(0, self.height - 1):
            raise ConfigurationError(
                f"need {self.height - 1} fanouts for height {self.height}, "
                f"got {len(self._fanouts)}"
            )
        if any(f < 1.0 for f in self._fanouts):
            raise ConfigurationError("fanouts must be >= 1")

    @staticmethod
    def from_fanouts(fanouts: Tuple[float, ...]) -> "TreeShape":
        """Build from (E(2), ..., E(h))."""
        return TreeShape(height=len(fanouts) + 1, _fanouts=tuple(fanouts))

    @classmethod
    def ideal(cls, n_items: int, order: int,
              fill: float = LN2_FILL) -> "TreeShape":
        """Idealised shape of a random tree: per-level node counts shrink
        by the effective fanout 0.69 N until one root remains."""
        if n_items < 1:
            return cls(height=1, _fanouts=())
        effective = max(2.0, fill * order)
        counts = [max(1.0, n_items / effective)]  # leaves
        while counts[-1] > 1.0:
            counts.append(max(1.0, counts[-1] / effective))
        # counts[k] = number of nodes at level k+1; root is the last.
        fanouts = []
        for i in range(1, len(counts)):
            fanouts.append(counts[i - 1] / counts[i])
        if fanouts:
            # A real root has at least 2 children (it is collapsed
            # otherwise), so clamp the idealised root fanout.
            fanouts[-1] = max(2.0, fanouts[-1])
        return cls(height=len(counts), _fanouts=tuple(fanouts))

    @classmethod
    def from_statistics(cls, stats: TreeStatistics) -> "TreeShape":
        """Measured shape: E(i) = mean children of level-i nodes."""
        fanouts = tuple(stats.fanout(level)
                        for level in range(2, stats.height + 1))
        return cls(height=stats.height, _fanouts=fanouts)

    def fanout(self, level: int) -> float:
        """E(level) for level in 2..h."""
        if not 2 <= level <= self.height:
            raise ConfigurationError(
                f"no fanout for level {level} in a height-{self.height} tree")
        return self._fanouts[level - 2]

    @property
    def root_fanout(self) -> float:
        """E(h): the number of children of the root."""
        if self.height == 1:
            return 1.0
        return self.fanout(self.height)

    def nodes_at(self, level: int) -> float:
        """Expected number of nodes at ``level`` (root = 1)."""
        if not 1 <= level <= self.height:
            raise ConfigurationError(f"no level {level}")
        count = 1.0
        for upper in range(level + 1, self.height + 1):
            count *= self.fanout(upper)
        return count

    def arrival_share(self, level: int) -> float:
        """Fraction of the total arrival rate seen by one node of
        ``level`` — Proposition 2's repeated division by fanouts."""
        return 1.0 / self.nodes_at(level)


@dataclass(frozen=True)
class ModelConfig:
    """Everything an analysis needs except the arrival rate."""

    mix: OperationMix
    costs: CostModel
    shape: TreeShape
    #: Maximum node size N (entries per node).
    order: int

    def __post_init__(self) -> None:
        if self.order < 3:
            raise ConfigurationError(f"order must be >= 3, got {self.order}")

    @property
    def height(self) -> int:
        return self.shape.height

    def with_disk_cost(self, disk_cost: float) -> "ModelConfig":
        """Copy with a different disk dilation (Figure 11 sweeps this)."""
        return replace(self, costs=replace(self.costs, disk_cost=disk_cost))


#: Item count of the paper's experimental tree.
PAPER_N_ITEMS = 40_000
#: Maximum node size of the paper's experimental tree.
PAPER_ORDER = 13


def paper_default_config(order: int = PAPER_ORDER,
                         n_items: int = PAPER_N_ITEMS,
                         disk_cost: float = 5.0,
                         mix: OperationMix = PAPER_MIX,
                         in_memory_levels: int = 2) -> ModelConfig:
    """The Section 5.3 experimental configuration."""
    return ModelConfig(
        mix=mix,
        costs=CostModel(disk_cost=disk_cost,
                        in_memory_levels=in_memory_levels),
        shape=TreeShape.ideal(n_items, order),
        order=order,
    )
