"""B+-tree nodes.

Leaves are at level 1 and the root at level ``h``, matching the paper's
indexing.  Every node carries a right link and a high key so that the same
tree structure supports both the lock-coupling algorithms (which ignore
the links) and the Link-type algorithm (which relies on them):

* ``right`` — the node's right neighbour on the same level, or None for
  the rightmost node.
* ``high_key`` — exclusive upper bound on the keys reachable through this
  node; None means "+infinity" (rightmost node of its level).

A Lehman-Yao descent that lands on a node whose ``high_key`` is <= the
search key has been overtaken by a split and must follow the right link
(a "link crossing", paper Figure 9).
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, Optional

from repro.errors import BTreeError

_node_ids = itertools.count(1)

#: The running simulation's lock factory (see :func:`lock_factory`), or
#: None outside a run.
_lock_factory: Optional[Callable[["Node"], Any]] = None


@contextmanager
def lock_factory(factory: Callable[["Node"], Any]) -> Iterator[None]:
    """Within the block, a node whose ``lock`` was never set gets
    ``factory(node)`` on the first read of it.

    A run creates only the locks its operations reach this way, instead
    of one per node up front.
    """
    global _lock_factory
    outer, _lock_factory = _lock_factory, factory
    try:
        yield
    finally:
        _lock_factory = outer


class Node:
    """Common state for leaf and internal nodes."""

    __slots__ = ("node_id", "level", "keys", "right", "high_key", "_lock", "dead")

    def __init__(self, level: int) -> None:
        self.node_id: int = next(_node_ids)
        self.level: int = level
        self.keys: List[int] = []
        self.right: Optional["Node"] = None
        self.high_key: Optional[int] = None
        self._lock = None
        #: Set when the node has been removed from the tree (merge-at-empty
        #: deallocation); descents that raced here must restart/relink.
        self.dead: bool = False

    @property
    def lock(self) -> Any:
        """Concurrency-control slot: the simulator's RWLock for this node.

        Unset, the first read inside a run asks the run's
        :func:`lock_factory` for it; outside a run it reads None.
        """
        lock = self._lock
        if lock is None and _lock_factory is not None:
            lock = self._lock = _lock_factory(self)
        return lock

    @lock.setter
    def lock(self, lock: Any) -> None:
        self._lock = lock

    @property
    def is_leaf(self) -> bool:
        return self.level == 1

    def n_entries(self) -> int:
        """Number of occupancy-relevant entries (keys for a leaf,
        children for an internal node)."""
        raise NotImplementedError

    def covers(self, key: int) -> bool:
        """True when ``key`` falls inside this node's key range
        (i.e. no right-link chase is needed)."""
        return self.high_key is None or key < self.high_key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "Leaf" if self.is_leaf else "Internal"
        return (f"<{kind} #{self.node_id} level={self.level} "
                f"n={self.n_entries()} high={self.high_key}>")


class LeafNode(Node):
    """Level-1 node holding the keys themselves (B+-tree: all keys live
    in the leaves)."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(level=1)

    def n_entries(self) -> int:
        return len(self.keys)

    def contains(self, key: int) -> bool:
        i = bisect_left(self.keys, key)
        return i < len(self.keys) and self.keys[i] == key

    def insert_key(self, key: int) -> bool:
        """Insert ``key`` keeping order; returns False if already present."""
        i = bisect_left(self.keys, key)
        if i < len(self.keys) and self.keys[i] == key:
            return False
        self.keys.insert(i, key)
        return True

    def delete_key(self, key: int) -> bool:
        """Remove ``key``; returns False if it was absent."""
        i = bisect_left(self.keys, key)
        if i < len(self.keys) and self.keys[i] == key:
            del self.keys[i]
            return True
        return False


class InternalNode(Node):
    """A router node: ``keys`` are separators, ``children`` the subtrees.

    The invariant is ``len(children) == len(keys) + 1``; keys reachable
    through ``children[i]`` satisfy ``keys[i-1] <= k < keys[i]`` (with the
    usual open ends).
    """

    __slots__ = ("children",)

    def __init__(self, level: int) -> None:
        if level < 2:
            raise BTreeError(f"internal node cannot be at level {level}")
        super().__init__(level)
        self.children: List[Node] = []

    def n_entries(self) -> int:
        return len(self.children)

    def child_index_for(self, key: int) -> int:
        """Index of the child responsible for ``key``."""
        return bisect_right(self.keys, key)

    def child_for(self, key: int) -> Node:
        """The child responsible for ``key``."""
        return self.children[self.child_index_for(key)]

    def insert_router(self, separator: int, right_child: Node) -> None:
        """Insert the (separator, right-child) pair produced by a split.

        ``right_child`` becomes the subtree for keys >= ``separator`` up to
        the next separator; its left sibling (the node that split) must
        already be a child of this node.
        """
        i = bisect_left(self.keys, separator)
        if i < len(self.keys) and self.keys[i] == separator:
            raise BTreeError(f"duplicate separator {separator} in node "
                             f"#{self.node_id}")
        self.keys.insert(i, separator)
        self.children.insert(i + 1, right_child)

    def remove_child(self, child: Node) -> None:
        """Remove an (empty) child pointer and the separator next to it.

        Removing ``children[i]`` for ``i > 0`` discards ``keys[i-1]``; for
        ``i == 0`` it discards ``keys[0]`` (the remaining children still
        partition the key range correctly because the removed child was
        empty).
        """
        try:
            i = self.children.index(child)
        except ValueError:
            raise BTreeError(
                f"node #{child.node_id} is not a child of #{self.node_id}"
            ) from None
        del self.children[i]
        if self.keys:
            del self.keys[i - 1 if i > 0 else 0]
        # Removing the only child (merge-at-empty propagation) leaves the
        # node with no entries; the caller then removes this node too.
