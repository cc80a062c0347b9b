"""The B+-tree.

``BPlusTree`` provides two API layers:

1. **Whole operations** (``search`` / ``insert`` / ``delete``) used by the
   construction phase and the sequential tests.  Underflow follows the
   paper's merge-at-empty policy (:mod:`repro.btree.policies`): a
   non-root node is removed once it is empty and never rebalanced.
2. **Structure-modification primitives** (``half_split``, ``grow_root``,
   ``complete_split``, ``remove_empty_leaf`` ...) that the concurrent
   algorithms call while holding the appropriate locks.  The whole
   operations are themselves built from these primitives, so the exact
   code paths exercised concurrently are also covered by the sequential
   test suite.

Capacity convention (paper Section 5.3: "a node ... held a maximum of 13
items"): a leaf holds at most ``order`` keys and an internal node at most
``order`` children.  A node *overflows* when one more entry would exceed
that, so insert-safety is ``n_entries < order``.

Right links and high keys are maintained by **every** structural change,
not just by the Link-type algorithm, so a single tree implementation
serves all three concurrency-control schemes.

Every node write goes through this module, so :meth:`BPlusTree.journal`
can record the state of each node before its first change and
:meth:`BPlusTree.rollback` can put it back: the runs of a batch share
one tree, and each undoes its changes afterwards instead of copying the
tree first.  A run outside a batch owns its tree and opens no journal.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.btree.node import InternalNode, LeafNode, Node
from repro.errors import BTreeError, ConfigurationError

NodeHook = Optional[Callable[[Node], None]]


def check_order(order: int) -> None:
    """Refuse a node size below 3, which cannot split."""
    if order < 3:
        raise ConfigurationError(f"order must be >= 3, got {order}")


class BPlusTree:
    """A merge-at-empty B+-tree with right links.

    Parameters
    ----------
    order:
        Maximum entries per node (keys in a leaf, children in an internal
        node).  The paper's default experiment uses 13.
    on_new_node / on_free_node:
        Hooks invoked whenever a node is allocated or deallocated; the
        simulator uses ``on_new_node`` to register each new node's level.

    The :attr:`on_root_change` hook (None unless set) is called with the
    new root whenever :meth:`grow_root` or a root collapse replaces it;
    the simulator uses it to keep sampling the root's lock.  The tree
    never reads :attr:`spare_locks`: it holds the node locks simulator
    runs on this tree hand on to the next run on it.
    """

    def __init__(self, order: int = 13,
                 on_new_node: NodeHook = None,
                 on_free_node: NodeHook = None) -> None:
        check_order(order)
        self.order = order
        self.on_new_node = on_new_node
        self.on_free_node = on_free_node
        self.on_root_change: NodeHook = None
        self.spare_locks: list = []
        self._size = 0
        self._splits = 0
        self._merges = 0
        #: Undo journal: each changed node's state before its first
        #: change (see :meth:`journal`), or None when not recording.
        self._undo: Optional[Dict[Node, tuple]] = None
        self._undo_tree: tuple = ()
        self.root: Node = self._new_leaf()

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def _new_leaf(self) -> LeafNode:
        node = LeafNode()
        if self.on_new_node is not None:
            self.on_new_node(node)
        return node

    def _new_internal(self, level: int) -> InternalNode:
        node = InternalNode(level)
        if self.on_new_node is not None:
            self.on_new_node(node)
        return node

    def _free(self, node: Node) -> None:
        if self._undo is not None:
            self._save(node)
        node.dead = True
        if self.on_free_node is not None:
            self.on_free_node(node)

    # ------------------------------------------------------------------
    # Undo journal
    # ------------------------------------------------------------------
    def journal(self) -> None:
        """Start recording changes so :meth:`rollback` can undo them.

        From now on each node is saved (its ``keys``/``children`` copied,
        its ``right``/``high_key``/``dead`` kept) just before its first
        change, and the tree's own state is saved now.  Nodes no change
        reaches are never copied.
        """
        self._undo = {}
        self._undo_tree = (self.root, self._size, self._splits,
                           self._merges, self.on_new_node)

    @property
    def journaling(self) -> bool:
        """True from :meth:`journal` until :meth:`rollback`."""
        return self._undo is not None

    def rollback(self) -> None:
        """Put back the state :meth:`journal` saw and stop recording.

        Nodes allocated since then become unreachable again.  Does
        nothing when no journal is open.
        """
        undo, self._undo = self._undo, None
        if undo is None:
            return
        for node, (keys, children, right, high_key, dead) in undo.items():
            node.keys = keys
            if children is not None:
                node.children = children  # type: ignore[attr-defined]
            node.right = right
            node.high_key = high_key
            node.dead = dead
        (self.root, self._size, self._splits, self._merges,
         self.on_new_node) = self._undo_tree
        self._undo_tree = ()

    def _save(self, *nodes: Optional[Node]) -> None:
        """Journal each of ``nodes`` (None skipped) not journaled yet."""
        undo = self._undo
        assert undo is not None
        for node in nodes:
            if node is not None and node not in undo:
                undo[node] = (
                    node.keys[:],
                    None if node.is_leaf
                    else node.children[:],  # type: ignore[attr-defined]
                    node.right, node.high_key, node.dead)

    # ------------------------------------------------------------------
    # Shape and occupancy queries
    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        """Number of levels; a lone leaf is height 1."""
        return self.root.level

    def __len__(self) -> int:
        return self._size

    @property
    def split_count(self) -> int:
        """Total node splits performed since construction."""
        return self._splits

    @property
    def merge_count(self) -> int:
        """Total emptied nodes removed (root collapses not counted)."""
        return self._merges

    def is_insert_safe(self, node: Node) -> bool:
        """True when adding one entry cannot overflow ``node``."""
        return node.n_entries() < self.order

    def is_delete_safe(self, node: Node) -> bool:
        """True when removing one entry cannot empty ``node``.

        The root never underflows for safety purposes (it shrinks instead).
        """
        return node is self.root or node.n_entries() != 1

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def find_leaf(self, key: int) -> LeafNode:
        """Descend to the leaf responsible for ``key`` (no link chasing
        needed in sequential use)."""
        node = self.root
        while not node.is_leaf:  # ``child_for``, inlined for the build
            node = node.children[  # type: ignore[union-attr]
                bisect_right(node.keys, key)]
        return node  # type: ignore[return-value]

    def path_to(self, key: int) -> List[Node]:
        """Root-to-leaf path for ``key`` (root first)."""
        path: List[Node] = []
        node = self.root
        while True:
            path.append(node)
            if node.is_leaf:
                return path
            node = node.child_for(key)  # type: ignore[union-attr]

    def search(self, key: int) -> bool:
        """Membership test."""
        return self.find_leaf(key).contains(key)

    def __contains__(self, key: int) -> bool:
        return self.search(key)

    def __iter__(self) -> Iterator[int]:
        """Iterate all keys in ascending order (alias of :meth:`items`)."""
        return self.items()

    def leftmost_leaf(self) -> LeafNode:
        node = self.root
        while not node.is_leaf:
            node = node.children[0]  # type: ignore[union-attr]
        return node  # type: ignore[return-value]

    def leaves(self) -> Iterator[LeafNode]:
        """Iterate leaves left-to-right along the link chain."""
        node: Optional[Node] = self.leftmost_leaf()
        while node is not None:
            yield node  # type: ignore[misc]
            node = node.right

    def items(self) -> Iterator[int]:
        """All keys in ascending order."""
        for leaf in self.leaves():
            yield from leaf.keys

    def range_search(self, low: int, high: int) -> Iterator[int]:
        """All keys in ``[low, high)`` in ascending order.

        Locates the leaf responsible for ``low`` and walks the leaf
        chain — the access pattern that makes B+-trees (and especially
        B-link trees) the index of choice for range predicates.
        """
        if high <= low:
            return
        node: Optional[Node] = self.find_leaf(low)
        while node is not None:
            for key in node.keys:
                if key >= high:
                    return
                if key >= low:
                    yield key
            if node.high_key is not None and node.high_key >= high:
                return
            node = node.right

    def level_nodes(self, level: int) -> Iterator[Node]:
        """Iterate the nodes of ``level`` left-to-right via right links."""
        if not 1 <= level <= self.height:
            raise BTreeError(f"no level {level} in a tree of height {self.height}")
        node = self.root
        while node.level > level:
            node = node.children[0]  # type: ignore[union-attr]
        current: Optional[Node] = node
        while current is not None:
            yield current
            current = current.right

    # ------------------------------------------------------------------
    # Structure-modification primitives (used under locks)
    # ------------------------------------------------------------------
    def half_split(self, node: Node) -> Tuple[Node, int]:
        """Split ``node`` into itself plus a new right sibling.

        Moves the upper half of the entries to the sibling, fixes right
        links and high keys, and returns ``(sibling, separator)``.  The
        caller is responsible for posting the separator into the parent
        (``complete_split``) or growing the root (``grow_root``) — this is
        exactly the Lehman-Yao half-split, and the lock-coupling
        algorithms reuse it with the whole path locked.
        """
        if self._undo is not None:
            self._save(node)
        if node.is_leaf:
            sibling: Node = self._new_leaf()
            mid = len(node.keys) // 2
            sibling.keys = node.keys[mid:]
            node.keys = node.keys[:mid]
            separator = sibling.keys[0]
        else:
            assert isinstance(node, InternalNode)
            sibling = self._new_internal(node.level)
            mid = len(node.children) // 2
            # keys[mid-1] is promoted as the separator.
            separator = node.keys[mid - 1]
            sibling.keys = node.keys[mid:]
            sibling.children = node.children[mid:]
            node.keys = node.keys[: mid - 1]
            node.children = node.children[:mid]
        sibling.right = node.right
        sibling.high_key = node.high_key
        node.right = sibling
        node.high_key = separator
        self._splits += 1
        return sibling, separator

    def complete_split(self, parent: InternalNode, separator: int,
                       sibling: Node) -> None:
        """Post a half-split into ``parent`` (which may then overflow)."""
        if parent.level != sibling.level + 1:
            raise BTreeError(
                f"parent level {parent.level} does not sit above sibling "
                f"level {sibling.level}"
            )
        if self._undo is not None:
            self._save(parent)
        parent.insert_router(separator, sibling)

    def grow_root(self, old_root: Node, separator: int, sibling: Node) -> InternalNode:
        """Create a new root above a split ``old_root``; returns it."""
        if old_root is not self.root:
            raise BTreeError("grow_root called on a node that is not the root")
        new_root = self._new_internal(old_root.level + 1)
        new_root.keys = [separator]
        new_root.children = [old_root, sibling]
        self.root = new_root
        if self.on_root_change is not None:
            self.on_root_change(new_root)
        return new_root

    def overflowed(self, node: Node) -> bool:
        """True when ``node`` holds more entries than ``order`` allows."""
        return node.n_entries() > self.order

    def split_path(self, path: List[Node]) -> int:
        """Split every overflowed node along a root-first ``path``.

        Used by the lock-coupling algorithms after a leaf insert while the
        whole unsafe path is W-locked.  Returns the number of splits.
        """
        n_splits = 0
        for depth in range(len(path) - 1, -1, -1):
            node = path[depth]
            if not self.overflowed(node):
                break
            sibling, separator = self.half_split(node)
            n_splits += 1
            if depth == 0:
                self.grow_root(node, separator, sibling)
            else:
                parent = path[depth - 1]
                assert isinstance(parent, InternalNode)
                self.complete_split(parent, separator, sibling)
        return n_splits

    def remove_empty_leaf(self, path: List[Node]) -> int:
        """Merge-at-empty removal of the (empty) leaf at the end of
        ``path``, propagating upward while internal nodes empty out.

        Returns the number of nodes freed.  The caller holds W locks on
        the whole unsafe suffix of the path (Naive Lock-coupling delete).
        """
        # Find the decisive ancestor: the deepest node on the path that
        # keeps entries after the removal cascade.  The key range of the
        # removed chain is absorbed by the sibling next to the chain
        # *under that ancestor*: by the left sibling when the chain is
        # not the ancestor's first child (its high keys extend upward),
        # otherwise by the right sibling (whose implicit lower bounds
        # extend downward — no stored high key changes).
        stop = len(path) - 1
        while stop > 0:
            node = path[stop]
            remaining = node.n_entries() - (0 if stop == len(path) - 1 else 1)
            if remaining > 0:
                break
            stop -= 1
        if stop == len(path) - 1:
            return 0  # the leaf still holds keys; nothing to remove
        decisive = path[stop]
        assert isinstance(decisive, InternalNode)
        absorbed_left = decisive.children.index(path[stop + 1]) > 0

        freed = 0
        depth = len(path) - 1
        while depth > stop:
            node = path[depth]
            parent = path[depth - 1]
            assert isinstance(parent, InternalNode)
            self._unlink_from_level(node, path[: depth], absorbed_left)
            if self._undo is not None:
                self._save(parent)
            parent.remove_child(node)
            self._free(node)
            self._merges += 1
            freed += 1
            depth -= 1
        self._collapse_root()
        return freed

    def apply_leaf_insert(self, leaf: LeafNode, key: int) -> bool:
        """Insert ``key`` into ``leaf`` keeping the size counter right.

        Used by the concurrent algorithms, which locate and lock the leaf
        themselves.  Returns False when the key was already present.
        """
        if self._undo is not None:
            self._save(leaf)
        if leaf.insert_key(key):
            self._size += 1
            return True
        return False

    def apply_leaf_delete(self, leaf: LeafNode, key: int) -> bool:
        """Delete ``key`` from ``leaf`` keeping the size counter right."""
        if self._undo is not None:
            self._save(leaf)
        if leaf.delete_key(key):
            self._size -= 1
            return True
        return False

    # ------------------------------------------------------------------
    # Whole operations (sequential)
    # ------------------------------------------------------------------
    def insert(self, key: int) -> bool:
        """Insert ``key``; returns False if it was already present.

        Like :meth:`delete`, it builds the root-to-leaf path only for a
        leaf that must be restructured (the routers have not changed).
        """
        leaf = self.find_leaf(key)
        if self._undo is not None:
            self._save(leaf)
        if not leaf.insert_key(key):
            return False
        self._size += 1
        if self.overflowed(leaf):
            self.split_path(self.path_to(key))
        return True

    def delete(self, key: int) -> bool:
        """Delete ``key``; returns False if it was absent."""
        leaf = self.find_leaf(key)
        if self._undo is not None:
            self._save(leaf)
        if not leaf.delete_key(key):
            return False
        self._size -= 1
        if leaf is not self.root and leaf.n_entries() == 0:
            self.remove_empty_leaf(self.path_to(key))
        return True

    def _collapse_root(self) -> None:
        """Shrink the tree while the root is an internal node with a single
        child — the inverse of ``grow_root``."""
        root = self.root
        while (not self.root.is_leaf
               and self.root.n_entries() == 1):
            old = self.root
            assert isinstance(old, InternalNode)
            self.root = old.children[0]
            self._free(old)
        if self.on_root_change is not None and self.root is not root:
            self.on_root_change(self.root)

    # ------------------------------------------------------------------
    # Link maintenance for removals
    # ------------------------------------------------------------------
    def _unlink_from_level(self, node: Node, ancestors: List[Node],
                           absorbed_left: bool) -> None:
        """Splice ``node`` out of its level's right-link chain.

        The left neighbour is located by walking down from the deepest
        ancestor that has a child left of ``node``'s subtree; if ``node``
        is the leftmost node of its level nothing points at it.

        ``absorbed_left`` says which sibling inherits the removed node's
        key range in the router structure: when ``node`` is not its
        parent's first child, deleting the router extends the *left*
        sibling's range upward, so the left neighbour's high key becomes
        the removed node's.  When ``node`` is the first child, the *right*
        sibling's range extends downward and the left neighbour's high key
        is unchanged.
        """
        left = self._left_neighbour(node, ancestors)
        if left is not None:
            if self._undo is not None:
                self._save(left)
            left.right = node.right
            if absorbed_left:
                left.high_key = node.high_key

    def _left_neighbour(self, node: Node, ancestors: List[Node]) -> Optional[Node]:
        """Left neighbour of ``node`` on its level, or None if leftmost.

        First walks up the supplied ancestors looking for a subtree to
        the left.  The concurrent algorithms only pass the locked
        *suffix* of the access path, so when the walk is exhausted the
        left neighbour may still exist under a higher ancestor; in that
        case fall back to scanning the level's right-link chain (atomic
        in simulated time, and merge-at-empty removals are rare).
        """
        for depth in range(len(ancestors) - 1, -1, -1):
            parent = ancestors[depth]
            assert isinstance(parent, InternalNode)
            lower: Node = node if depth == len(ancestors) - 1 else ancestors[depth + 1]
            i = parent.children.index(lower)
            if i > 0:
                candidate = parent.children[i - 1]
                # Walk down the rightmost spine to node's level.
                while candidate.level > node.level:
                    assert isinstance(candidate, InternalNode)
                    candidate = candidate.children[-1]
                return candidate
        return self._scan_for_left_neighbour(node)

    def _scan_for_left_neighbour(self, node: Node) -> Optional[Node]:
        """Find the node whose right link points at ``node`` by walking
        its level's chain from the leftmost node; None when ``node`` is
        the leftmost of its level (nothing points at it)."""
        if self.root.level < node.level:  # pragma: no cover - defensive
            return None
        current: Node = self.root
        while current.level > node.level:
            assert isinstance(current, InternalNode)
            current = current.children[0]
        if current is node:
            return None
        while current is not None and current.right is not node:
            current = current.right  # type: ignore[assignment]
        return current
