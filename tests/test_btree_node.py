"""Unit tests for B-tree nodes."""

import pytest

from repro.btree.node import InternalNode, LeafNode, lock_factory
from repro.errors import BTreeError


class TestLeafNode:
    def test_fresh_leaf(self):
        leaf = LeafNode()
        assert leaf.is_leaf
        assert leaf.level == 1
        assert leaf.n_entries() == 0
        assert not leaf.dead

    def test_insert_keeps_sorted(self):
        leaf = LeafNode()
        for key in (5, 1, 3, 4, 2):
            assert leaf.insert_key(key)
        assert list(leaf.keys) == [1, 2, 3, 4, 5]

    def test_duplicate_insert_rejected(self):
        leaf = LeafNode()
        assert leaf.insert_key(7)
        assert not leaf.insert_key(7)
        assert list(leaf.keys) == [7]

    def test_contains(self):
        leaf = LeafNode()
        leaf.insert_key(2)
        leaf.insert_key(4)
        assert leaf.contains(2)
        assert not leaf.contains(3)

    def test_delete(self):
        leaf = LeafNode()
        leaf.insert_key(1)
        leaf.insert_key(2)
        assert leaf.delete_key(1)
        assert not leaf.delete_key(1)
        assert list(leaf.keys) == [2]

    def test_covers_with_high_key(self):
        leaf = LeafNode()
        assert leaf.covers(10**9)  # no high key = rightmost
        leaf.high_key = 100
        assert leaf.covers(99)
        assert not leaf.covers(100)


class TestInternalNode:
    def _node(self):
        node = InternalNode(level=2)
        left, mid, right = LeafNode(), LeafNode(), LeafNode()
        node.keys = [10, 20]
        node.children = [left, mid, right]
        return node, left, mid, right

    def test_level_one_rejected(self):
        with pytest.raises(BTreeError):
            InternalNode(level=1)

    def test_child_routing(self):
        node, left, mid, right = self._node()
        assert node.child_for(5) is left
        assert node.child_for(10) is mid   # separator routes right
        assert node.child_for(15) is mid
        assert node.child_for(20) is right
        assert node.child_for(99) is right

    def test_insert_router(self):
        node, _left, mid, _right = self._node()
        sibling = LeafNode()
        node.insert_router(15, sibling)
        assert node.keys == [10, 15, 20]
        assert node.children[2] is sibling
        assert node.child_for(17) is sibling
        assert node.child_for(12) is mid

    def test_duplicate_router_rejected(self):
        node, *_ = self._node()
        with pytest.raises(BTreeError):
            node.insert_router(10, LeafNode())

    def test_remove_middle_child_left_absorbs(self):
        node, left, mid, right = self._node()
        node.remove_child(mid)
        assert node.children == [left, right]
        # The left sibling absorbs the removed (empty) child's range.
        assert node.keys == [20]
        assert node.child_for(5) is left
        assert node.child_for(15) is left
        assert node.child_for(50) is right

    def test_remove_first_child(self):
        node, left, mid, right = self._node()
        node.remove_child(left)
        assert node.children == [mid, right]
        assert node.keys == [20]

    def test_remove_last_child(self):
        node, left, mid, right = self._node()
        node.remove_child(right)
        assert node.children == [left, mid]
        assert node.keys == [10]

    def test_remove_only_child_empties_node(self):
        node = InternalNode(level=2)
        only = LeafNode()
        node.children = [only]
        node.remove_child(only)
        assert node.children == []
        assert node.keys == []

    def test_remove_non_child_rejected(self):
        node, *_ = self._node()
        with pytest.raises(BTreeError):
            node.remove_child(LeafNode())

    def test_node_ids_unique(self):
        ids = {LeafNode().node_id for _ in range(100)}
        assert len(ids) == 100


class TestLazyLock:
    def test_reads_none_outside_a_run(self):
        assert LeafNode().lock is None

    def test_factory_runs_once_on_first_read(self):
        made = []
        leaf, other = LeafNode(), InternalNode(2)

        def factory(node):
            made.append(node)
            return f"n{node.node_id}"

        with lock_factory(factory):
            assert leaf.lock == f"n{leaf.node_id}"
            assert leaf.lock == f"n{leaf.node_id}"
        assert made == [leaf]
        assert leaf.lock == f"n{leaf.node_id}"
        assert other.lock is None

    def test_assigned_lock_wins_and_none_resets(self):
        leaf = LeafNode()
        leaf.lock = "assigned"
        with lock_factory(lambda node: "made"):
            assert leaf.lock == "assigned"
            leaf.lock = None
            assert leaf.lock == "made"
        leaf.lock = None
        assert leaf.lock is None
