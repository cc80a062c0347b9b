"""Unit tests for the sequential B+-tree."""

import pytest

from repro.btree import BPlusTree, check_invariants
from repro.btree.node import InternalNode
from repro.errors import BTreeError, ConfigurationError


class TestBasics:
    def test_fresh_tree(self):
        tree = BPlusTree(order=4)
        assert tree.height == 1
        assert len(tree) == 0
        assert not tree.search(1)
        check_invariants(tree)

    def test_order_floor(self):
        with pytest.raises(ConfigurationError):
            BPlusTree(order=2)

    def test_insert_search_delete_roundtrip(self):
        tree = BPlusTree(order=4)
        assert tree.insert(10)
        assert tree.search(10)
        assert 10 in tree
        assert tree.delete(10)
        assert not tree.search(10)
        assert len(tree) == 0

    def test_duplicate_insert(self):
        tree = BPlusTree(order=4)
        assert tree.insert(1)
        assert not tree.insert(1)
        assert len(tree) == 1

    def test_delete_missing(self):
        tree = BPlusTree(order=4)
        assert not tree.delete(99)

    def test_items_sorted(self):
        tree = BPlusTree(order=4)
        for key in (9, 1, 7, 3, 5, 2, 8, 4, 6):
            tree.insert(key)
        assert list(tree.items()) == list(range(1, 10))

    def test_iter_protocol(self):
        tree = BPlusTree(order=4)
        for key in (3, 1, 2):
            tree.insert(key)
        assert list(tree) == [1, 2, 3]
        assert sorted(tree) == list(tree.items())


class TestSplitting:
    def test_leaf_split_grows_root(self):
        tree = BPlusTree(order=3)
        for key in range(4):
            tree.insert(key)
        assert tree.height == 2
        check_invariants(tree)
        assert sorted(tree.items()) == list(range(4))

    def test_sequential_fill_many_levels(self):
        tree = BPlusTree(order=3)
        for key in range(200):
            tree.insert(key)
        assert tree.height >= 4
        check_invariants(tree)
        assert list(tree.items()) == list(range(200))

    def test_reverse_fill(self):
        tree = BPlusTree(order=4)
        for key in reversed(range(100)):
            tree.insert(key)
        check_invariants(tree)
        assert list(tree.items()) == list(range(100))

    def test_split_count_increments(self):
        tree = BPlusTree(order=3)
        for key in range(50):
            tree.insert(key)
        assert tree.split_count > 0

    def test_right_links_after_splits(self):
        tree = BPlusTree(order=3)
        for key in range(64):
            tree.insert(key)
        for level in range(1, tree.height + 1):
            chain = list(tree.level_nodes(level))
            assert chain[-1].high_key is None
            for left, right in zip(chain, chain[1:]):
                assert left.right is right
                assert left.high_key is not None


class TestMergeAtEmpty:
    def test_leaves_survive_until_empty(self):
        tree = BPlusTree(order=4)
        for key in range(20):
            tree.insert(key)
        merges_before = tree.merge_count
        # Delete down to one key per leaf: no restructuring yet.
        tree.delete(1)
        assert tree.merge_count == merges_before
        check_invariants(tree)

    def test_drain_to_empty(self):
        tree = BPlusTree(order=4)
        for key in range(100):
            tree.insert(key)
        for key in range(100):
            assert tree.delete(key)
            check_invariants(tree)
        assert len(tree) == 0
        assert tree.height == 1

    def test_drain_reverse_order(self):
        tree = BPlusTree(order=5)
        for key in range(100):
            tree.insert(key)
        for key in reversed(range(100)):
            assert tree.delete(key)
        check_invariants(tree)
        assert len(tree) == 0

    def test_root_collapses(self):
        tree = BPlusTree(order=3)
        for key in range(30):
            tree.insert(key)
        tall = tree.height
        for key in range(29):
            tree.delete(key)
        assert tree.height < tall
        check_invariants(tree)


class TestPrimitives:
    def test_half_split_leaf(self):
        tree = BPlusTree(order=4)
        for key in (1, 2, 3, 4, 5):
            tree.root.keys.append(key)  # overfill directly
        sibling, separator = tree.half_split(tree.root)
        assert separator == sibling.keys[0]
        assert list(tree.root.keys) == [1, 2]
        assert list(sibling.keys) == [3, 4, 5]
        assert tree.root.right is sibling
        assert tree.root.high_key == separator
        assert sibling.high_key is None

    def test_grow_root(self):
        tree = BPlusTree(order=4)
        for key in (1, 2, 3, 4, 5):
            tree.root.keys.append(key)
        tree._size = 5
        old_root = tree.root
        sibling, separator = tree.half_split(old_root)
        new_root = tree.grow_root(old_root, separator, sibling)
        assert tree.root is new_root
        assert tree.height == 2
        assert new_root.children == [old_root, sibling]
        check_invariants(tree)

    def test_grow_root_rejects_non_root(self):
        tree = BPlusTree(order=4)
        for key in range(10):
            tree.insert(key)
        leaf = tree.find_leaf(0)
        with pytest.raises(BTreeError):
            tree.grow_root(leaf, 5, leaf)

    def test_complete_split_level_check(self):
        tree = BPlusTree(order=3)
        for key in range(30):
            tree.insert(key)
        root = tree.root
        assert isinstance(root, InternalNode)
        leaf = tree.find_leaf(0)
        if root.level != leaf.level + 1:
            with pytest.raises(BTreeError):
                tree.complete_split(root, 999, leaf)

    def test_apply_leaf_insert_updates_size(self):
        tree = BPlusTree(order=4)
        leaf = tree.find_leaf(3)
        assert tree.apply_leaf_insert(leaf, 3)
        assert len(tree) == 1
        assert not tree.apply_leaf_insert(leaf, 3)
        assert len(tree) == 1

    def test_apply_leaf_delete_updates_size(self):
        tree = BPlusTree(order=4)
        tree.insert(3)
        leaf = tree.find_leaf(3)
        assert tree.apply_leaf_delete(leaf, 3)
        assert len(tree) == 0
        assert not tree.apply_leaf_delete(leaf, 3)

    def test_level_nodes_out_of_range(self):
        tree = BPlusTree(order=4)
        with pytest.raises(BTreeError):
            list(tree.level_nodes(2))


class TestSafety:
    def test_insert_safety(self):
        tree = BPlusTree(order=3)
        leaf = tree.root
        assert tree.is_insert_safe(leaf)
        for key in range(3):
            tree.insert(key)
        assert not tree.is_insert_safe(tree.find_leaf(0))

    def test_delete_safety_merge_at_empty(self):
        tree = BPlusTree(order=4)
        for key in range(12):
            tree.insert(key)
        leaf = tree.find_leaf(0)
        # Safe while more than one key remains.
        while leaf.n_entries() > 1:
            assert tree.is_delete_safe(leaf)
            tree.delete(leaf.keys[0])
        assert not tree.is_delete_safe(leaf)

    def test_root_always_delete_safe(self):
        tree = BPlusTree(order=4)
        tree.insert(1)
        assert tree.is_delete_safe(tree.root)

    def test_on_new_and_free_node_hooks(self):
        created, freed = [], []
        tree = BPlusTree(order=3,
                         on_new_node=created.append,
                         on_free_node=freed.append)
        assert len(created) == 1  # the initial root leaf
        for key in range(20):
            tree.insert(key)
        assert len(created) > 1
        for key in range(20):
            tree.delete(key)
        assert freed  # collapse/removals freed nodes
        assert all(node.dead for node in freed)
