"""Unit tests for the builder, statistics and the validator."""

import hashlib

import pytest

from repro.btree import (
    BPlusTree,
    MERGE_AT_EMPTY,
    build_tree,
    check_invariants,
    collect_statistics,
)
from repro.btree.stats import LN2_FILL
from repro.errors import ConfigurationError, InvariantViolationError


class TestBuilder:
    def test_reaches_target_size(self):
        tree = build_tree(2_000, order=7, seed=3)
        assert len(tree) >= 2_000
        check_invariants(tree)

    def test_zero_items(self):
        tree = build_tree(0, order=5)
        assert len(tree) == 0

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            build_tree(-1)

    def test_shrinking_mix_rejected(self):
        with pytest.raises(ConfigurationError):
            build_tree(100, insert_fraction=0.4)

    def test_deterministic_by_seed(self):
        a = build_tree(1_500, order=7, seed=9)
        b = build_tree(1_500, order=7, seed=9)
        assert list(a.items()) == list(b.items())

    def test_different_seeds_differ(self):
        a = build_tree(1_500, order=7, seed=1)
        b = build_tree(1_500, order=7, seed=2)
        assert list(a.items()) != list(b.items())

    def test_paper_scale_shape(self):
        """The Section 5.3 tree: ~40k items, order 13 -> 5 levels,
        root fanout ~6, fill factor ~ln 2."""
        tree = build_tree(40_000, order=13, seed=0)
        stats = collect_statistics(tree)
        assert stats.height == 5
        assert 3 <= stats.root_fanout <= 12
        leaf_fill = stats.fanout(1) / stats.order
        assert abs(leaf_fill - LN2_FILL) < 0.06

    #: policy -> (nodes created, sha256 over each created node's
    #: ``(level, keys, n_children)`` in creation order) for
    #: ``build_tree(40_000, seed=11)``: pins the warm-up tree's shape.
    GOLDEN_SHAPES = {
        MERGE_AT_EMPTY: (4931, "ec864e114d3a7f37da6714be100de31b0f811614a9"
                               "49364ace3b2556c77d9863"),
    }

    @pytest.mark.parametrize("policy", [MERGE_AT_EMPTY],
                             ids=["merge-at-empty"])
    def test_golden_warm_up_shape(self, policy):
        created = []
        build_tree(40_000, merge_policy=policy, seed=11,
                   on_new_node=created.append)
        digest = hashlib.sha256()
        for node in created:
            digest.update(repr((node.level, list(node.keys),
                                len(getattr(node, "children", ())))).encode())
        assert (len(created), digest.hexdigest()) == \
            self.GOLDEN_SHAPES[policy]

    def test_node_hooks_forwarded(self):
        created = []
        build_tree(500, order=5, seed=1, on_new_node=created.append)
        assert len(created) > 50


class TestStatistics:
    def test_counts_match_manual_walk(self):
        tree = build_tree(1_000, order=7, seed=4)
        stats = collect_statistics(tree)
        assert stats.n_items == len(tree)
        assert stats.height == tree.height
        for level in range(1, tree.height + 1):
            assert stats.nodes_at(level) == len(list(tree.level_nodes(level)))

    def test_fraction_full_bounds(self):
        tree = build_tree(3_000, order=7, seed=5)
        stats = collect_statistics(tree)
        for level in range(1, tree.height + 1):
            assert 0.0 <= stats.fraction_full(level) <= 1.0

    def test_fanout_consistency(self):
        tree = build_tree(3_000, order=7, seed=6)
        stats = collect_statistics(tree)
        for level in range(2, tree.height + 1):
            expected = (stats.nodes_at(level - 1) / stats.nodes_at(level))
            assert stats.fanout(level) == pytest.approx(expected)


class TestValidator:
    def _tree(self):
        tree = BPlusTree(order=4)
        for key in range(40):
            tree.insert(key)
        return tree

    def test_clean_tree_passes(self):
        check_invariants(self._tree())

    def test_detects_unsorted_keys(self):
        tree = self._tree()
        leaf = tree.find_leaf(0)
        leaf.keys.reverse()
        with pytest.raises(InvariantViolationError):
            check_invariants(tree)

    def test_detects_overflow(self):
        tree = self._tree()
        leaf = tree.find_leaf(39)
        leaf.keys.extend(range(1000, 1010))
        with pytest.raises(InvariantViolationError):
            check_invariants(tree)

    def test_detects_router_violation(self):
        tree = self._tree()
        leaf = tree.find_leaf(0)
        leaf.keys.append(10**9)  # escapes every router bound
        with pytest.raises(InvariantViolationError):
            check_invariants(tree)

    def test_detects_broken_right_link(self):
        tree = self._tree()
        first_leaf = tree.leftmost_leaf()
        first_leaf.right = first_leaf.right.right  # skip one node
        with pytest.raises(InvariantViolationError):
            check_invariants(tree)

    def test_detects_bad_high_key(self):
        tree = self._tree()
        first_leaf = tree.leftmost_leaf()
        first_leaf.high_key = 10**9
        with pytest.raises(InvariantViolationError):
            check_invariants(tree)

    def test_detects_dead_node(self):
        tree = self._tree()
        tree.find_leaf(0).dead = True
        with pytest.raises(InvariantViolationError):
            check_invariants(tree)

    def test_detects_size_mismatch(self):
        tree = self._tree()
        tree._size += 1
        with pytest.raises(InvariantViolationError):
            check_invariants(tree)

    def test_allow_underflow_permits_empty_leaf(self):
        tree = self._tree()
        leaf = tree.find_leaf(0)
        removed = len(leaf.keys)
        tree._size -= removed
        del leaf.keys[:]
        with pytest.raises(InvariantViolationError):
            check_invariants(tree)  # policy floor violated
        check_invariants(tree, allow_underflow=True)  # link-tree mode

    def test_detects_link_cycle(self):
        tree = self._tree()
        leaf = tree.leftmost_leaf()
        leaf.right.right = leaf  # cycle
        with pytest.raises(InvariantViolationError):
            check_invariants(tree)
