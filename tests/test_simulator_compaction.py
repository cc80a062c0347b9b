"""Tests for Sagiv-style background compression of link trees."""

import random

import pytest

from repro.btree import BPlusTree, check_invariants
from repro.btree.builder import build_tree
from repro.btree.node import InternalNode, Node
from repro.des.engine import Simulator
from repro.des.rwlock import RWLock
from repro.errors import ConfigurationError
from repro.model.params import CostModel
from repro.simulator import SimulationConfig
from repro.simulator import compaction, link as link_ops
from repro.simulator.costs import ServiceTimeSampler
from repro.simulator.metrics import MetricsCollector
from repro.simulator.operations import OperationContext


def _count_empty_leaves(tree) -> int:
    return sum(1 for leaf in tree.leaves()
               if not leaf.keys and leaf is not tree.root)


class TestSpliceOutEmptyLeaf:
    """Sequential tests of the structural primitive."""

    def _tree_with_empty_leaf(self):
        tree = BPlusTree(order=4)
        for key in range(40):
            tree.insert(key)
        leaf = tree.find_leaf(10)
        removed = list(leaf.keys)
        for key in removed:
            # Empty the leaf via the link-style primitive (no merges).
            tree.apply_leaf_delete(leaf, key)
        return tree, leaf

    def _parent_and_left(self, tree, leaf):
        parent = None
        node = tree.root
        while not node.is_leaf:
            assert isinstance(node, InternalNode)
            for child in node.children:
                if child is leaf:
                    parent = node
            if parent is not None:
                break
            node = node.child_for(leaf.high_key - 1
                                  if leaf.high_key is not None else 10**9)
        left = tree._scan_for_left_neighbour(leaf)
        return parent, left

    def test_removes_and_restores_invariants(self):
        tree, leaf = self._tree_with_empty_leaf()
        parent, left = self._parent_and_left(tree, leaf)
        assert tree.splice_out_empty_leaf(leaf, parent, left)
        assert leaf.dead
        check_invariants(tree)

    def test_rejects_non_empty_leaf(self):
        tree, leaf = self._tree_with_empty_leaf()
        parent, left = self._parent_and_left(tree, leaf)
        leaf.keys.append(999_999)
        assert not tree.splice_out_empty_leaf(leaf, parent, left)

    def test_rejects_dead_leaf(self):
        tree, leaf = self._tree_with_empty_leaf()
        parent, left = self._parent_and_left(tree, leaf)
        assert tree.splice_out_empty_leaf(leaf, parent, left)
        assert not tree.splice_out_empty_leaf(leaf, parent, left)

    def test_rejects_stale_left_neighbour(self):
        tree, leaf = self._tree_with_empty_leaf()
        parent, left = self._parent_and_left(tree, leaf)
        assert left is not None
        stale = BPlusTree(order=4).root  # unrelated node
        assert not tree.splice_out_empty_leaf(leaf, parent, stale)

    def test_rejects_only_child(self):
        tree = BPlusTree(order=4)
        for key in range(6):
            tree.insert(key)
        # Fabricate a single-child parent.
        parent = tree.root
        if parent.is_leaf:
            pytest.skip("tree too small to have an internal parent")
        leaf = parent.children[0]
        while parent.n_entries() > 1:
            parent.remove_child(parent.children[-1])
        del leaf.keys[:]
        assert not tree.splice_out_empty_leaf(leaf, parent, None)


class _Harness:
    """Delete-heavy concurrent link workload with optional compactor."""

    def __init__(self, seed: int, with_compactor: bool):
        rng = random.Random(seed)

        def attach(node: Node) -> None:
            node.lock = RWLock(str(node.node_id))

        self.tree = build_tree(600, order=4, key_space=1_500,
                               rng=random.Random(seed + 1),
                               on_new_node=attach)
        self.sim = Simulator()
        self.metrics = MetricsCollector()
        self.metrics.measuring = True
        self.metrics.measure_start_time = 0.0
        self.ctx = OperationContext(
            self.sim, self.tree,
            ServiceTimeSampler(CostModel(disk_cost=2.0), self.tree,
                               random.Random(seed + 2)),
            self.metrics, rng)
        resident = list(self.tree.items())
        rng.shuffle(resident)
        t = 0.0
        for key in resident[:450]:  # delete most of the tree
            t += rng.expovariate(2.0)
            self.sim.spawn(link_ops.delete(self.ctx, key), delay=t)
        self.horizon = t
        if with_compactor:
            self.sim.spawn(
                compaction.compactor(self.ctx, interval=20.0), delay=5.0)

    def run(self):
        self.sim.run(until=self.horizon + 500.0)
        return self.tree, self.metrics


def test_deletes_without_compactor_leave_empty_leaves():
    tree, _metrics = _Harness(seed=3, with_compactor=False).run()
    assert _count_empty_leaves(tree) > 10
    check_invariants(tree, allow_underflow=True)


def test_compactor_reclaims_empty_leaves():
    bare_tree, _m = _Harness(seed=3, with_compactor=False).run()
    compacted_tree, metrics = _Harness(seed=3, with_compactor=True).run()
    assert metrics.compactions > 0
    assert _count_empty_leaves(compacted_tree) \
        < _count_empty_leaves(bare_tree) / 2
    check_invariants(compacted_tree, allow_underflow=True)


def test_compactor_preserves_contents():
    harness = _Harness(seed=7, with_compactor=True)
    before = set(harness.tree.items())
    tree, _metrics = harness.run()
    # All surviving keys are still reachable and ordered.
    after = list(tree.items())
    assert after == sorted(after)
    assert set(after).issubset(before)


def test_compactor_in_full_driver():
    from repro.simulator.driver import run_simulation
    config = SimulationConfig(
        algorithm="link-type", arrival_rate=1.0, n_items=3_000,
        n_operations=800, warmup_operations=80, seed=11,
        compaction_interval=50.0)
    result = run_simulation(config)
    assert not result.overflowed
    assert result.compactions >= 0  # usually 0: deletes rarely empty leaves


class TestConfigValidation:
    def test_compaction_requires_link_type(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(algorithm="naive-lock-coupling",
                             compaction_interval=10.0)

    def test_interval_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(algorithm="link-type",
                             compaction_interval=0.0)
