"""The fused ``build_tree`` loop and the inlined random draws make the
same draws in the same order as the calls they replace.

* ``build_tree`` inlines the leaf descent and leaf insert/delete of
  ``BPlusTree.insert``/``delete`` and ``randrange``'s rejection loop: it
  must grow the same tree, node for node, as the plain loop over those
  calls (kept here as the reference), and leave the stream where that
  loop leaves it.
* ``UniformKeys.pick`` inlines ``randrange`` and ``ServiceTimeSampler``
  computes ``expovariate``'s formula itself: each must return what the
  call returns and consume the same stream.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree.builder import build_tree
from repro.btree.tree import BPlusTree
from repro.errors import ConfigurationError
from repro.model.params import CostModel
from repro.simulator import SimulationConfig, run_simulation
from repro.simulator.costs import ServiceTimeSampler
from repro.workload.keys import UniformKeys

_SETTINGS = settings(max_examples=300, deadline=None)


def reference_build(n_items, order, insert_fraction, key_space, rng,
                    on_new_node):
    """The construction loop as whole-operation calls."""
    tree = BPlusTree(order=order, on_new_node=on_new_node)
    while len(tree) < n_items:
        key = rng.randrange(key_space)
        if rng.random() < insert_fraction:
            tree.insert(key)
        else:
            if len(tree) > 0 and rng.random() < 0.5:
                node = tree.find_leaf(key)
                while node is not None and not node.keys:
                    node = node.right
                if node is not None and node.keys:
                    key = node.keys[len(node.keys) // 2]
            tree.delete(key)
    return tree


def _shape(tree, nodes):
    """The tree and its allocation history, nodes named by creation
    index."""
    index = {id(node): i for i, node in enumerate(nodes)}

    def name(node):
        return None if node is None else index[id(node)]

    allocation = [(node.level, list(node.keys), node.high_key, node.dead,
                   name(node.right),
                   [name(c) for c in getattr(node, "children", ())])
                  for node in nodes]
    return (len(tree), tree.height, tree.split_count, tree.merge_count,
            name(tree.root), allocation)


#: key_space -> an item count the mix can reach in it.
ITEMS = {2 ** 30: 2_000, 1_000: 250, 16: 8}


@pytest.mark.parametrize("key_space", sorted(ITEMS))
@pytest.mark.parametrize("insert_fraction", [0.51, 5.0 / 7.0, 1.0])
@pytest.mark.parametrize("order", [3, 13])
def test_fused_build_matches_whole_operations(order, insert_fraction,
                                              key_space):
    n_items = ITEMS[key_space]
    for seed in (0, 1, 10):
        fused_rng, reference_rng = random.Random(seed), random.Random(seed)
        fused_nodes, reference_nodes = [], []
        fused = build_tree(n_items, order=order,
                           insert_fraction=insert_fraction,
                           key_space=key_space, rng=fused_rng,
                           on_new_node=fused_nodes.append)
        reference = reference_build(n_items, order, insert_fraction,
                                    key_space, reference_rng,
                                    reference_nodes.append)
        assert _shape(fused, fused_nodes) == \
            _shape(reference, reference_nodes)
        assert list(fused) == list(reference)
        assert fused_rng.getstate() == reference_rng.getstate()


def test_fused_build_covers_splits_merges_and_collapses():
    # One of the grid's builds: its root grows to level 3 and collapses.
    nodes = []
    tree = build_tree(ITEMS[16], order=3, insert_fraction=0.51,
                      key_space=16, rng=random.Random(10),
                      on_new_node=nodes.append)
    assert tree.split_count > 0 and tree.merge_count > 0
    assert max(node.level for node in nodes) > tree.height


def test_empty_key_space_is_rejected():
    with pytest.raises(ValueError):
        build_tree(1, key_space=0)


def test_more_items_than_keys_is_rejected():
    """Such a build never reaches its size: it once looped forever."""
    with pytest.raises(ConfigurationError, match="distinct keys"):
        build_tree(300, key_space=5)
    config = SimulationConfig(n_items=300, key_space=5, n_operations=10)
    with pytest.raises(ConfigurationError, match="distinct keys"):
        run_simulation(config)
    assert len(build_tree(16, order=3, key_space=16, seed=1)) == 16


@_SETTINGS
@given(seed=st.integers(0, 2 ** 64 - 1),
       n=st.one_of(st.integers(1, 2 ** 62),
                   st.integers(0, 62).map(lambda e: 2 ** e),
                   st.integers(1, 62).map(lambda e: 2 ** e - 1),
                   st.integers(1, 61).map(lambda e: 2 ** e + 1)))
def test_uniform_pick_is_randrange(seed, n):
    inlined, called = random.Random(seed), random.Random(seed)
    picker = UniformKeys(n, inlined)
    for _ in range(3):
        assert picker.pick() == called.randrange(n)
    assert inlined.getstate() == called.getstate()


@_SETTINGS
@given(seed=st.integers(0, 2 ** 64 - 1),
       mean=st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False),
       factor=st.floats(1.0, 10.0))
def test_service_times_are_expovariate(seed, mean, factor):
    # A one-leaf tree: level 1 is the root, in memory, so Se(1) = mean.
    costs = CostModel(node_search_time=mean, modify_factor=factor)
    inlined, called = random.Random(seed), random.Random(seed)
    sampler = ServiceTimeSampler(costs, BPlusTree(order=5), inlined)
    assert sampler.search(1) == called.expovariate(1.0 / costs.se(1, 1))
    modify = costs.modify_at(1, 1)
    assert sampler.modify(1) == called.expovariate(1.0 / modify)
    assert inlined.getstate() == called.getstate()
