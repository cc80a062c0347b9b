"""Compact leaves: a leaf keeps its keys in an ``array('q')``, and a
lock holds a wait queue only while someone waits.

Every simulated point starts from a warm-up tree of about 40,000 keys,
so the bytes behind each leaf key decide most of a run's tree memory:
8 bytes in a typed array against a boxed ``int`` and a list slot.
These tests pin that footprint, that every path that makes or copies
leaf keys keeps the type, the lifetime of a lock's wait queue, and the
key-space bound that the typed keys impose.
"""

import gc
import random
import tracemalloc
from array import array
from collections import deque

import pytest

import repro.btree.builder as builder
from repro.btree import BPlusTree, check_invariants
from repro.btree.builder import build_tree, warm_tree
from repro.btree.node import MAX_KEY_SPACE
from repro.des import READ, WRITE, RWLock, Simulator
from repro.errors import ConfigurationError
from repro.simulator import SimulationConfig, run_simulation

#: Traced bytes ``build_tree(40_000, seed=11)`` may hold (about 1.62 MB
#: with typed leaves; 2.49 MB when each key was a boxed int in a list).
MAX_TEMPLATE_BYTES = 1_900_000

#: Exclusive upper bound on a key: each leaf key is a signed 64-bit int.
KEY_BOUND = 2 ** 63


@pytest.fixture(autouse=True)
def empty_memo(monkeypatch):
    monkeypatch.setattr(builder, "_last", None)


def _nodes(tree):
    return [node for level in range(1, tree.height + 1)
            for node in tree.level_nodes(level)]


def _assert_typed(tree):
    nodes = _nodes(tree)
    assert any(node.is_leaf for node in nodes)
    for node in nodes:
        if node.is_leaf:
            assert type(node.keys) is array and node.keys.typecode == "q"
        else:
            assert type(node.keys) is list
            assert type(node.children) is list


def test_paper_tree_fits_in_1_9_mb():
    build_tree(500, seed=1)  # imports and first-call state, untraced
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tree = build_tree(40_000, seed=11)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(tree) == 40_000
    assert 0 < held <= MAX_TEMPLATE_BYTES


def test_leaves_hold_typed_keys_and_internal_nodes_lists():
    tree = build_tree(5_000, order=7, seed=2)
    assert tree.height >= 3
    _assert_typed(tree)
    check_invariants(tree)


@pytest.mark.usefixtures("batch_memo")
def test_splits_and_rollback_keep_leaf_keys_typed():
    tree, _levels = warm_tree(4, 2_000, 5, 5.0 / 7.0, 1 << 30)
    before = [(node, list(node.keys)) for node in _nodes(tree)]
    splits = tree.split_count
    rng = random.Random(9)
    for _ in range(500):
        tree.insert(rng.randrange(1 << 30))
    assert tree.split_count > splits
    _assert_typed(tree)
    merges = tree.merge_count
    for node in list(tree.leaves())[:50]:
        for key in list(node.keys):
            tree.delete(key)  # empties leaves: merge-at-empty frees them
    assert tree.merge_count > merges
    _assert_typed(tree)
    check_invariants(tree)
    tree.rollback()
    _assert_typed(tree)
    assert [(node, list(node.keys)) for node in _nodes(tree)] == before


@pytest.mark.usefixtures("batch_memo")
def test_a_run_leaves_its_template_typed():
    config = SimulationConfig(algorithm="link-type", arrival_rate=2.0,
                              n_items=2_000, order=5, n_operations=300,
                              warmup_operations=20, seed=5)
    assert run_simulation(config).measured_operations == 300
    _key, template, _levels = builder._last
    _assert_typed(template)


def test_queue_lives_only_while_a_request_waits():
    sim = Simulator()
    lock = RWLock("n1")
    seen = {}

    def client(name, mode, hold):
        acquire = lock.acquire_write if mode == WRITE else lock.acquire_read
        yield acquire(sim)
        seen[name] = (type(lock._queue), len(lock._queue))
        yield hold
        lock.release(sim)

    sim.spawn(client("w1", WRITE, 2.0))
    sim.spawn(client("r1", READ, 1.0), delay=0.5)
    sim.spawn(client("r2", READ, 1.0), delay=0.6)
    sim.spawn(client("w2", WRITE, 1.0), delay=0.7)
    sim.run(until=1.0)
    assert isinstance(lock._queue, deque) and len(lock._queue) == 3
    sim.run()
    # The readers are granted together with the writer still waiting;
    # the writer's grant empties the queue and drops the deque.
    assert seen == {"w1": (tuple, 0), "r1": (deque, 1), "r2": (deque, 1),
                    "w2": (tuple, 0)}
    assert lock._queue == () and lock.queue_length == 0
    assert not lock.writer_waiting()


@pytest.mark.parametrize("key_space", [0, -1, KEY_BOUND + 1, 2 ** 70])
def test_config_refuses_a_key_space_outside_the_typed_range(key_space):
    with pytest.raises(ConfigurationError, match="key_space"):
        SimulationConfig(key_space=key_space)


def test_build_refuses_a_key_space_beyond_2_63():
    with pytest.raises(ConfigurationError, match="2\\*\\*63"):
        build_tree(10, key_space=KEY_BOUND + 1)


def test_the_largest_key_space_runs():
    assert MAX_KEY_SPACE == KEY_BOUND
    tree = build_tree(300, order=5, key_space=KEY_BOUND, seed=3)
    assert max(tree.items()) >= 1 << 62
    check_invariants(tree)
    top = BPlusTree(order=4)
    assert top.insert(KEY_BOUND - 1)
    config = SimulationConfig(algorithm="optimistic-descent",
                              arrival_rate=0.5, n_items=300, order=5,
                              n_operations=200, warmup_operations=20,
                              key_space=KEY_BOUND, seed=3)
    assert run_simulation(config).measured_operations == 200
