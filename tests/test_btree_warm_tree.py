"""The warm-up tree memo: ``warm_tree`` lends the tree a fresh build
grows, and runs on it create locks only where they reach and leave it as
built."""

import random

import pytest

import repro.btree.builder as builder
import repro.btree.node as node_module
from repro.btree import BPlusTree, check_invariants
from repro.btree.builder import build_tree, warm_tree
from repro.des.rwlock import RWLock
from repro.experiments.common import sweep_replications
from repro.model.params import OperationMix
from repro.obs import TelemetryOptions, TelemetryRecorder
from repro.simulator import SimulationConfig, driver, run_simulation
from repro.simulator.closed import run_closed_simulation

#: (n_items, order, insert_fraction) shapes to compare.
SHAPES = [
    (3_000, 13, 5.0 / 7.0),
    (800, 4, 0.6),
    (0, 13, 1.0),
]


@pytest.fixture(autouse=True)
def empty_memo(monkeypatch):
    monkeypatch.setattr(builder, "_last", None)


@pytest.fixture
def build_calls(monkeypatch):
    """Count the builds ``warm_tree`` runs (it calls the module global)."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return build_tree(*args, **kwargs)

    monkeypatch.setattr(builder, "build_tree", counting)
    return calls


def _grow(make):
    """``make(hook)``'s tree plus every node the hook saw, in order."""
    seen = []
    return make(seen.append), seen


def _shape(tree, nodes):
    """Everything observable about a tree and its allocation history,
    with nodes named by creation index instead of identity."""
    index = {id(node): i for i, node in enumerate(nodes)}

    def name(node):
        return None if node is None else index[id(node)]

    allocation = [(node.level, list(node.keys), node.high_key, node.dead,
                   name(node.right),
                   [name(c) for c in getattr(node, "children", ())])
                  for node in nodes]
    levels = [[(list(node.keys), node.high_key)
               for node in tree.level_nodes(level)]
              for level in range(1, tree.height + 1)]
    return (tree.order, len(tree), tree.height,
            tree.split_count, tree.merge_count, name(tree.root), list(tree),
            levels, allocation)


@pytest.mark.parametrize("n_items,order,insert_fraction", SHAPES)
def test_clone_equals_fresh_build(n_items, order, insert_fraction):
    seed = 7
    fresh, fresh_nodes = _grow(lambda hook: build_tree(
        n_items, order=order, insert_fraction=insert_fraction,
        rng=random.Random(seed), on_new_node=hook))
    expected = _shape(fresh, fresh_nodes)
    check_invariants(fresh)
    for _ in ("miss", "hit"):
        lease, lease_nodes = _grow(lambda hook: warm_tree(
            seed, n_items, order, insert_fraction,
            builder.DEFAULT_KEY_SPACE, on_new_node=hook))
        check_invariants(lease)
        assert _shape(lease, lease_nodes) == expected
        ids = [node.node_id for node in lease_nodes]
        assert ids == list(range(ids[0], ids[0] + len(ids)))
        lease.rollback()


def test_returned_lease_leaves_template_as_built():
    args = (3, 800, 4, 0.6, 1 << 20)
    fresh, fresh_nodes = _grow(lambda hook: build_tree(
        800, order=4, insert_fraction=0.6, key_space=1 << 20,
        rng=random.Random(3), on_new_node=hook))
    expected = _shape(fresh, fresh_nodes)
    first, first_nodes = _grow(lambda hook: warm_tree(*args, on_new_node=hook))
    _key, template, template_nodes = builder._last
    assert first is template and first_nodes == template_nodes
    keys_before = {node: node.keys for node in template_nodes}
    # Mutating the lease changes the template until the lease is returned.
    for key in list(first)[::2]:
        first.delete(key)
    for key in range(0, 1 << 20, 997):
        first.insert(key)
    assert list(first) != list(fresh)
    first.rollback()
    assert _shape(template, template_nodes) == expected
    assert all(node.lock is None for node in template_nodes)
    # Only the nodes the mutation wrote were copied.
    copied = [node for node in template_nodes
              if node.keys is not keys_before[node]]
    assert 0 < len(copied) < len(template_nodes)
    # A lease that is never returned is rolled back by the next call.
    unreturned = warm_tree(*args)
    for key in list(unreturned)[::3]:
        unreturned.delete(key)
    second, second_nodes = _grow(lambda hook: warm_tree(*args,
                                                        on_new_node=hook))
    assert _shape(second, second_nodes) == expected
    second.rollback()


def _run_config(**overrides):
    values = dict(algorithm="naive-lock-coupling", arrival_rate=0.3,
                  n_items=500, order=5, n_operations=400,
                  warmup_operations=40, seed=21)
    values.update(overrides)
    return SimulationConfig(**values)


def test_same_seed_runs_identical_after_mutating_run(build_calls):
    config = _run_config()
    first = run_simulation(config)
    # The first run changed its tree; the memo's template must not see it.
    assert first.splits > 0
    assert first.leaf_removals > 0
    assert first.final_tree_size != config.n_items
    second = run_simulation(config)
    assert repr(second) == repr(first)
    assert len(build_calls) == 1


def _fresh_build(build_seed, n_items, order, insert_fraction, key_space,
                 on_new_node=None):
    """``warm_tree`` without the memo: the reference it must match."""
    return build_tree(n_items, order=order, insert_fraction=insert_fraction,
                      key_space=key_space,
                      rng=random.Random(build_seed), on_new_node=on_new_node)


def test_telemetry_identical_on_hit_and_miss(monkeypatch):
    # A tiny tree grown with many deletes frees nodes during the build;
    # the telemetry level counts include those nodes.
    config = _run_config(n_items=60, order=4, arrival_rate=0.2,
                         mix=OperationMix(0.3, 0.385, 0.315),
                         n_operations=200, warmup_operations=20)
    options = TelemetryOptions(sample_interval=2.0)

    def telemetry():
        recorder = TelemetryRecorder(options)
        run_simulation(config, telemetry=recorder)
        return repr(recorder.telemetry)

    with monkeypatch.context() as patch:
        patch.setattr(driver, "warm_tree", _fresh_build)
        expected = telemetry()
    assert telemetry() == expected  # miss
    _key, _template, nodes = builder._last
    assert any(node.dead for node in nodes)
    assert telemetry() == expected  # hit


def test_failed_run_leaves_template_as_built(monkeypatch):
    config = _run_config()
    with monkeypatch.context() as patch:
        patch.setattr(driver, "warm_tree", _fresh_build)
        expected = repr(run_simulation(config))
    assert repr(run_simulation(config)) == expected  # grows the template
    split = BPlusTree.complete_split

    def split_then_fail(self, *args):
        split(self, *args)
        raise RuntimeError("injected failure after a split")

    with monkeypatch.context() as patch:
        patch.setattr(BPlusTree, "complete_split", split_then_fail)
        with pytest.raises(RuntimeError, match="injected"):
            run_simulation(config)
    key, template, nodes = builder._last
    fresh, fresh_nodes = _grow(lambda hook: _fresh_build(*key,
                                                         on_new_node=hook))
    assert _shape(template, nodes) == _shape(fresh, fresh_nodes)
    assert all(node.lock is None for node in nodes)
    assert repr(run_simulation(config)) == expected


def test_small_run_locks_only_the_nodes_it_reaches(monkeypatch):
    locks = []

    class CountingLock(RWLock):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            locks.append(self)

    monkeypatch.setattr(driver, "RWLock", CountingLock)
    run_simulation(_run_config(n_items=3_000, n_operations=50,
                               warmup_operations=5))
    _key, template, nodes = builder._last
    assert 0 < len(locks) < len(nodes) / 2
    assert len({lock.name for lock in locks}) == len(locks)
    assert all(node.lock is None for node in nodes)


def test_memo_hit_allocates_only_the_nodes_the_run_creates(monkeypatch):
    config = _run_config()

    def allocations():
        start = next(node_module._node_ids)
        result = run_simulation(config)
        return next(node_module._node_ids) - start - 1, result

    with monkeypatch.context() as patch:
        patch.setattr(driver, "warm_tree", _fresh_build)
        fresh_count, fresh = allocations()
    run_simulation(config)  # miss: grows the template
    _key, _template, nodes = builder._last
    hit_count, hit = allocations()
    assert repr(hit) == repr(fresh)
    assert hit.splits > 0
    assert hit_count == fresh_count - len(nodes) > 0


def _eager_build(*args, on_new_node=None):
    """A memo-free tree whose nodes get their locks as they are
    allocated (build and run), as before locks were created lazily."""
    def eager(node):
        on_new_node(node)
        node.lock

    return _fresh_build(*args, on_new_node=eager)


@pytest.mark.parametrize("max_population", [1, 2_000])
def test_lazy_locks_match_eager_locks_after_height_shrank(monkeypatch,
                                                          max_population):
    # This build grows to height 3 and shrinks back to 2, so only freed
    # nodes ever reached level 3; its lock-wait key must stay.
    config = _run_config(n_items=8, order=3, key_space=16, seed=7,
                         arrival_rate=0.5, n_operations=100,
                         warmup_operations=10,
                         mix=OperationMix(0.3, 0.357, 0.343),
                         max_population=max_population)

    def run():
        recorder = TelemetryRecorder(TelemetryOptions(sample_interval=2.0))
        result = run_simulation(config, telemetry=recorder)
        return result, repr(recorder.telemetry)

    with monkeypatch.context() as patch:
        patch.setattr(driver, "warm_tree", _eager_build)
        expected, expected_telemetry = run()
    for _ in ("miss", "hit"):
        result, telemetry = run()
        _key, template, nodes = builder._last
        assert max(node.level for node in nodes) > template.height
        assert max(result.mean_lock_waits) == max(node.level
                                                  for node in nodes)
        assert repr(result) == repr(expected)
        # Level node counts include nodes no lock was created for.
        assert telemetry == expected_telemetry
    assert expected.overflowed == (max_population == 1)


def test_open_and_closed_runs_share_one_build(build_calls):
    run_simulation(_run_config())
    run_closed_simulation(_run_config(algorithm="link-type",
                                      arrival_rate=5.0),
                          multiprogramming_level=3)
    assert len(build_calls) == 1


def test_same_key_gives_no_rebuild(build_calls):
    for seed in (1, 2, 2, 1):
        warm_tree(seed, 50, 4, 0.8, 1 << 20)
    # One template is kept: 1, 2 and then 1 again are built.
    assert len(build_calls) == 3
    warm_tree(1, 50, 4, 0.8, 1 << 20)
    assert len(build_calls) == 3


def test_multi_seed_sweep_builds_each_tree_once(build_calls):
    base = _run_config(n_operations=200, warmup_operations=20)
    rates = (0.1, 0.2, 0.3)
    swept = sweep_replications(base, rates, scale=1.0, seeds=3)
    # Seed-major submission: one build per seed, not one per run.
    assert len(build_calls) == 3
    expected = [[run_simulation(base.with_rate(rate).with_seed(base.seed + k))
                 for k in range(3)] for rate in rates]
    assert repr(swept) == repr(expected)
