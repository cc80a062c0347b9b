"""The warm-up tree memo: ``warm_tree`` clones equal fresh builds."""

import random

import pytest

import repro.btree.builder as builder
from repro.btree import MERGE_AT_EMPTY, MERGE_AT_HALF, check_invariants
from repro.btree.builder import build_tree, warm_tree
from repro.experiments.common import sweep_replications
from repro.model import validation
from repro.model.params import OperationMix
from repro.obs import TelemetryOptions, TelemetryRecorder
from repro.simulator import SimulationConfig, driver, run_simulation
from repro.simulator.closed import run_closed_simulation

#: (n_items, order, insert_fraction, merge_policy) shapes to compare.
SHAPES = [
    (3_000, 13, 5.0 / 7.0, MERGE_AT_EMPTY),
    (800, 4, 0.6, MERGE_AT_EMPTY),
    (800, 5, 0.6, MERGE_AT_HALF),
    (0, 13, 1.0, MERGE_AT_EMPTY),
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
    return (tree.order, tree.merge_policy, len(tree), tree.height,
            tree.split_count, tree.merge_count, name(tree.root), list(tree),
            levels, allocation)


@pytest.mark.parametrize("n_items,order,insert_fraction,policy", SHAPES)
def test_clone_equals_fresh_build(n_items, order, insert_fraction, policy):
    seed = 7
    fresh, fresh_nodes = _grow(lambda hook: build_tree(
        n_items, order=order, insert_fraction=insert_fraction,
        merge_policy=policy, rng=random.Random(seed), on_new_node=hook))
    expected = _shape(fresh, fresh_nodes)
    check_invariants(fresh)
    for _ in ("miss", "hit"):
        clone, clone_nodes = _grow(lambda hook: warm_tree(
            seed, n_items, order, insert_fraction, policy,
            builder.DEFAULT_KEY_SPACE, on_new_node=hook))
        check_invariants(clone)
        assert _shape(clone, clone_nodes) == expected
        assert clone.merge_policy is policy
        ids = [node.node_id for node in clone_nodes]
        assert ids == list(range(ids[0], ids[0] + len(ids)))


def test_clone_shares_nothing():
    args = (3, 800, 4, 0.6, MERGE_AT_EMPTY, 1 << 20)
    first, first_nodes = _grow(lambda hook: warm_tree(*args, on_new_node=hook))
    second, second_nodes = _grow(lambda hook: warm_tree(*args,
                                                        on_new_node=hook))
    _key, template, template_nodes = builder._last
    assert len({first, second, template}) == 3

    def owned(nodes):
        objects = set()
        for node in nodes:
            objects.update((id(node), id(node.keys)))
            if not node.is_leaf:
                objects.add(id(node.children))
        return objects

    first_ids, second_ids = owned(first_nodes), owned(second_nodes)
    template_ids = owned(template_nodes)
    assert not first_ids & second_ids
    assert not first_ids & template_ids
    assert not second_ids & template_ids
    assert all(node.lock is None for node in template_nodes)
    # Mutating one clone leaves the template and the other clone alone.
    before = list(second)
    for key in list(first)[::2]:
        first.delete(key)
    for key in range(0, 1 << 20, 997):
        first.insert(key)
    assert list(second) == before == list(template)


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


def _fresh_build(build_seed, n_items, order, insert_fraction, merge_policy,
                 key_space, on_new_node=None):
    """``warm_tree`` without the memo: the reference it must match."""
    return build_tree(n_items, order=order, insert_fraction=insert_fraction,
                      merge_policy=merge_policy, key_space=key_space,
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


def test_open_and_closed_runs_share_one_build(build_calls):
    run_simulation(_run_config())
    run_closed_simulation(_run_config(algorithm="link-type",
                                      arrival_rate=5.0),
                          multiprogramming_level=3)
    assert len(build_calls) == 1


def test_same_key_gives_no_rebuild(build_calls):
    for seed in (1, 2, 2, 1):
        warm_tree(seed, 50, 4, 0.8, MERGE_AT_EMPTY, 1 << 20)
    # One template is kept: 1, 2 and then 1 again are built.
    assert len(build_calls) == 3
    warm_tree(1, 50, 4, 0.8, MERGE_AT_EMPTY, 1 << 20)
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


def test_agreement_sweep_builds_each_tree_once(build_calls, monkeypatch):
    monkeypatch.setattr(validation, "build_tree", builder.build_tree)
    base = _run_config(n_operations=200, warmup_operations=20)
    rates = (0.1, 0.2, 0.3)
    swept = validation.sweep_agreement(None, base, rates, n_seeds=2)
    # The measured shape, then one build per seed: seed-major submission.
    assert len(build_calls) == 3
    pointwise = {rate: validation.sweep_agreement(None, base, [rate],
                                                  n_seeds=2)[rate]
                 for rate in rates}
    assert repr(swept) == repr(pointwise)
