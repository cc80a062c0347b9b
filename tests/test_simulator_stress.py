"""High-contention stress tests.

Order-3 nodes and an arrival rate far above anything the figures use
force constant splits, root growth, merge-at-empty removals and (for
the Link-type algorithm) link chases and split races — the regime where
concurrency bugs live.  After the storm the tree must be structurally
sound, no process may be stuck and no lock may be leaked.
"""

import random

import pytest

from repro.algorithms import algorithm_names, get_algorithm
from repro.btree.builder import build_tree
from repro.btree.node import Node
from repro.btree.validate import check_invariants
from repro.des.engine import Simulator
from repro.des.rwlock import RWLock
from repro.model.params import CostModel
from repro.simulator.costs import ServiceTimeSampler
from repro.simulator.metrics import MetricsCollector
from repro.simulator.operations import OperationContext, pick_resident_key

KEY_SPACE = 400
ALGORITHMS = sorted(algorithm_names())


def _storm(algorithm: str, seed: int, n_ops: int = 1_200,
           rate: float = 2.0, order: int = 3):
    rng = random.Random(seed)

    def attach(node: Node) -> None:
        node.lock = RWLock(str(node.node_id))

    tree = build_tree(60, order=order, key_space=KEY_SPACE,
                      rng=random.Random(seed + 100), on_new_node=attach)
    sim = Simulator()
    metrics = MetricsCollector()
    metrics.measuring = True
    metrics.measure_start_time = 0.0
    sampler = ServiceTimeSampler(CostModel(disk_cost=2.0), tree,
                                 random.Random(seed + 200))
    ctx = OperationContext(sim, tree, sampler, metrics, rng)
    module = get_algorithm(algorithm).ops
    t = 0.0
    for _ in range(n_ops):
        t += rng.expovariate(rate)
        u = rng.random()
        if u < 0.25:
            op, key = "search", rng.randrange(KEY_SPACE)
        elif u < 0.75:
            op, key = "insert", rng.randrange(KEY_SPACE)
        else:
            op, key = "delete", pick_resident_key(tree, rng, KEY_SPACE)
        sim.spawn(getattr(module, op)(ctx, key), name=op, delay=t)
    sim.run()
    return sim, tree, metrics


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_storm_leaves_tree_consistent(algorithm, seed):
    sim, tree, _metrics = _storm(algorithm, seed)
    assert sim.active_processes == 0, "stuck operation processes"
    check_invariants(tree, allow_underflow=algorithm.startswith("link"))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_storm_leaks_no_locks(algorithm):
    _sim, tree, _metrics = _storm(algorithm, seed=9)
    for level in range(1, tree.height + 1):
        for node in tree.level_nodes(level):
            assert node.lock.writer is None
            assert not node.lock.readers
            assert node.lock.queue_length == 0


def test_storm_grows_the_tree():
    """Inserts dominate, so the storm splits nodes and raises the tree."""
    _sim, tree, metrics = _storm("naive-lock-coupling", seed=5,
                                 n_ops=2_000)
    assert metrics.splits > 50
    assert tree.height >= 4


def test_link_storm_chases_links():
    """At order 3 and rate 2 the Link-type algorithm actually exercises
    the right-link recovery path."""
    crossings = 0
    for seed in range(8):
        _sim, _tree, metrics = _storm("link-type", seed=seed)
        crossings += metrics.link_crossings
    assert crossings > 0
