"""The public API surface: exports resolve and stay stable."""

import importlib

import pytest

PACKAGES = ("repro", "repro.des", "repro.btree", "repro.model",
            "repro.simulator", "repro.workload", "repro.experiments")


@pytest.mark.parametrize("package_name", PACKAGES)
def test_package_imports(package_name):
    importlib.import_module(package_name)


@pytest.mark.parametrize("package_name",
                         ("repro", "repro.des", "repro.btree",
                          "repro.model", "repro.workload"))
def test_all_entries_resolve(package_name):
    package = importlib.import_module(package_name)
    for name in getattr(package, "__all__", ()):
        assert hasattr(package, name), f"{package_name}.{name} missing"


def test_version_present():
    import repro
    assert repro.__version__


def test_console_script_target_exists():
    from repro.experiments.runner import main
    assert callable(main)


def test_compactor_max_sweeps_terminates():
    """The compactor generator honours its sweep budget (used by tests
    and by callers that want a bounded pass)."""
    import random

    from repro.btree.builder import build_tree
    from repro.des.engine import Simulator
    from repro.des.rwlock import RWLock
    from repro.model.params import CostModel
    from repro.simulator.compaction import compactor
    from repro.simulator.costs import ServiceTimeSampler
    from repro.simulator.metrics import MetricsCollector
    from repro.simulator.operations import OperationContext

    def attach(node):
        node.lock = RWLock(str(node.node_id))

    tree = build_tree(200, order=4, rng=random.Random(1),
                      on_new_node=attach)
    sim = Simulator()
    ctx = OperationContext(
        sim, tree,
        ServiceTimeSampler(CostModel(), tree, random.Random(2)),
        MetricsCollector(), random.Random(3))
    process = sim.spawn(compactor(ctx, interval=1.0, max_sweeps=3))
    sim.run()
    assert process.done
