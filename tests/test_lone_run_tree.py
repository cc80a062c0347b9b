"""A run outside a batch owns its warm-up tree.

The warm-up tree memo (:func:`repro.btree.builder.tree_memo`) is open
only while a batch runs: inline for the batch's loop, and in a pool
worker for the worker's lifetime.  A lone ``run_simulation``,
``run_closed_simulation`` or ``measured_shape`` builds its tree, opens
no undo journal on it, keeps no template and lets the tree die when it
returns, with the same result a batch gives.
"""

import concurrent.futures
import gc
import weakref

import pytest

import repro.btree.builder as builder
from repro.btree.tree import BPlusTree
from repro.model.validation import measured_shape
from repro.parallel import SimTask, executor, run_batch
from repro.simulator import SimulationConfig, run_simulation
from repro.simulator.closed import run_closed_simulation


def _config(**overrides):
    values = dict(algorithm="naive-lock-coupling", arrival_rate=0.3,
                  n_items=500, order=5, n_operations=400,
                  warmup_operations=40, seed=21)
    values.update(overrides)
    return SimulationConfig(**values)


#: The same tree, grown with many splits and stopped with locks held
#: and requests queued (see tests/test_lock_reuse.py).
OVERFLOWING = _config(arrival_rate=3.0, max_population=30,
                      warmup_operations=5)

#: (lone call, the batch task that computes the same result).
CALLS = {
    "open": (lambda: run_simulation(_config()), SimTask(_config())),
    "open-overflowing": (lambda: run_simulation(OVERFLOWING),
                         SimTask(OVERFLOWING)),
    "closed": (lambda: run_closed_simulation(_config(), 3),
               SimTask(_config(), kind="closed", mpl=3)),
    "shape": (lambda: measured_shape(_config()),
              SimTask(_config(), kind="shape")),
}


@pytest.fixture
def built(monkeypatch):
    """A weak reference to every tree ``warm_tree`` builds."""
    trees = []
    build_tree = builder.build_tree

    def recording(*args, **kwargs):
        tree = build_tree(*args, **kwargs)
        trees.append(weakref.ref(tree))
        return tree

    monkeypatch.setattr(builder, "build_tree", recording)
    return trees


@pytest.fixture
def saves(monkeypatch):
    """Every node the undo journal saves."""
    saved = []
    save = BPlusTree._save

    def recording(self, *nodes):
        saved.extend(nodes)
        save(self, *nodes)

    monkeypatch.setattr(BPlusTree, "_save", recording)
    return saved


@pytest.mark.parametrize("name", sorted(CALLS))
def test_lone_call_keeps_no_template_and_opens_no_journal(name, built,
                                                          saves):
    call, _task = CALLS[name]
    call()
    assert len(built) == 1
    assert builder._last is None
    assert saves == []


@pytest.mark.parametrize("name", sorted(CALLS))
def test_lone_call_frees_its_tree_on_return(name, built):
    """Freed by reference counting alone: the run's suspended processes,
    which hold the tree through its locks, are dropped with them."""
    call, _task = CALLS[name]
    gc.collect()
    gc.disable()
    try:
        call()
        assert len(built) == 1
        assert built[0]() is None
    finally:
        gc.enable()


def test_a_batch_journals_its_runs_and_shares_one_build(built, saves):
    """The same calls inside a batch: one build, runs under the journal."""
    tasks = [task for _call, task in CALLS.values()]
    run_batch(tasks)
    assert len(built) == 1
    assert saves
    # The scope closed with the batch: the template went with it.
    assert builder._last is None
    assert built[0]() is None


def test_batch_inside_an_open_scope_keeps_the_template(built):
    with builder.tree_memo():
        run_batch([CALLS["open"][1]])
        assert len(built) == 1
        _key, template, _levels = builder._last
        assert template is built[0]()
        run_simulation(_config())  # a hit: no second build
        assert len(built) == 1
    assert builder._last is None


@pytest.mark.parametrize("jobs", [1, 2])
def test_lone_results_equal_batch_results(jobs):
    names = sorted(CALLS)
    lone = [repr(CALLS[name][0]()) for name in names]
    batch = run_batch([CALLS[name][1] for name in names], jobs=jobs)
    assert [repr(result) for result in batch] == lone


def test_pool_worker_shares_one_build_between_tasks(built):
    """Drives the pool worker's initializer and entry point in this
    process: two tasks on one tree build it once, and the memo stays
    open until the worker's scope closes."""
    open_task, closed_task = CALLS["open"][1], CALLS["closed"][1]
    lone = [repr(run_simulation(open_task.config)),
            repr(run_closed_simulation(closed_task.config,
                                       closed_task.mpl))]
    del built[:]
    executor._open_worker_memo()
    try:
        results = [repr(executor._execute_guarded(task, ()))
                   for task in (open_task, closed_task)]
        assert len(built) == 1
        assert builder._last[1] is built[0]()
    finally:
        executor._worker_memo.close()
    assert results == lone
    assert builder._last is None


def test_pool_workers_open_the_memo(monkeypatch):
    """Every pool the batch starts opens the memo in each worker."""
    initializers = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            initializers.append(kwargs.get("initializer"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    tasks = [CALLS["open"][1], CALLS["closed"][1]]
    assert len(run_batch(tasks, jobs=2)) == 2
    assert initializers == [executor._open_worker_memo]
