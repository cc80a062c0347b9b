"""Node locks outlive a run, but not their warm-up template.

At the end of a run its locks are reset and kept in the tree's
``spare_locks`` for the next run on the same template; when
``warm_tree`` grows another tree, reference counting frees the old
template and its locks.  A lock holds a wait queue only while a request
waits: a contended request allocates it and the grant of the last
waiter drops it.  None of this may leak state from one run into the
next.
"""

import gc
import random
import weakref
from collections import deque
from dataclasses import replace

import pytest

import repro.btree.builder as builder
from repro.btree.builder import build_tree
from repro.des import READ, WAIT, WRITE, RWLock, Simulator
from repro.simulator import SimulationConfig, driver, run_simulation
from repro.simulator.closed import run_closed_simulation


@pytest.fixture(autouse=True)
def empty_memo(monkeypatch):
    monkeypatch.setattr(builder, "_last", None)


def _fresh_build(build_seed, n_items, order, insert_fraction, key_space,
                 on_new_node=None):
    """``warm_tree`` without the memo. The hook sees
    the build's nodes as it allocates them, so no build levels are left
    to register."""
    tree = build_tree(n_items, order=order, insert_fraction=insert_fraction,
                      key_space=key_space,
                      rng=random.Random(build_seed), on_new_node=on_new_node)
    return tree, ()


def _config(**overrides):
    values = dict(algorithm="naive-lock-coupling", arrival_rate=0.3,
                  n_items=500, order=5, n_operations=400,
                  warmup_operations=40, seed=21)
    values.update(overrides)
    return SimulationConfig(**values)


#: Same tree as ``_config()``: a high rate on a small allocation, so the
#: run stops with locks held and requests queued.
OVERFLOWING = dict(arrival_rate=3.0, max_population=30, warmup_operations=5)


@pytest.fixture
def lock_events(monkeypatch):
    """Record each lock's state just before it is reset, and every lock
    an acquire ever found contended."""
    before_reset, contended = [], set()
    reset = RWLock.reset

    def recording_reset(lock):
        before_reset.append((lock, len(lock.readers), lock.writer,
                             lock.queue_length, lock._queue))
        reset(lock)

    def recording(acquire):
        def call(lock, sim):
            result = acquire(lock, sim)
            if result is WAIT:
                contended.add(lock)
            return result
        return call

    monkeypatch.setattr(RWLock, "reset", recording_reset)
    for name in ("acquire_read", "acquire_write"):
        monkeypatch.setattr(RWLock, name, recording(getattr(RWLock, name)))
    return before_reset, contended


def _spare_locks():
    _key, template, _levels = builder._last
    return template.spare_locks


def _nodes(tree):
    """Every node of ``tree`` (every node a run can reach)."""
    return [node for level in range(1, tree.height + 1)
            for node in tree.level_nodes(level)]


def _assert_template_clean():
    _key, template, _levels = builder._last
    assert all(node.lock is None for node in _nodes(template))
    assert template.spare_locks
    for lock in template.spare_locks:
        assert lock.readers == frozenset() and lock.writer is None
        assert lock._queue == () and lock._queued_writers == 0
        assert lock.read_waits is None and lock.write_waits is None
        assert lock.telemetry is None
        assert lock.on_change is None


def test_run_after_overflow_with_held_locks_is_unaffected(monkeypatch,
                                                          lock_events):
    before_reset, _contended = lock_events
    config = _config()
    with monkeypatch.context() as patch:
        patch.setattr(driver, "warm_tree", _fresh_build)
        expected = repr(run_simulation(config))

    overflowed = run_simulation(_config(**OVERFLOWING))
    assert overflowed.overflowed
    last_run = before_reset[-len(_spare_locks()):]
    held = [entry for entry in last_run if entry[1] or entry[2] is not None]
    queued = [entry for entry in last_run if entry[3]]
    assert held and queued
    _assert_template_clean()

    assert repr(run_simulation(config)) == expected
    _assert_template_clean()


@pytest.fixture
def made_locks(monkeypatch):
    """Every lock a run's lock factory hands out, as (node, lock, the
    lock's name and wait means then)."""
    made = []
    lock_factory = driver.lock_factory

    def recording_factory(factory):
        def make(node):
            lock = factory(node)
            made.append((node, lock, lock.name,
                         (lock.read_waits, lock.write_waits)))
            return lock
        return lock_factory(make)

    monkeypatch.setattr(driver, "lock_factory", recording_factory)
    return made


def test_pooled_locks_are_reused_renamed_and_rebound(monkeypatch,
                                                     made_locks):
    built = []

    class CountingLock(RWLock):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    collectors = []

    class RecordingCollector(driver.MetricsCollector):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            collectors.append(self)

    monkeypatch.setattr(driver, "RWLock", CountingLock)
    monkeypatch.setattr(driver, "MetricsCollector", RecordingCollector)
    config = _config()
    first = run_simulation(config)
    assert len(built) == len(made_locks) == len(_spare_locks()) > 0
    first_made = list(made_locks)
    del made_locks[:]
    # The same run reaches the same nodes, so the pool covers them all.
    assert repr(run_simulation(config)) == repr(first)
    assert len(built) == len(first_made)
    assert {id(made[1]) for made in made_locks} == \
        {id(lock) for lock in built}
    assert len(collectors) == 2
    for run, collector in zip((first_made, made_locks), collectors):
        # Named by the node's own id object: nothing new is allocated.
        assert all(name is node.node_id for node, _lock, name, _ in run)
        # Each lock is bound to its level's wait means in this run's
        # collector, never to the previous run's.
        for node, _lock, _name, (read, write) in run:
            level_read, level_write = collector.level_waits[node.level]
            assert read is level_read and write is level_write
    assert collectors[0] is not collectors[1]


def test_run_on_another_tree_builds_a_new_pool():
    run_simulation(_config())
    _key, old_template, _levels = builder._last
    old = list(old_template.spare_locks)  # kept alive: ids stay unique
    assert old
    run_simulation(_config(seed=22))  # another build seed, another tree
    assert _spare_locks()
    assert not {id(lock) for lock in old} & {
        id(lock) for lock in _spare_locks()}
    # Nothing touches the old pool: it goes when its template goes
    # (tests/test_lock_footprint.py).
    assert old_template.spare_locks == old


@pytest.mark.parametrize("stopped_run", [
    lambda config: run_simulation(config),
    lambda config: run_simulation(replace(config, **OVERFLOWING)),
    lambda config: run_closed_simulation(config, 4),
], ids=["open", "open-overflowing", "closed"])
def test_stopped_run_leaves_no_cycle_to_its_template(stopped_run):
    """A run stops with processes still suspended on its simulator's
    heap; the drivers drop them, so the old template is freed as soon as
    the memo lets it go, without the cyclic garbage collector."""
    gc.collect()
    gc.disable()
    try:
        stopped_run(_config())
        template = weakref.ref(builder._last[1])
        run_simulation(_config(seed=22))  # another tree replaces it
        assert template() is None
    finally:
        gc.enable()


def test_only_contended_locks_allocate_a_queue(lock_events):
    """The run stops with requests queued: exactly the locks that still
    have waiters hold a deque then, and each of them was contended;
    every other lock, contended earlier or never, is back to ``()``."""
    before_reset, contended = lock_events
    run_simulation(_config(**OVERFLOWING))
    assert contended and len(contended) < len(before_reset)
    waiting = [lock for lock, _r, _w, queued, _q in before_reset if queued]
    assert waiting and len(waiting) < len(contended)
    for lock, _readers, _writer, queued, queue in before_reset:
        assert isinstance(queue, deque) == bool(queued)
        if queued:
            assert lock in contended and len(queue) == queued
        else:
            assert queue == ()


def test_queue_is_allocated_on_first_contended_request():
    """A queue exists from the first contended request until the grant
    of the last waiter."""
    sim = Simulator()
    lock = RWLock("n1")
    log = []

    def holder(mode, hold):
        yield (lock.acquire_write if mode == WRITE else lock.acquire_read)(sim)
        log.append((type(lock._queue), len(lock._queue)))
        yield hold
        log.append((type(lock._queue), len(lock._queue)))
        lock.release(sim)

    sim.spawn(holder(READ, 1.0))
    sim.spawn(holder(READ, 1.0), delay=0.5)
    sim.run()
    assert lock._queue == () and log == [(tuple, 0)] * 4
    log.clear()
    sim.spawn(holder(WRITE, 1.0))
    sim.spawn(holder(READ, 1.0), delay=0.5)
    sim.run()
    # The writer's grant, its release with the reader queued, then the
    # reader's grant and release after the dispatch dropped the deque.
    assert log == [(tuple, 0), (deque, 1), (tuple, 0), (tuple, 0)]
    assert lock._queue == ()
    lock.reset()
    assert lock._queue == ()
