"""Lean node locks: a lock is two small objects, itself and the list of
its R holders, and acquiring is a plain call.

The simulator gives every B-tree node it reaches a FCFS R/W lock, so a
run on the 40k-item paper tree makes about five thousand of them.  These
tests pin what a lock costs in memory, that nothing keeps an old
template's locks alive, that a long list of R holders keeps the FCFS
discipline, and the calls and yields the protocol refuses.
"""

import gc
import random
import tracemalloc
import weakref

import pytest

import repro.btree.builder as builder
from repro.des import READ, WRITE, RunningMean, RWLock, Simulator
from repro.errors import LockProtocolError, ProcessError
from repro.obs import LevelState
from repro.simulator import SimulationConfig, driver, run_simulation
from repro.simulator.driver import run_context
from repro.simulator.metrics import MetricsCollector

#: Bytes one node lock may cost, the lock and its holder list included
#: (it cost about 490 with a set of readers and two interned commands).
MAX_LOCK_BYTES = 200


@pytest.fixture(autouse=True)
def empty_memo(monkeypatch):
    monkeypatch.setattr(builder, "_last", None)


def _config(**overrides):
    values = dict(algorithm="naive-lock-coupling", arrival_rate=0.3,
                  n_items=4_000, order=13, n_operations=200,
                  warmup_operations=20, seed=3)
    values.update(overrides)
    return SimulationConfig(**values)


def _nodes(tree):
    return [node for level in range(1, tree.height + 1)
            for node in tree.level_nodes(level)]


def test_node_lock_costs_at_most_200_bytes():
    config = _config()
    with run_context(config, 1, random.Random(1), random.Random(2),
                     MetricsCollector()) as ctx:
        nodes = _nodes(ctx.tree)
        assert len(nodes) > 300
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for node in nodes:
                node.lock  # the factory makes the node's lock
            per_lock = (tracemalloc.get_traced_memory()[0] - before) \
                / len(nodes)
        finally:
            tracemalloc.stop()
        assert all(node.lock.name is node.node_id for node in nodes)
    assert 0 < per_lock <= MAX_LOCK_BYTES


@pytest.mark.usefixtures("batch_memo")
def test_old_template_lock_dies_when_warm_tree_switches(monkeypatch):
    class WeakLock(RWLock):
        __slots__ = ("__weakref__",)

    monkeypatch.setattr(driver, "RWLock", WeakLock)
    gc.collect()
    gc.disable()
    try:
        run_simulation(_config())
        spare = builder._last[1].spare_locks
        assert spare
        lock = weakref.ref(spare[0])
        del spare
        run_simulation(_config())  # same template: the lock is reused
        assert lock() is not None
        run_simulation(_config(seed=4))  # another tree replaces it
        assert lock() is None  # freed by reference counting alone
    finally:
        gc.enable()


#: The many-readers scenario: a writer holds the lock from t=0 to t=1;
#: 400 readers queue behind it from t=0.5 and are granted together at
#: t=1, then release in an order unlike their grant order; a second
#: writer queued behind them and a reader behind that writer follow.
N_READERS = 400


def _reader_arrival(i):
    return 0.5 + i * 0.001


def _reader_hold(i):
    return 1.0 + (i * 7 % N_READERS) * 0.01


def test_four_hundred_concurrent_readers_are_served_fcfs():
    sim = Simulator()
    lock = RWLock("many")
    lock.read_waits, lock.write_waits = RunningMean(), RunningMean()
    lock.telemetry = state = LevelState(1)
    granted, peak = [], []

    def customer(name, mode, hold):
        requested = sim.now
        wait = yield (lock.acquire_read if mode == READ
                      else lock.acquire_write)(sim)
        granted.append((name, requested, sim.now, wait))
        peak.append(len(lock.readers))
        yield hold
        lock.release(sim)

    sim.spawn(customer("w0", WRITE, 1.0))
    for i in range(N_READERS):
        sim.spawn(customer(i, READ, _reader_hold(i)),
                  delay=_reader_arrival(i))
    sim.spawn(customer("w1", WRITE, 1.0), delay=0.95)
    sim.spawn(customer("late", READ, 1.0), delay=0.97)
    sim.run()

    last_reader_out = 1.0 + max(_reader_hold(i) for i in range(N_READERS))
    expected = [("w0", 0.0, 0.0, 0.0)]
    expected += [(i, _reader_arrival(i), 1.0, 1.0 - _reader_arrival(i))
                 for i in range(N_READERS)]
    expected += [("w1", 0.95, last_reader_out, last_reader_out - 0.95),
                 ("late", 0.97, last_reader_out + 1.0,
                  last_reader_out + 1.0 - 0.97)]
    assert [name for name, *_ in granted] == [name for name, *_ in expected]
    for got, want in zip(granted, expected):
        assert got == pytest.approx(want, abs=1e-12)
    assert max(peak) == N_READERS
    assert lock.readers == frozenset() and lock.writer is None
    assert (state.held_read, state.held_write, state.queued) == (0, 0, 0)
    assert (state.grants_read, state.grants_write) == (N_READERS + 1, 2)
    read_waits = [wait for name, _r, _g, wait in granted
                  if name not in ("w0", "w1")]
    assert lock.read_waits.n == N_READERS + 1
    assert lock.read_waits.mean == pytest.approx(
        sum(read_waits) / len(read_waits), rel=1e-12)


@pytest.mark.parametrize("mode", [READ, WRITE])
def test_acquire_outside_a_step_raises(mode):
    sim = Simulator()
    lock = RWLock(7)
    acquire = lock.acquire_read if mode == READ else lock.acquire_write
    with pytest.raises(LockProtocolError, match="outside a process step"):
        acquire(sim)
    assert lock.readers == frozenset() and lock.writer is None
    assert lock.queue_length == 0


@pytest.mark.parametrize("held,again", [
    (READ, READ), (WRITE, WRITE), (READ, WRITE), (WRITE, READ)])
def test_reentrant_acquire_raises(held, again):
    sim = Simulator()
    lock = RWLock(7)

    def body():
        yield (lock.acquire_read if held == READ else lock.acquire_write)(sim)
        yield (lock.acquire_read if again == READ
               else lock.acquire_write)(sim)

    process = sim.spawn(body(), name="twice")
    with pytest.raises(LockProtocolError,
                       match="twice already holds lock 7; re-entrant"):
        sim.run()
    assert lock.holds(process) == held
    assert lock.queue_length == 0


@pytest.mark.parametrize("value", [
    "uncalled", "lock", None, 0, True, "text"])
def test_yielding_neither_a_float_nor_wait_raises(value):
    sim = Simulator()
    lock = RWLock(7)
    # ``uncalled`` is the old command protocol: the method, not its call.
    command = {"uncalled": lock.acquire_read, "lock": lock}.get(value, value)

    def body():
        yield command

    sim.spawn(body())
    with pytest.raises(ProcessError, match="unsupported command"):
        sim.run()
    assert lock.readers == frozenset()

