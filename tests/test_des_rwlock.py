"""Unit tests for the FCFS reader/writer lock."""

import pytest

from repro.des import READ, RWLock, Simulator, WRITE
from repro.errors import LockProtocolError
from repro.obs.sampler import LevelState


def _run(script):
    """Helper: run a list of (delay, generator-factory) and return sim."""
    sim = Simulator()
    for delay, factory in script:
        sim.spawn(factory(sim), delay=delay)
    sim.run()
    return sim


def test_readers_share():
    sim = Simulator()
    lock = RWLock()
    concurrent = []

    def reader(hold):
        yield lock.acquire_read
        concurrent.append(len(lock.readers))
        yield hold
        yield lock.release_cmd

    sim.spawn(reader(2.0))
    sim.spawn(reader(2.0), delay=0.5)
    sim.spawn(reader(2.0), delay=1.0)
    sim.run()
    assert max(concurrent) == 3


def test_writer_excludes_writer():
    sim = Simulator()
    lock = RWLock()
    active = []
    overlap = []

    def writer(name):
        yield lock.acquire_write
        overlap.append(list(active))
        active.append(name)
        yield 1.0
        active.remove(name)
        yield lock.release_cmd

    for i in range(4):
        sim.spawn(writer(i), delay=0.1 * i)
    sim.run()
    assert all(entry == [] for entry in overlap)


def test_writer_excludes_readers():
    sim = Simulator()
    lock = RWLock()
    trace = []

    def writer():
        yield lock.acquire_write
        trace.append(("w-in", sim.now))
        yield 5.0
        trace.append(("w-out", sim.now))
        yield lock.release_cmd

    def reader():
        yield lock.acquire_read
        trace.append(("r-in", sim.now))
        yield lock.release_cmd

    sim.spawn(writer())
    sim.spawn(reader(), delay=1.0)
    sim.run()
    assert trace == [("w-in", 0.0), ("w-out", 5.0), ("r-in", 5.0)]


def test_fcfs_reader_does_not_overtake_queued_writer():
    """A late reader must wait behind a queued writer even though it is
    compatible with the current (reader) holders — strict FCFS."""
    sim = Simulator()
    lock = RWLock()
    grants = []

    def holder():
        yield lock.acquire_read
        yield 4.0
        yield lock.release_cmd

    def writer():
        yield lock.acquire_write
        grants.append(("w", sim.now))
        yield 1.0
        yield lock.release_cmd

    def late_reader():
        yield lock.acquire_read
        grants.append(("r", sim.now))
        yield lock.release_cmd

    sim.spawn(holder())
    sim.spawn(writer(), delay=1.0)       # queues behind the holder
    sim.spawn(late_reader(), delay=2.0)  # compatible, but must not overtake
    sim.run()
    assert grants == [("w", 4.0), ("r", 5.0)]


def test_consecutive_readers_granted_together():
    sim = Simulator()
    lock = RWLock()
    grants = []

    def writer():
        yield lock.acquire_write
        yield 3.0
        yield lock.release_cmd

    def reader(name):
        yield lock.acquire_read
        grants.append((name, sim.now))
        yield 1.0
        yield lock.release_cmd

    sim.spawn(writer())
    sim.spawn(reader("r1"), delay=1.0)
    sim.spawn(reader("r2"), delay=2.0)
    sim.run()
    assert grants == [("r1", 3.0), ("r2", 3.0)]


def test_release_without_holding_raises():
    sim = Simulator()
    lock = RWLock("naked")

    def bad():
        yield lock.release_cmd

    sim.spawn(bad())
    with pytest.raises(LockProtocolError):
        sim.run()


def test_reentrant_request_raises():
    sim = Simulator()
    lock = RWLock()

    def bad():
        yield lock.acquire_read
        yield lock.acquire_read

    sim.spawn(bad())
    with pytest.raises(LockProtocolError):
        sim.run()


def test_holds_reports_mode_via_direct_api():
    from repro.des.process import Process

    def idle():
        yield 0.0

    sim = Simulator()
    lock = RWLock()
    reader = Process(idle(), name="r")
    writer = Process(idle(), name="w")
    assert lock.request(sim, reader, READ) is True
    assert lock.holds(reader) == READ
    assert lock.request(sim, writer, WRITE) is False  # queued
    assert lock.holds(writer) is None
    assert lock.queue_length == 1
    assert lock.writer_waiting()
    lock.release(sim, reader)
    assert lock.holds(writer) == WRITE
    assert lock.writer is writer
    lock.release(sim, writer)
    assert lock.writer is None
    assert lock.queue_length == 0


def test_observer_receives_waits():
    class Observer:
        def __init__(self):
            self.calls = []

        def on_wait(self, mode, wait):
            self.calls.append((mode, round(wait, 9)))

    sim = Simulator()
    observer = Observer()
    lock = RWLock(observer=observer)

    def writer():
        yield lock.acquire_write
        yield 2.0
        yield lock.release_cmd

    def reader():
        yield lock.acquire_read
        yield lock.release_cmd

    sim.spawn(writer())
    sim.spawn(reader(), delay=0.5)
    sim.run()
    assert observer.calls == [(WRITE, 0.0), (READ, 1.5)]


def test_writer_presence_accounting(call_at):
    # The live counts a telemetry LevelState sees, and the writer
    # presence root_sampler polls for rho_w (paper Figure 10).
    sim = Simulator()
    lock = RWLock()
    lock.telemetry = state = LevelState(0)
    snapshots = []

    def snapshot():
        snapshots.append((sim.now, state.held_read, state.held_write,
                          state.queued,
                          lock.writer is not None or lock.writer_waiting()))

    def writer():
        yield lock.acquire_write
        yield 4.0
        yield lock.release_cmd

    def reader():
        yield lock.acquire_read
        yield 2.0
        yield lock.release_cmd

    sim.spawn(reader())
    sim.spawn(writer(), delay=1.0)  # waits 1 unit behind the reader
    for at in (0.5, 1.5, 3.0, 7.0):
        call_at(sim, at, snapshot)
    sim.run()
    # present = waiting (1..2) + holding (2..6)
    assert snapshots == [(0.5, 1, 0, 0, False), (1.5, 1, 0, 1, True),
                         (3.0, 0, 1, 0, True), (7.0, 0, 0, 0, False)]
    assert (state.grants_read, state.grants_write) == (1, 1)


def test_grant_counters():
    sim = Simulator()
    lock = RWLock()
    lock.telemetry = state = LevelState(0)

    def reader():
        yield lock.acquire_read
        yield lock.release_cmd

    for i in range(5):
        sim.spawn(reader(), delay=float(i))
    sim.run()
    assert state.grants_read == 5
    assert state.grants_write == 0
