"""Unit tests for the FCFS reader/writer lock."""

import pytest

from repro.des import READ, RWLock, RunningMean, Simulator, WAIT, WRITE
from repro.errors import LockProtocolError
from repro.obs import LevelState


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
        yield lock.acquire_read(sim)
        concurrent.append(len(lock.readers))
        yield hold
        lock.release(sim)

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
        yield lock.acquire_write(sim)
        overlap.append(list(active))
        active.append(name)
        yield 1.0
        active.remove(name)
        lock.release(sim)

    for i in range(4):
        sim.spawn(writer(i), delay=0.1 * i)
    sim.run()
    assert all(entry == [] for entry in overlap)


def test_writer_excludes_readers():
    sim = Simulator()
    lock = RWLock()
    trace = []

    def writer():
        yield lock.acquire_write(sim)
        trace.append(("w-in", sim.now))
        yield 5.0
        trace.append(("w-out", sim.now))
        lock.release(sim)

    def reader():
        yield lock.acquire_read(sim)
        trace.append(("r-in", sim.now))
        lock.release(sim)

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
        yield lock.acquire_read(sim)
        yield 4.0
        lock.release(sim)

    def writer():
        yield lock.acquire_write(sim)
        grants.append(("w", sim.now))
        yield 1.0
        lock.release(sim)

    def late_reader():
        yield lock.acquire_read(sim)
        grants.append(("r", sim.now))
        lock.release(sim)

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
        yield lock.acquire_write(sim)
        yield 3.0
        lock.release(sim)

    def reader(name):
        yield lock.acquire_read(sim)
        grants.append((name, sim.now))
        yield 1.0
        lock.release(sim)

    sim.spawn(writer())
    sim.spawn(reader("r1"), delay=1.0)
    sim.spawn(reader("r2"), delay=2.0)
    sim.run()
    assert grants == [("r1", 3.0), ("r2", 3.0)]


def test_release_without_holding_raises():
    sim = Simulator()
    lock = RWLock("naked")

    def bad():
        lock.release(sim)
        yield 1.0

    sim.spawn(bad())
    with pytest.raises(LockProtocolError, match="without holding"):
        sim.run()


def test_release_by_a_process_that_does_not_hold_it_raises():
    sim = Simulator()
    lock = RWLock("taken")

    def holder():
        yield lock.acquire_write(sim)
        yield 5.0
        lock.release(sim)

    def reader_holder():
        yield lock.acquire_read(sim)
        yield 5.0

    def intruder():
        yield 1.0
        lock.release(sim)

    sim.spawn(holder())
    sim.spawn(intruder())
    with pytest.raises(LockProtocolError, match="without holding"):
        sim.run()
    assert lock.writer is not None  # the holder keeps its W lock

    sim = Simulator()
    lock = RWLock("shared")
    sim.spawn(reader_holder())
    sim.spawn(intruder())
    with pytest.raises(LockProtocolError, match="without holding"):
        sim.run()
    assert len(lock.readers) == 1


def test_release_outside_a_step_raises():
    sim = Simulator()
    lock = RWLock("outside")
    with pytest.raises(LockProtocolError, match="outside a process step"):
        lock.release(sim)  # free lock, no process stepped

    def holder():
        yield lock.acquire_write(sim)
        yield 5.0

    sim.spawn(holder())
    sim.run(until=1.0)
    assert sim.current is None and lock.writer is not None
    with pytest.raises(LockProtocolError, match="outside a process step"):
        lock.release(sim)  # held, but not by a process being stepped
    assert lock.writer is not None

    sim = Simulator()
    lock = RWLock("read-held")

    def reader():
        yield lock.acquire_read(sim)
        yield 5.0

    sim.spawn(reader())
    sim.run(until=1.0)
    with pytest.raises(LockProtocolError, match="outside a process step"):
        lock.release(sim)
    assert len(lock.readers) == 1


def test_reentrant_request_raises():
    sim = Simulator()
    lock = RWLock()

    def bad():
        yield lock.acquire_read(sim)
        yield lock.acquire_read(sim)

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
    sim.current = reader  # what the engine sets while stepping ``reader``
    assert lock.acquire_read(sim) == 0.0  # granted
    assert lock.holds(reader) == READ
    sim.current = writer
    assert lock.acquire_write(sim) is WAIT  # queued
    assert lock.holds(writer) is None
    assert lock.queue_length == 1
    assert lock.writer_waiting()
    sim.current = reader
    lock.release(sim)
    assert lock.holds(writer) == WRITE
    assert lock.writer is writer
    sim.current = writer
    lock.release(sim)
    assert lock.writer is None
    assert lock.queue_length == 0


def test_grant_waits_reach_generator_and_running_means():
    sim = Simulator()
    lock = RWLock()
    lock.read_waits, lock.write_waits = RunningMean(), RunningMean()
    calls = []

    def writer():
        calls.append((WRITE, round((yield lock.acquire_write(sim)), 9)))
        yield 2.0
        lock.release(sim)

    def reader():
        calls.append((READ, round((yield lock.acquire_read(sim)), 9)))
        lock.release(sim)

    sim.spawn(writer())
    sim.spawn(reader(), delay=0.5)
    sim.run()
    assert calls == [(WRITE, 0.0), (READ, 1.5)]
    assert (lock.write_waits.n, lock.write_waits.mean) == (1, 0.0)
    assert (lock.read_waits.n, lock.read_waits.mean) == (1, 1.5)


def test_writer_presence_accounting(call_at):
    # The live counts a telemetry LevelState sees, and the writer
    # presence the root-sample booking reads for rho_w (paper Figure 10).
    sim = Simulator()
    lock = RWLock()
    lock.telemetry = state = LevelState(0)
    snapshots = []

    def snapshot():
        snapshots.append((sim.now, state.held_read, state.held_write,
                          state.queued,
                          lock.writer is not None or lock.writer_waiting()))

    def writer():
        yield lock.acquire_write(sim)
        yield 4.0
        lock.release(sim)

    def reader():
        yield lock.acquire_read(sim)
        yield 2.0
        lock.release(sim)

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
        yield lock.acquire_read(sim)
        lock.release(sim)

    for i in range(5):
        sim.spawn(reader(), delay=float(i))
    sim.run()
    assert state.grants_read == 5
    assert state.grants_write == 0
