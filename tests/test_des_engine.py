"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.des import Acquire, Hold, READ, RWLock, Release, Simulator, WRITE
from repro.errors import ProcessError, SimulationError


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_schedule_runs_in_time_order():
    sim = Simulator()
    seen = []
    sim.schedule(3.0, lambda: seen.append("c"))
    sim.schedule(1.0, lambda: seen.append("a"))
    sim.schedule(2.0, lambda: seen.append("b"))
    sim.run()
    assert seen == ["a", "b", "c"]
    assert sim.now == 3.0


def test_simultaneous_events_run_in_scheduling_order():
    sim = Simulator()
    seen = []
    for tag in ("first", "second", "third"):
        sim.schedule(1.0, lambda tag=tag: seen.append(tag))
    sim.run()
    assert seen == ["first", "second", "third"]


def test_schedule_in_the_past_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.schedule_at(5.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [5.0]


def test_run_until_stops_and_advances_clock():
    sim = Simulator()
    seen = []
    sim.schedule(10.0, lambda: seen.append("late"))
    sim.run(until=4.0)
    assert seen == []
    assert sim.now == 4.0
    sim.run()
    assert seen == ["late"]


def test_run_until_with_empty_heap_advances_clock():
    sim = Simulator()
    sim.run(until=7.5)
    assert sim.now == 7.5


def test_hold_advances_time():
    sim = Simulator()
    times = []

    def process():
        yield Hold(2.5)
        times.append(sim.now)
        yield Hold(1.5)
        times.append(sim.now)

    sim.spawn(process())
    sim.run()
    assert times == [2.5, 4.0]


def test_zero_hold_does_not_schedule():
    sim = Simulator()
    steps = []

    def process():
        steps.append(sim.now)
        yield Hold(0.0)
        steps.append(sim.now)

    sim.spawn(process())
    sim.run()
    assert steps == [0.0, 0.0]


def test_spawn_delay():
    sim = Simulator()
    starts = []

    def process():
        starts.append(sim.now)
        yield Hold(1.0)

    sim.spawn(process(), delay=3.0)
    sim.run()
    assert starts == [3.0]


def test_on_done_callback_and_bookkeeping():
    sim = Simulator()
    finished = []

    def process():
        yield Hold(1.0)

    sim.spawn(process(), name="p", on_done=lambda p: finished.append(p.name))
    assert sim.active_processes == 1
    sim.run()
    assert finished == ["p"]
    assert sim.active_processes == 0
    assert sim.total_spawned == 1


def test_process_records_start_and_finish_times():
    sim = Simulator()

    def process():
        yield Hold(2.0)

    proc = sim.spawn(process(), delay=1.0)
    sim.run()
    assert proc.started_at == 1.0
    assert proc.finished_at == 3.0
    assert proc.done


def test_stop_ends_run_after_current_event():
    sim = Simulator()
    seen = []

    def early():
        yield Hold(1.0)
        seen.append("early")
        sim.stop()

    def late():
        yield Hold(2.0)
        seen.append("late")

    sim.spawn(early())
    sim.spawn(late())
    sim.run()
    assert seen == ["early"]
    sim.run()
    assert seen == ["early", "late"]


def test_stop_when_predicate():
    sim = Simulator()
    counter = []

    def ticker():
        while True:
            yield Hold(1.0)
            counter.append(sim.now)

    sim.spawn(ticker())
    sim.run(stop_when=lambda: len(counter) >= 3)
    assert len(counter) == 3


def test_unknown_command_raises():
    sim = Simulator()

    def bad():
        yield "not a command"

    sim.spawn(bad())
    with pytest.raises(ProcessError):
        sim.run()


def test_non_generator_process_rejected():
    sim = Simulator()
    with pytest.raises(ProcessError):
        sim.spawn(lambda: None)


def test_resume_after_completion_is_an_error():
    sim = Simulator()

    def process():
        yield Hold(1.0)

    proc = sim.spawn(process())
    sim.run()
    sim.resume(proc)
    with pytest.raises(ProcessError):
        sim.run()


def test_lock_protocol_through_engine():
    """Acquire grants immediately when free; Release wakes waiters."""
    sim = Simulator()
    lock = RWLock("x")
    waits = {}

    def writer(name, hold):
        waits[name] = yield Acquire(lock, WRITE)
        yield Hold(hold)
        yield Release(lock)

    sim.spawn(writer("w1", 5.0))
    sim.spawn(writer("w2", 1.0), delay=1.0)
    sim.run()
    assert waits["w1"] == 0.0
    assert waits["w2"] == pytest.approx(4.0)  # arrived at 1, granted at 5


def test_reader_wait_value_sent_back():
    sim = Simulator()
    lock = RWLock("x")
    observed = []

    def writer():
        yield Acquire(lock, WRITE)
        yield Hold(3.0)
        yield Release(lock)

    def reader():
        wait = yield Acquire(lock, READ)
        observed.append((sim.now, wait))
        yield Release(lock)

    sim.spawn(writer())
    sim.spawn(reader(), delay=1.0)
    sim.run()
    assert observed == [(3.0, 2.0)]


def test_determinism_same_seed_same_trace():
    import random

    def trace(seed):
        rng = random.Random(seed)
        sim = Simulator()
        events = []

        def worker(i):
            yield Hold(rng.random())
            events.append((round(sim.now, 9), i))

        for i in range(50):
            sim.spawn(worker(i), delay=rng.random())
        sim.run()
        return events

    assert trace(7) == trace(7)
    assert trace(7) != trace(8)


def _counted_workload(sim):
    """Two writers on one lock plus a plain action.  The events, by hand:

    1. t=0    start A (grant is immediate, holds 2.0)
    2. t=0.5  start B (queues behind A)
    3. t=1.5  the scheduled action
    4. t=2    resume A (releases, which wakes B; then holds 1.0)
    5. t=2    resume B with its wait (holds 1.0)
    6. t=3    resume A (finishes)
    7. t=3    resume B (releases, holds 0.0 in-step, finishes)
    """
    lock = RWLock("counted")

    def writer(first_hold):
        yield lock.acquire_write
        yield first_hold
        yield lock.release_cmd
        yield 1.0

    def late_writer():
        yield lock.acquire_write
        yield 1.0
        yield lock.release_cmd
        yield 0.0

    sim.spawn(writer(2.0), name="A")
    sim.spawn(late_writer(), name="B", delay=0.5)
    sim.schedule(1.5, lambda: None)


def test_events_executed_matches_hand_count():
    sim = Simulator()
    _counted_workload(sim)
    assert sim.events_executed == 0
    assert sim.run() == 3.0
    assert sim.events_executed == 7


def test_events_executed_after_until_and_stop_when():
    sim = Simulator()
    _counted_workload(sim)
    assert sim.run(until=2.5) == 2.5
    assert sim.events_executed == 5   # events 1-5; 6 and 7 still queued
    sim.run()
    assert sim.events_executed == 7

    sim = Simulator()
    _counted_workload(sim)
    assert sim.run(stop_when=lambda: sim.now >= 2.0) == 2.0
    assert sim.events_executed == 4   # stops right after event 4
    sim.run()
    assert sim.events_executed == 7


def test_events_executed_counts_the_running_event():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: seen.append(sim.events_executed))
    sim.schedule(2.0, lambda: seen.append(sim.events_executed))
    sim.run()
    assert seen == [1, 2]
