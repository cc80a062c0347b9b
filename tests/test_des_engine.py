"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.des import RWLock, Simulator
from repro.errors import ProcessError, SimulationError


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_schedule_runs_in_time_order(call_at):
    sim = Simulator()
    seen = []
    call_at(sim, 3.0, lambda: seen.append("c"))
    call_at(sim, 1.0, lambda: seen.append("a"))
    call_at(sim, 2.0, lambda: seen.append("b"))
    sim.run()
    assert seen == ["a", "b", "c"]
    assert sim.now == 3.0


def test_simultaneous_events_run_in_scheduling_order(call_at):
    sim = Simulator()
    seen = []
    for tag in ("first", "second", "third"):
        call_at(sim, 1.0, lambda tag=tag: seen.append(tag))
    sim.run()
    assert seen == ["first", "second", "third"]


def test_schedule_in_the_past_rejected(call_at):
    sim = Simulator()
    with pytest.raises(SimulationError):
        call_at(sim, -0.1, lambda: None)
    with pytest.raises(SimulationError):
        sim.resume(call_at(sim, 1.0, lambda: None), delay=-0.1)


def test_nan_delay_rejected(call_at):
    sim = Simulator()

    def process():
        yield 1.0

    nan = float("nan")
    with pytest.raises(SimulationError, match="nan"):
        sim.spawn(process(), delay=nan)
    assert sim.active_processes == 0 and sim.total_spawned == 0
    proc = call_at(sim, 1.0, lambda: None)
    with pytest.raises(SimulationError, match="nan"):
        sim.resume(proc, delay=nan)
    assert sim.events_executed == 0
    assert sim.run() == 1.0  # only the valid event reached the heap


def test_current_is_the_stepped_process_and_none_outside(call_at):
    sim = Simulator()
    seen = []

    def process():
        seen.append(sim.current)
        yield 1.0
        seen.append(sim.current)

    proc = sim.spawn(process())
    assert sim.current is None
    sim.run(until=0.5)
    assert sim.current is None
    call_at(sim, 0.75, sim.stop)
    sim.run()
    assert sim.current is None
    sim.run()
    assert seen == [proc, proc] and sim.current is None


def test_schedule_at_absolute_time(call_at):
    sim = Simulator()
    seen = []
    sim.run(until=2.0)
    call_at(sim, 5.0 - sim.now, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [5.0]


def test_run_until_stops_and_advances_clock(call_at):
    sim = Simulator()
    seen = []
    call_at(sim, 10.0, lambda: seen.append("late"))
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
        yield 2.5
        times.append(sim.now)
        yield 1.5
        times.append(sim.now)

    sim.spawn(process())
    sim.run()
    assert times == [2.5, 4.0]


def test_zero_hold_does_not_schedule():
    sim = Simulator()
    steps = []

    def process():
        steps.append(sim.now)
        yield 0.0
        steps.append(sim.now)

    sim.spawn(process())
    sim.run()
    assert steps == [0.0, 0.0]


def test_spawn_delay():
    sim = Simulator()
    starts = []

    def process():
        starts.append(sim.now)
        yield 1.0

    sim.spawn(process(), delay=3.0)
    sim.run()
    assert starts == [3.0]


def test_on_done_callback_and_bookkeeping():
    sim = Simulator()
    finished = []

    def process():
        yield 1.0

    sim.spawn(process(), name="p", on_done=lambda p: finished.append(p.name))
    assert sim.active_processes == 1
    sim.run()
    assert finished == ["p"]
    assert sim.active_processes == 0
    assert sim.total_spawned == 1


def test_process_records_start_and_finish_times():
    sim = Simulator()
    times = []

    def process():
        times.append(sim.now)
        yield 2.0
        times.append(sim.now)

    proc = sim.spawn(process(), on_done=lambda p: times.append(sim.now),
                     delay=1.0)
    sim.run()
    assert times == [1.0, 3.0, 3.0]
    assert proc.done


def test_stop_ends_run_after_current_event():
    sim = Simulator()
    seen = []

    def early():
        yield 1.0
        seen.append("early")
        sim.stop()

    def late():
        yield 2.0
        seen.append("late")

    sim.spawn(early())
    sim.spawn(late())
    sim.run()
    assert seen == ["early"]
    sim.run()
    assert seen == ["early", "late"]


def test_stop_from_scheduled_action(call_at):
    sim = Simulator()
    counter = []

    def ticker():
        while True:
            yield 1.0
            counter.append(sim.now)

    sim.spawn(ticker())
    call_at(sim, 3.5, sim.stop)
    assert sim.run() == 3.5
    assert len(counter) == 3


def test_run_until_in_the_past_rejected(call_at):
    sim = Simulator()
    seen = []
    call_at(sim, 10.0, lambda: seen.append(sim.now))
    assert sim.run(until=5.0) == 5.0
    with pytest.raises(SimulationError, match="before now"):
        sim.run(until=2.0)
    assert sim.now == 5.0          # the clock did not move backwards
    assert sim.run(until=5.0) == 5.0
    sim.run()
    assert seen == [10.0]


def test_spawn_negative_delay_leaves_counts_unchanged():
    sim = Simulator()

    def process():
        yield 1.0

    with pytest.raises(SimulationError):
        sim.spawn(process(), delay=-1.0)
    assert sim.active_processes == 0
    assert sim.total_spawned == 0
    sim.spawn(process())
    assert sim.active_processes == 1
    sim.run()
    assert sim.active_processes == 0
    assert sim.total_spawned == 1


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
        yield 1.0

    proc = sim.spawn(process())
    sim.run()
    sim.resume(proc)
    with pytest.raises(ProcessError):
        sim.run()


def test_lock_protocol_through_engine():
    """Acquire grants immediately when free; a release wakes waiters."""
    sim = Simulator()
    lock = RWLock("x")
    waits = {}

    def writer(name, hold):
        waits[name] = yield lock.acquire_write(sim)
        yield hold
        lock.release(sim)

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
        yield lock.acquire_write(sim)
        yield 3.0
        lock.release(sim)

    def reader():
        wait = yield lock.acquire_read(sim)
        observed.append((sim.now, wait))
        lock.release(sim)

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
            yield rng.random()
            events.append((round(sim.now, 9), i))

        for i in range(50):
            sim.spawn(worker(i), delay=rng.random())
        sim.run()
        return events

    assert trace(7) == trace(7)
    assert trace(7) != trace(8)


def _counted_workload(sim, call_at, action=lambda: None):
    """Two writers on one lock plus a one-step action process.  The
    events, by hand:

    1. t=0    start A (grant is immediate, holds 2.0)
    2. t=0.5  start B (queues behind A)
    3. t=1.5  start and finish the ``action`` process
    4. t=2    resume A (releases, which wakes B; then holds 1.0)
    5. t=2    resume B with its wait (holds 1.0)
    6. t=3    resume A (finishes)
    7. t=3    resume B (releases, holds 0.0 in-step, finishes)
    """
    lock = RWLock("counted")

    def writer(first_hold):
        yield lock.acquire_write(sim)
        yield first_hold
        lock.release(sim)
        yield 1.0

    def late_writer():
        yield lock.acquire_write(sim)
        yield 1.0
        lock.release(sim)
        yield 0.0

    sim.spawn(writer(2.0), name="A")
    sim.spawn(late_writer(), name="B", delay=0.5)
    call_at(sim, 1.5, action)


def test_events_executed_matches_hand_count(call_at):
    sim = Simulator()
    _counted_workload(sim, call_at)
    assert sim.events_executed == 0
    assert sim.run() == 3.0
    assert sim.events_executed == 7


def test_events_executed_after_until_and_stop(call_at):
    sim = Simulator()
    _counted_workload(sim, call_at)
    assert sim.run(until=2.5) == 2.5
    assert sim.events_executed == 5   # events 1-5; 6 and 7 still queued
    sim.run()
    assert sim.events_executed == 7

    sim = Simulator()
    _counted_workload(sim, call_at, action=sim.stop)
    assert sim.run() == 1.5
    assert sim.events_executed == 3   # stops right after event 3
    sim.run()
    assert sim.events_executed == 7


def test_events_executed_counts_the_running_event(call_at):
    sim = Simulator()
    seen = []
    call_at(sim, 1.0, lambda: seen.append(sim.events_executed))
    call_at(sim, 2.0, lambda: seen.append(sim.events_executed))
    sim.run()
    assert seen == [1, 2]
