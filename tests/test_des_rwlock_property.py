"""Property-based tests of the FCFS R/W lock.

Hypothesis generates random customer schedules (arrival offsets, modes,
hold times) and the properties assert the safety and fairness contract
on the full execution:

* safety — a writer never overlaps any other holder;
* FCFS — grant order never inverts request order, except that
  consecutive readers may be granted together;
* liveness — every request is eventually granted and released;
* work conservation — the lock is never free while someone waits.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import READ, RWLock, Simulator, WRITE
from repro.obs.sampler import LevelState

CUSTOMERS = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
        st.sampled_from([READ, WRITE]),
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    ),
    min_size=1, max_size=40,
)

_SETTINGS = settings(max_examples=120, deadline=None)


def _execute(schedule):
    """Run the schedule; returns per-customer event records."""
    sim = Simulator()
    lock = RWLock("p")
    records = []

    def customer(index, mode, hold):
        requested = sim.now
        wait = yield (lock.acquire_read if mode == READ else lock.acquire_write)
        granted = sim.now
        holders_now = (len(lock.readers), lock.writer is not None)
        yield hold
        yield lock.release_cmd
        records.append({
            "index": index, "mode": mode,
            "requested": requested, "granted": granted,
            "released": granted + hold, "wait": wait,
            "holders_at_grant": holders_now,
        })

    for index, (delay, mode, hold) in enumerate(schedule):
        sim.spawn(customer(index, mode, hold), delay=delay)
    sim.run()
    assert sim.active_processes == 0
    return sorted(records, key=lambda r: (r["granted"], r["requested"]))


@_SETTINGS
@given(schedule=CUSTOMERS)
def test_liveness_every_customer_served(schedule):
    records = _execute(schedule)
    assert len(records) == len(schedule)
    for record in records:
        assert record["granted"] >= record["requested"]
        assert record["wait"] == record["granted"] - record["requested"]


@_SETTINGS
@given(schedule=CUSTOMERS)
def test_safety_writer_exclusive(schedule):
    records = _execute(schedule)
    intervals = [(r["granted"], r["released"], r["mode"]) for r in records]
    for i, (g1, r1, m1) in enumerate(intervals):
        for g2, r2, m2 in intervals[i + 1:]:
            overlap = max(g1, g2) < min(r1, r2)
            if overlap:
                assert m1 == READ and m2 == READ, (
                    "writer overlapped another holder")


@_SETTINGS
@given(schedule=CUSTOMERS)
def test_fcfs_no_mode_inversion(schedule):
    """A request granted strictly earlier than another must not have
    been made strictly later — unless both are readers admitted into
    the same read batch."""
    records = _execute(schedule)
    for i, first in enumerate(records):
        for second in records[i + 1:]:
            if first["granted"] < second["granted"]:
                if first["requested"] > second["requested"]:
                    # Overtaking: only legal when the overtaker is a
                    # reader that joined an already-reading batch.
                    assert first["mode"] == READ
                    assert second["mode"] == WRITE


@_SETTINGS
@given(schedule=CUSTOMERS)
def test_writer_grant_means_sole_ownership(schedule):
    records = _execute(schedule)
    for record in records:
        n_readers, writer_held = record["holders_at_grant"]
        if record["mode"] == WRITE:
            assert writer_held and n_readers == 0
        else:
            assert not writer_held


@_SETTINGS
@given(schedule=CUSTOMERS)
def test_accounting_consistent(schedule):
    sim = Simulator()
    lock = RWLock("acct")
    lock.telemetry = state = LevelState(0)
    waits = []

    class Observer:
        def on_wait(self, mode, wait):
            waits.append((mode, wait))

    lock.observer = Observer()

    def customer(mode, hold):
        yield (lock.acquire_read if mode == READ else lock.acquire_write)
        yield hold
        yield lock.release_cmd

    n_readers = sum(1 for _d, mode, _h in schedule if mode == READ)
    n_writers = len(schedule) - n_readers
    for delay, mode, hold in schedule:
        sim.spawn(customer(mode, hold), delay=delay)
    sim.run()
    assert state.grants_read == n_readers
    assert state.grants_write == n_writers
    assert (state.held_read, state.held_write, state.queued) == (0, 0, 0)
    assert sum(1 for mode, _w in waits if mode == READ) == n_readers
    assert len(waits) == len(schedule)
    assert all(wait >= 0.0 for _m, wait in waits)
