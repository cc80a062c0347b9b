"""Regression tests for the allocation-free kernel hot path.

Three layers of protection for the hot-path rewrite (one heap record
kind, float holds and ``WAIT`` as the only yields, lock calls, O(1)
writer-waiting counter):

* **Golden-seed determinism** — full simulator runs hashed against
  fingerprints captured when the rewrite was proven byte-identical to
  the pre-rewrite kernel.  Any change to event ordering, RNG stream
  consumption, or result contents shows up here (and must be paired
  with a ``CODE_SALT`` bump in ``repro.parallel.cache``).
* **Scheduling paths** — the heap record as a process start and as a
  resume carrying a value, and both values the step loop accepts,
  including the error paths.
* **Equivalence checks** — the maintained queued-writer counter vs a
  direct queue scan.
"""

import dataclasses
import hashlib

import pytest

from repro.algorithms import all_algorithms
from repro.des import WAIT, RWLock, Simulator, WRITE
from repro.errors import ProcessError
from repro.obs import (LevelState, TelemetryOptions, TelemetryRecorder,
                       dumps_ndjson)
from repro.simulator import SimulationConfig, run_simulation
from repro.simulator.closed import run_closed_simulation
from repro.workload import (MMPPArrivals, TransactionSpec, WorkloadSpec,
                            ZipfKeysSpec)


def fingerprint(result) -> str:
    """Stable digest of every field of a SimulationResult."""
    return hashlib.sha256(
        repr(dataclasses.asdict(result)).encode()).hexdigest()


def gen(*commands):
    """A generator yielding a fixed command sequence."""
    for command in commands:
        yield command

# ----------------------------------------------------------------------
# Golden-seed determinism
# ----------------------------------------------------------------------
#: (algorithm, arrival_rate, seed) -> sha256 of the full result, captured
#: from the kernel that was verified byte-identical to the pre-rewrite
#: one.  Shared scale: n_items=2000, n_operations=400, warmup=50.
GOLDEN_OPEN = {
    ("naive-lock-coupling", 0.03, 1):
        "98534384e8f573a08d4e36f9d456f3d0bcf16d5b4c3ff7b9f7e0ea3a0547029a",
    ("naive-lock-coupling", 0.06, 2):
        "d8efff5571193b59328ee1a58925a67e9d3beeed72d80f5bb57706b7f42e9c91",
    ("optimistic-descent", 0.03, 1):
        "0664e939d538bbdd8a190b00aaac78197e33c036326fd18349ea3dd88d159ace",
    ("optimistic-descent", 0.06, 2):
        "a6e835ad5cac82a9d32e8df70d2f343e5afc9af4d474c655d8ea457ea2764e08",
    ("link-type", 0.03, 1):
        "545e1d193c65d9def49847b869164ae760129f259de49edbd48c52ce7061588c",
    ("link-type", 0.06, 2):
        "d169bea76961d7e3abb340426a198e0dfa6ca1e40f6eba6911c3eed810d2fea0",
    ("link-symmetric", 0.04, 5):
        "0b49753e180b1208eb6b5680d9de985c6f8d384f67c977a4858df30aaf6d3622",
    ("two-phase-locking", 0.02, 7):
        "369f754565a942499b59c58298d7f113acffb4353eacbb146c9ac804bb1ca6fb",
    ("optimistic-lock-coupling", 0.03, 1):
        "ec8efa984dcff4e026f242074c59b19b03a2e7902c7de77842424e071d38500c",
    ("optimistic-lock-coupling", 0.06, 2):
        "99eca4ea9ef2b49be8870dc8e200db5e32935f529904133ae3388399f3d4442d",
}

GOLDEN_CLOSED = \
    "e96fe70b11a8cbe902af9c0f3779b5cf899e0e1aeff3f7a1040883b5f2876564"


@pytest.mark.parametrize("algorithm,rate,seed", sorted(GOLDEN_OPEN),
                         ids=lambda v: str(v))
def test_golden_seed_open_system(algorithm, rate, seed):
    config = SimulationConfig(algorithm=algorithm, arrival_rate=rate,
                              n_items=2000, n_operations=400,
                              warmup_operations=50, seed=seed)
    assert fingerprint(run_simulation(config)) == \
        GOLDEN_OPEN[(algorithm, rate, seed)]


def test_golden_open_covers_every_registered_algorithm():
    covered = {algorithm for algorithm, _, _ in GOLDEN_OPEN}
    missing = [spec.name for spec in all_algorithms()
               if spec.name not in covered]
    assert not missing, f"no GOLDEN_OPEN fingerprint for {missing}"


def test_golden_seed_closed_system():
    config = SimulationConfig(algorithm="optimistic-descent", n_items=1000,
                              n_operations=200, warmup_operations=20, seed=3)
    result = run_closed_simulation(config, multiprogramming_level=8,
                                   think_time=2.0)
    assert fingerprint(result) == GOLDEN_CLOSED


#: name -> sha256 of the run's telemetry NDJSON (``dumps_ndjson``), at the
#: same scale as GOLDEN_OPEN.  Pins the engine-derived counters
#: (``des.events``, ``des.spawned``) and the sampled event counts along
#: with every series.
GOLDEN_TELEMETRY = {
    "plain":
        "939d0f4371f61a6bb2d9e71c83cbc18489f31dadd0c22917251b510ac792d9d9",
    "mmpp-zipf-txn3":
        "2f5db0d7c20a9618212e98fb381874d8eb5805b5b6e312c986b892c065715263",
}

TELEMETRY_CASES = {
    "plain": dict(algorithm="naive-lock-coupling", arrival_rate=0.06,
                  seed=2),
    "mmpp-zipf-txn3": dict(
        algorithm="link-type", arrival_rate=0.04, seed=5,
        workload=WorkloadSpec(arrival=MMPPArrivals(),
                              keys=ZipfKeysSpec(theta=0.9),
                              transaction=TransactionSpec(size=3))),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TELEMETRY))
def test_golden_seed_telemetry_bytes(name):
    config = SimulationConfig(n_items=2000, n_operations=400,
                              warmup_operations=50, **TELEMETRY_CASES[name])
    recorder = TelemetryRecorder(TelemetryOptions())
    run_simulation(config, telemetry=recorder)
    text = dumps_ndjson(recorder.telemetry)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        GOLDEN_TELEMETRY[name]


# ----------------------------------------------------------------------
# Scheduling paths
# ----------------------------------------------------------------------
def test_spawn_delay_uses_start_record():
    sim = Simulator()
    started = []

    def proc():
        started.append(sim.now)
        yield 1.0

    sim.spawn(proc(), delay=2.5)
    assert sim.run() == 3.5
    assert started == [2.5]


def test_resume_record_delivers_value():
    sim = Simulator()
    got = []

    def proc():
        got.append((yield 1.0))
        got.append((yield 1.0))

    p = sim.spawn(proc())
    sim.resume(p, "wake", delay=0.25)  # arrives while the hold is pending
    with pytest.raises(ProcessError):
        sim.run()  # resuming mid-hold double-steps the generator


def test_bare_float_hold_advances_clock():
    sim = Simulator()

    def proc():
        yield 1.5
        yield 2.5

    sim.spawn(proc())
    assert sim.run() == 4.0


def test_zero_hold_continues_within_step():
    sim = Simulator()
    seen = []

    def proc():
        yield 0.0
        seen.append(sim.now)
        yield 0.0
        seen.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert seen == [0.0, 0.0]


def test_negative_float_hold_raises():
    sim = Simulator()
    sim.spawn(gen(-0.5))
    with pytest.raises(ProcessError, match="negative time"):
        sim.run()


def test_nan_hold_raises():
    sim = Simulator()
    sim.spawn(gen(float("nan")))
    with pytest.raises(ProcessError, match="NaN time"):
        sim.run()


def test_negative_int_hold_raises():
    sim = Simulator()
    sim.spawn(gen(-2))
    with pytest.raises(ProcessError, match="unsupported command"):
        sim.run()


@pytest.mark.parametrize("command", ["nonsense", True, None, object(), 2],
                         ids=["str", "bool", "none", "object", "int"])
def test_unknown_command_raises(command):
    sim = Simulator()
    sim.spawn(gen(command))
    with pytest.raises(ProcessError, match="unsupported command"):
        sim.run()


def test_stop_interrupts_run(call_at):
    sim = Simulator()
    call_at(sim, 1.0, sim.stop)
    call_at(sim, 9.0, lambda: None)
    assert sim.run() == 1.0
    assert sim.run() == 9.0  # the rest of the heap survives a stop


# ----------------------------------------------------------------------
# Lock calls
# ----------------------------------------------------------------------
def test_acquire_returns_a_zero_hold_or_wait():
    sim = Simulator()
    lock = RWLock("n")
    returned = []

    def holder():
        returned.append(lock.acquire_write(sim))
        yield 1.0
        lock.release(sim)

    def waiter():
        returned.append(lock.acquire_read(sim))
        yield WAIT

    sim.spawn(holder())
    sim.spawn(waiter(), delay=0.5)
    sim.run(until=0.75)
    # The immediate grant is a float zero hold, the queued request WAIT.
    assert returned == [0.0, WAIT] and returned[0].__class__ is float
    assert lock.queue_length == 1
    # The lock calls replace the request method and the command objects.
    assert not hasattr(RWLock, "request") and not hasattr(lock, "retire")


def test_grants_send_their_wait_back_and_park_costs_no_event():
    sim = Simulator()
    lock = RWLock("n")
    lock.telemetry = state = LevelState(0)
    log = []

    def worker():
        wait = yield lock.acquire_write(sim)
        yield 1.0
        lock.release(sim)
        log.append((sim.now, wait))

    sim.spawn(worker())
    sim.spawn(worker())
    assert sim.run() == 2.0
    assert state.grants_write == 2
    # The first grant's zero hold sends 0.0 back; the second worker
    # parks on WAIT and the release resumes it with its wait.
    assert log == [(1.0, 0.0), (2.0, 1.0)]
    # Two starts, two hold ends and one resume: parking adds no event.
    assert sim.events_executed == 5


def test_parked_process_waits_for_resume(call_at):
    sim = Simulator()
    got = []

    def sleeper():
        got.append((yield WAIT))
        got.append(sim.now)

    proc = sim.spawn(sleeper())
    assert sim.run() == 0.0 and got == [] and not proc.done
    call_at(sim, 3.0, lambda: sim.resume(proc, "wake"))
    sim.run()
    assert got == ["wake", 3.0] and proc.done


# ----------------------------------------------------------------------
# O(1) writer_waiting counter
# ----------------------------------------------------------------------
def test_writer_waiting_counter_tracks_queue(call_at):
    sim = Simulator()
    lock = RWLock("counted")
    lock.telemetry = state = LevelState(0)

    def scan(expected):
        actual = any(req.mode == WRITE for req in lock._queue)
        assert lock.writer_waiting() == actual == expected

    def holder():
        yield lock.acquire_write(sim)
        scan(False)
        yield 5.0
        lock.release(sim)

    def reader():
        yield 1.0
        yield lock.acquire_read(sim)
        lock.release(sim)

    def writer():
        yield 2.0
        yield lock.acquire_write(sim)
        lock.release(sim)

    sim.spawn(holder())
    sim.spawn(reader())
    sim.spawn(writer())
    call_at(sim, 3.0, lambda: scan(True))   # writer queued behind holder
    sim.run()
    scan(False)                             # everything drained
    assert state.grants_write == 2
    assert state.grants_read == 1


def test_writer_waiting_counter_many_writers(call_at):
    sim = Simulator()
    lock = RWLock("counted")

    def writer(duration):
        yield lock.acquire_write(sim)
        yield duration
        lock.release(sim)

    for _ in range(5):
        sim.spawn(writer(1.0))
    counts = []
    call_at(sim, 0.5, lambda: counts.append(
        (lock.writer_waiting(),
         sum(1 for req in lock._queue if req.mode == WRITE))))
    sim.run()
    assert counts == [(True, 4)]
    assert not lock.writer_waiting()
