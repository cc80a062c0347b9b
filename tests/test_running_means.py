"""Lock waits and responses kept as running means keep every bit.

The simulator keeps only ``n`` and the running mean of each operation
type's response times and of each tree level's R / W lock waits
(:class:`~repro.des.stats.RunningMean`); the node locks update their
level's means inline at every grant, and the drivers reset those means
when the measurement window opens.  The oracles here are a
:class:`~repro.des.stats.RunningStats` fed the same stream, and the
waits the operation generators themselves receive from the engine.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import READ, WRITE, RunningMean, RunningStats, RWLock, \
    Simulator
from repro.simulator import SimulationConfig, driver, run_simulation
from repro.simulator.closed import run_closed_simulation
from repro.simulator.metrics import MetricsCollector

# ----------------------------------------------------------------------
# RunningMean against RunningStats
# ----------------------------------------------------------------------
VALUES = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
STREAMS = st.lists(VALUES, max_size=60)


def _hex(value: float) -> str:
    return "nan" if math.isnan(value) else value.hex()


@settings(max_examples=200, deadline=None)
@given(stream=STREAMS)
def test_add_matches_running_stats_bit_for_bit(stream):
    mean, stats = RunningMean(), RunningStats()
    for x in stream:
        mean.add(x)
        stats.add(x)
        assert mean.n == stats.n
        assert _hex(mean.mean) == _hex(stats.mean)
    assert mean.n == len(stream)
    if not stream:
        assert math.isnan(mean.mean)


@settings(max_examples=200, deadline=None)
@given(chunks=st.lists(STREAMS, max_size=6))
def test_merge_matches_running_stats_bit_for_bit(chunks):
    pooled_mean, pooled_stats = RunningMean(), RunningStats()
    for chunk in chunks:
        mean, stats = RunningMean(), RunningStats()
        for x in chunk:
            mean.add(x)
            stats.add(x)
        pooled_mean.merge(mean)
        pooled_stats.merge(stats)
        assert pooled_mean.n == pooled_stats.n
        assert _hex(pooled_mean.mean) == _hex(pooled_stats.mean)


def test_reset_forgets_everything():
    mean = RunningMean()
    for x in (1.0, 2.0, 4.0):
        mean.add(x)
    mean.reset()
    assert mean.n == 0 and math.isnan(mean.mean)
    mean.add(3.0)
    assert (mean.n, mean.mean) == (1, 3.0)


# ----------------------------------------------------------------------
# Level means against the waits the generators receive
# ----------------------------------------------------------------------
class Capturing:
    """A process body that steps ``generator`` unchanged and appends one
    ``(waits, mode, wait, requested_at, granted_at)`` record per lock
    grant to ``sink``.  The wait is the value the engine sends back
    after the generator's lock call; ``waits`` is the lock's
    ``(read_waits, write_waits)`` pair, which names its tree level (a
    run's end unbinds its locks)."""

    def __init__(self, generator, sink, sim):
        self.generator, self.sink, self.sim = generator, sink, sim
        #: The record of the lock call made in the current step, and of
        #: the one whose wait is out, but for the wait.
        self.requested = self.pending = None

    def deliver(self, wait):
        waits, mode, requested_at = self.pending
        self.pending = None
        self.sink.append((waits, mode, wait, requested_at, self.sim.now))

    def send(self, value):
        if self.pending is not None:
            self.deliver(value)
        command = self.generator.send(value)
        # A lock call is the last thing a generator does before it
        # yields the call's result.
        self.pending, self.requested = self.requested, None
        return command


@pytest.fixture
def capture(monkeypatch):
    """Run drivers with every process body wrapped in :class:`Capturing`.

    Returns ``runs``: per run, ``(collector, grants, window)`` where
    ``window`` holds the number of grants captured before the collector
    opened its measurement window (empty while it has not).  A grant
    whose process the stopped run never resumed is captured from the
    wait its resume event carries."""
    runs = []

    def noting(acquire, mode):
        def call(lock, sim):
            body = sim.current.generator
            body.requested = ((lock.read_waits, lock.write_waits), mode,
                              sim.now)
            return acquire(lock, sim)
        return call

    monkeypatch.setattr(RWLock, "acquire_read",
                        noting(RWLock.acquire_read, READ))
    monkeypatch.setattr(RWLock, "acquire_write",
                        noting(RWLock.acquire_write, WRITE))

    class CapturingSimulator(Simulator):
        def spawn(self, generator, *args, **kwargs):
            return super().spawn(Capturing(generator, runs[-1][1], self),
                                 *args, **kwargs)

        def discard_pending(self):
            for _time, _seq, process, value in sorted(self._heap):
                body = process.generator
                if value is not None and body.pending is not None:
                    body.deliver(value)
            super().discard_pending()

    class RecordingCollector(MetricsCollector):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            runs.append((self, [], []))

        def open_window(self, now):
            super().open_window(now)
            (_collector, grants, window), = [
                run for run in runs if run[0] is self]
            window.append(len(grants))

    monkeypatch.setattr(driver, "Simulator", CapturingSimulator)
    monkeypatch.setattr(driver, "MetricsCollector", RecordingCollector)
    import repro.simulator.closed as closed
    monkeypatch.setattr(closed, "MetricsCollector", RecordingCollector)
    return runs


def _expected_level_waits(collector, grants):
    """``{level: (read, write)}`` RunningStats fed the captured waits of
    each level's locks, in the order the generators received them."""
    level_of = {id(read): level
                for level, (read, _write) in collector.level_waits.items()}
    expected = {level: (RunningStats(), RunningStats())
                for level in collector.level_waits}
    for (read_waits, _), mode, wait, _requested, _granted in grants:
        read, write = expected[level_of[id(read_waits)]]
        (read if mode == READ else write).add(wait)
    return expected


def _assert_level_means(collector, grants):
    expected = _expected_level_waits(collector, grants)
    assert set(expected) == set(collector.level_waits)
    for level, pair in collector.level_waits.items():
        for mean, stats in zip(pair, expected[level]):
            assert mean.n == stats.n
            assert _hex(mean.mean) == _hex(stats.mean)


#: One contended run per algorithm, near the knee, all from time 0.
CONTENDED = {
    "naive-lock-coupling": 0.15,
    "optimistic-descent": 0.6,
    "optimistic-lock-coupling": 0.6,
    "two-phase-locking": 0.04,
    "link-type": 3.0,
    "link-symmetric": 3.0,
}


def _contended_config(algorithm, **overrides):
    values = dict(algorithm=algorithm, arrival_rate=CONTENDED[algorithm],
                  n_items=300, order=5, n_operations=400,
                  warmup_operations=0, seed=5)
    if algorithm.startswith("link"):
        values.update(n_items=30, order=3)
    values.update(overrides)
    return SimulationConfig(**values)


@pytest.mark.parametrize("algorithm", sorted(CONTENDED))
def test_level_means_equal_the_waits_generators_receive(capture, algorithm):
    result = run_simulation(_contended_config(algorithm))
    assert not result.overflowed
    (collector, grants, window), = capture
    assert window == [0]  # warmup_operations=0: counted from time 0
    assert any(wait > 0.0 for _waits, _mode, wait, _r, _g in grants)
    assert {mode for _waits, mode, *_rest in grants} == {READ, WRITE}
    _assert_level_means(collector, grants)
    assert result.mean_lock_waits == {
        level: (read.mean, write.mean)
        for level, (read, write) in sorted(collector.level_waits.items())}


# ----------------------------------------------------------------------
# The measurement window
# ----------------------------------------------------------------------
def test_window_counts_grants_inside_it_only():
    """Unit scenario: a grant before the window opens does not count; a
    request queued before it and granted after it does."""
    sim = Simulator()
    collector = MetricsCollector()
    lock = RWLock("n1")
    lock.read_waits, lock.write_waits = collector.waits_for_level(1)
    collector.root_lock = lock

    def holder():
        yield lock.acquire_write(sim)     # t=0: granted before the window
        yield 2.0
        lock.release(sim)                 # t=2: grants the queued reader

    def early_reader():
        yield 1.0
        yield lock.acquire_read(sim)      # t=1: queued before the window
        lock.release(sim)

    def opener():
        yield 1.5
        collector.open_window(sim.now)

    for body in (holder(), early_reader(), opener()):
        sim.spawn(body)
    sim.run()
    read, write = collector.level_waits[1]
    assert (write.n, read.n) == (0, 1)
    assert read.mean == 1.0                # queued at 1, granted at 2


def _window_split(grants, window):
    (opened_at,) = window
    return grants[:opened_at], grants[opened_at:]


def _assert_window(collector, grants, window):
    before, inside = _window_split(grants, window)
    start = collector.measure_start_time
    assert before and all(granted <= start for *_g, granted in before)
    # Requests queued before the window opened and granted inside it.
    straddling = [g for g in inside if g[3] < start and g[2] > 0.0]
    assert straddling
    _assert_level_means(collector, inside)


def test_open_driver_window(capture):
    config = _contended_config("naive-lock-coupling", warmup_operations=60)
    run_simulation(config)
    (collector, grants, window), = capture
    _assert_window(collector, grants, window)


def test_closed_driver_window(capture):
    config = _contended_config("naive-lock-coupling", warmup_operations=60)
    run_closed_simulation(config, multiprogramming_level=12)
    (collector, grants, window), = capture
    _assert_window(collector, grants, window)


@pytest.mark.parametrize("run", [
    lambda config: run_simulation(config),
    lambda config: run_closed_simulation(config, multiprogramming_level=12),
], ids=["open", "closed"])
def test_zero_warmup_counts_from_time_zero(capture, run):
    run(_contended_config("naive-lock-coupling"))
    (collector, grants, window), = capture
    assert window == [0] and collector.measure_start_time == 0.0
    _assert_level_means(collector, grants)
    assert sum(read.n + write.n
               for read, write in collector.level_waits.values()) \
        == len(grants)


def test_overflow_during_warmup_reports_no_waits():
    """A window that never opened measured no lock wait."""
    config = _contended_config("naive-lock-coupling", arrival_rate=3.0,
                               max_population=30, warmup_operations=200)
    result = run_simulation(config)
    assert result.overflowed and result.measured_operations == 0
    assert result.mean_lock_waits
    assert all(math.isnan(read) and math.isnan(write)
               for read, write in result.mean_lock_waits.values())
