"""Root-lock samples booked in bulk equal the samples a polling process
takes.

The drivers no longer spawn a process that wakes every
``ROOT_SAMPLE_INTERVAL`` to sample the root lock: the root lock's
``on_change`` slot books every sample instant up to each state change
(:meth:`MetricsCollector.book_root_samples`).  The oracle here is that
polling process, spawned into the same runs: it must count the same
samples, writer-present samples and queue-length total, and running it
alongside must not change the run's result.
"""

import pytest

from repro.algorithms import all_algorithms
from repro.btree.tree import BPlusTree
from repro.des.engine import Simulator
from repro.model.params import OperationMix
from repro.simulator import SimulationConfig, driver, run_simulation
from repro.simulator.closed import run_closed_simulation
from repro.simulator.metrics import ROOT_SAMPLE_INTERVAL
from repro.workload import HotspotKeysSpec, MMPPArrivals, WorkloadSpec

#: Per algorithm, a run whose root lock is W-locked and queued at
#: without overflowing: rates near the knee, and for the link
#: algorithms (which W-lock the root only to split it) a small tree.
CASES = {
    "naive-lock-coupling": dict(arrival_rate=0.15),
    "optimistic-descent": dict(arrival_rate=0.3),
    "optimistic-lock-coupling": dict(arrival_rate=0.3),
    "two-phase-locking": dict(arrival_rate=0.04),
    "link-type": dict(arrival_rate=3.0, n_items=30, order=3),
}

#: A tiny tree grown and shrunk by a delete-heavy mix: under the
#: algorithms that merge, its root splits and collapses during the run.
ROOT_CHURN = dict(n_items=8, order=3, key_space=16, seed=7,
                  arrival_rate=0.05, mix=OperationMix(0.3, 0.357, 0.343))

#: The algorithms that never merge: their root only splits.
LINK = ("link-type",)


def polling_root_sampler(tree, metrics, counts):
    """The process the drivers used to spawn: sample ``tree``'s root
    lock at every multiple of ``ROOT_SAMPLE_INTERVAL``."""
    while True:
        yield ROOT_SAMPLE_INTERVAL
        lock = tree.root.lock
        if metrics.measuring:
            counts[0] += 1
            if lock.writer is not None or lock.writer_waiting():
                counts[1] += 1
            counts[2] += lock.queue_length


def _config(**overrides):
    values = dict(algorithm="naive-lock-coupling", arrival_rate=0.5,
                  n_items=300, order=5, n_operations=400,
                  warmup_operations=40, seed=3)
    values.update(overrides)
    return SimulationConfig(**values)


def oracle_run(monkeypatch, run):
    """``run()`` with the polling sampler spawned into its simulator.

    Returns the run's result, the collector's booked
    ``(samples, writer-present samples, queue-length total)``, the
    poller's counts, and the run's ``[root splits, root collapses]``.
    """
    contexts = []
    polled = [0, 0, 0]
    root_changes = [0, 0]
    context_class = driver.OperationContext
    simulator_run = Simulator.run
    grow_root = BPlusTree.grow_root
    collapse_root = BPlusTree._collapse_root

    def record_context(*args, **kwargs):
        ctx = context_class(*args, **kwargs)
        contexts.append(ctx)
        return ctx

    def run_with_poller(sim, *args, **kwargs):
        ctx = contexts[-1]
        assert ctx.sim is sim
        sim.spawn(polling_root_sampler(ctx.tree, ctx.metrics, polled),
                  name="polling-root-sampler")
        return simulator_run(sim, *args, **kwargs)

    def counting_grow_root(tree, *args):
        root_changes[0] += 1
        return grow_root(tree, *args)

    def counting_collapse_root(tree):
        root = tree.root
        collapse_root(tree)
        root_changes[1] += tree.root is not root

    with monkeypatch.context() as patch:
        patch.setattr(driver, "OperationContext", record_context)
        patch.setattr(Simulator, "run", run_with_poller)
        patch.setattr(BPlusTree, "grow_root", counting_grow_root)
        patch.setattr(BPlusTree, "_collapse_root", counting_collapse_root)
        result = run()
    (ctx,) = contexts
    metrics = ctx.metrics
    booked = [metrics.root_samples, metrics.root_writer_present_samples,
              metrics.root_queue_length_total]
    return result, booked, polled, root_changes


def check_open(monkeypatch, config):
    """Assert the oracle agrees on ``config``; return the oracle run."""
    plain = run_simulation(config)
    result, booked, polled, root_changes = oracle_run(
        monkeypatch, lambda: run_simulation(config))
    assert booked == polled
    assert repr(result) == repr(plain)
    return result, booked, root_changes


def test_cases_cover_every_algorithm():
    assert sorted(CASES) == sorted(spec.name for spec in all_algorithms())


@pytest.mark.parametrize("warmup", [0, 40])
@pytest.mark.parametrize("algorithm", sorted(CASES))
def test_bulk_booking_matches_polling(monkeypatch, algorithm, warmup):
    result, booked, _ = check_open(monkeypatch, _config(
        algorithm=algorithm, warmup_operations=warmup, **CASES[algorithm]))
    assert not result.overflowed
    samples, present, queued = booked
    assert samples > 100
    assert 0 < present < samples
    assert queued > 0


@pytest.mark.parametrize("algorithm", sorted(CASES))
def test_bulk_booking_follows_root_splits_and_collapses(monkeypatch,
                                                        algorithm):
    # No warm-up: every root change falls inside the measured window.
    churn = CASES[algorithm] if algorithm in LINK else ROOT_CHURN
    _result, booked, (splits, collapses) = check_open(
        monkeypatch, _config(algorithm=algorithm, n_operations=300,
                             warmup_operations=0, **churn))
    assert booked[0] > 0
    assert splits > 0
    assert (collapses > 0) == (algorithm not in LINK)


@pytest.mark.parametrize("max_population", [1, 2])
def test_bulk_booking_on_an_overflowing_run(monkeypatch, max_population):
    result, _booked, _ = check_open(monkeypatch, _config(
        arrival_rate=2.0, warmup_operations=5,
        max_population=max_population))
    assert result.overflowed


def test_bulk_booking_on_a_high_rate_overflowing_run(monkeypatch):
    # Measuring starts, the root queues, then the run overflows.
    result, booked, _ = check_open(monkeypatch, _config(
        arrival_rate=0.4, warmup_operations=5, max_population=40,
        n_operations=5_000))
    assert result.overflowed
    assert booked[0] > 0 and booked[2] > 0


def test_bulk_booking_on_a_closed_run(monkeypatch):
    config = _config(algorithm="optimistic-descent", n_operations=300)

    def run():
        return run_closed_simulation(config, multiprogramming_level=6,
                                     think_time=2.0)

    plain = run()
    result, booked, polled, _ = oracle_run(monkeypatch, run)
    assert booked == polled
    assert booked[0] > 0 and booked[2] > 0
    assert repr(result) == repr(plain)


def test_bulk_booking_on_mmpp_hotspot_workload(monkeypatch):
    workload = WorkloadSpec(arrival=MMPPArrivals(), keys=HotspotKeysSpec())
    _result, booked, _ = check_open(monkeypatch, _config(
        arrival_rate=0.3, workload=workload))
    assert booked[0] > 0 and booked[1] > 0
