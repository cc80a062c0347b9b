"""Simulation driver (paper Section 4).

``run_simulation``:

1. builds the B-tree out of a random insert/delete sequence with the same
   insert/delete proportions as the concurrent mix (construction phase);
2. attaches a FCFS R/W lock to every node (including nodes created later
   by concurrent splits);
3. releases concurrent operations in a Poisson stream, each performing a
   real search / insert / delete through the chosen algorithm's
   processes, with exponential service times;
4. measures response times and lock waits after a warm-up, sampling the
   root lock for the writer-presence probability rho_w (Figure 10);
5. aborts — flagging the run as *overflowed* — if the in-flight operation
   population exceeds the allocation, the paper's saturation signal.

``run_replications`` repeats a configuration over several seeds (the
paper uses 5) and returns the per-seed results; with ``jobs=N`` the
seeds run on a process pool, and with a cache installed (see
:mod:`repro.parallel`) previously computed runs are reused — both
bit-identical to serial recomputation.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.algorithms import get_algorithm
from repro.btree.builder import build_tree
from repro.btree.node import Node
from repro.des.engine import Simulator
from repro.des.rwlock import RWLock
from repro.simulator.config import SimulationConfig
from repro.simulator.costs import ServiceTimeSampler
from repro.simulator.metrics import (
    MetricsCollector,
    SimulationResult,
    summarize,
)
from repro.simulator.operations import (
    OP_DELETE,
    OP_INSERT,
    OP_SEARCH,
    OperationContext,
    pick_resident_key,
)
from repro.obs.instruments import NULL_INSTRUMENTS
from repro.workload.keys import KeyPicker
from repro.workload.runtime import WorkloadRuntime
from repro.workload.spec import effective_workload
from repro.workload.transactions import (
    TransactionLockTable,
    transaction_envelope,
)
import repro.workload.runtime as _workload_runtime

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.parallel.cache import ResultCache

# The workload runtime emits operation labels without importing the
# simulator (layering); the two constant sets must stay identical.
assert (_workload_runtime._SEARCH, _workload_runtime._INSERT,
        _workload_runtime._DELETE) == (OP_SEARCH, OP_INSERT, OP_DELETE)

#: Interval (in root-search time units) between root-utilization samples.
_ROOT_SAMPLE_INTERVAL = 1.0


class _GatedObserver:
    """Forwards lock waits to the per-level collector only while the
    measurement window is open."""

    __slots__ = ("collector", "inner")

    def __init__(self, collector: MetricsCollector, level: int) -> None:
        self.collector = collector
        self.inner = collector.observer_for_level(level)

    def on_wait(self, mode: str, wait: float) -> None:
        if self.collector.measuring:
            self.inner.on_wait(mode, wait)


class _RunState:
    """Mutable run bookkeeping shared by the driver's closures."""

    __slots__ = ("population", "completions", "overflowed")

    def __init__(self) -> None:
        self.population = 0
        self.completions = 0
        self.overflowed = False


def run_simulation(config: SimulationConfig, trace=None,
                   telemetry=None, budget=None):
    """Execute one simulator run and return its metrics summary.

    Pass a :class:`~repro.des.trace.TraceLog` as ``trace`` to record
    every lock/hold/lifecycle event of the run (bounded ring buffer;
    see ``docs/simulator.md``).  Pass a
    :class:`~repro.obs.telemetry.TelemetryRecorder` as ``telemetry`` to
    additionally collect per-level time series, engine counters and a
    response timer; the recorder's ``telemetry`` attribute holds the
    finished :class:`~repro.obs.telemetry.RunTelemetry` afterwards
    (``docs/observability.md``).

    Pass a :class:`~repro.resilience.TaskBudget` as ``budget`` to bound
    the run by executed events and/or wall clock; a tripped budget
    stops the simulation and returns a
    :class:`~repro.resilience.TruncatedResult` wrapping the partial
    metrics summarized at truncation time, flagged ``overflowed`` (a
    budget trip in this regime is saturation-suspected).  Without a
    budget the return type is a plain :class:`SimulationResult` and
    behavior is unchanged (see ``docs/robustness.md``).
    """
    module = get_algorithm(config.algorithm).ops

    seed_root = random.Random(config.seed)
    rng_build = random.Random(seed_root.randrange(2 ** 63))
    rng_arrivals = random.Random(seed_root.randrange(2 ** 63))
    rng_keys = random.Random(seed_root.randrange(2 ** 63))
    rng_service = random.Random(seed_root.randrange(2 ** 63))

    metrics = MetricsCollector(seed=config.seed)
    if telemetry is not None:
        # Fold every measured response into a Timer instrument as well,
        # so the exported counters carry the latency totals.
        response_timer = telemetry.instruments.timer("sim.response")
        record_response = metrics.record_response

        def record_and_time(operation: str, elapsed: float) -> None:
            record_response(operation, elapsed)
            if metrics.measuring:
                response_timer.observe(elapsed)

        metrics.record_response = record_and_time

    def attach_lock(node: Node) -> None:
        lock = RWLock(name=f"n{node.node_id}",
                      observer=_GatedObserver(metrics, node.level))
        if telemetry is not None:
            telemetry.watch(lock, node.level)
        node.lock = lock

    tree = build_tree(
        config.n_items, order=config.order,
        insert_fraction=config.mix.insert_share or 1.0,
        merge_policy=config.merge_policy, key_space=config.key_space,
        rng=rng_build, on_new_node=attach_lock,
    )

    sim = Simulator(trace=trace,
                    instruments=telemetry.instruments
                    if telemetry is not None else None)
    sampler = ServiceTimeSampler(config.costs, tree, rng_service)
    ctx = OperationContext(sim, tree, sampler, metrics, rng_keys,
                           recovery=config.recovery, t_trans=config.t_trans)
    state = _RunState()
    warmup = config.warmup_operations
    target = config.n_operations

    def on_operation_done(_process) -> None:
        state.population -= 1
        state.completions += 1
        if state.completions == warmup and not metrics.measuring:
            metrics.measuring = True
            metrics.measure_start_time = sim.now

    if warmup == 0:
        metrics.measuring = True
        metrics.measure_start_time = 0.0

    runtime = WorkloadRuntime(config, rng_keys)
    picker = runtime.picker
    txn_size = runtime.transaction_size
    key_space = config.key_space

    # workload.* telemetry instruments (docs/observability.md): offered
    # load, interarrival gaps, hot-key share and transaction lock-hold
    # times.  NULL_INSTRUMENTS keeps the disabled path allocation-free.
    wl_instruments = telemetry.instruments if telemetry is not None \
        else NULL_INSTRUMENTS
    wl_arrivals = wl_instruments.counter("workload.arrivals")
    wl_interarrival = wl_instruments.timer("workload.interarrival")
    wl_keys_total = wl_instruments.counter("workload.keys")
    wl_keys_hot = wl_instruments.counter("workload.keys_hot")
    wl_txn_hold = wl_instruments.timer("workload.txn_hold")

    if telemetry is not None:
        def note_key(key: int, now: float) -> None:
            wl_keys_total.inc()
            hot = picker.hot_interval(now)
            if hot is not None:
                start, size = hot
                if (key - start) % key_space < size:
                    wl_keys_hot.inc()
    else:
        def note_key(key: int, now: float) -> None:
            pass

    def draw_member(now: float):
        """One (operation, key) draw — identical stream order to the
        legacy driver (mix from rng_arrivals, key from rng_keys)."""
        op_name = runtime.draw_operation(rng_arrivals)
        if op_name == OP_DELETE:
            key = pick_resident_key(tree, rng_keys, key_space,
                                    probe=picker.pick(now))
        else:
            key = picker.pick(now)
        note_key(key, now)
        return op_name, key

    def spawn_operation() -> None:
        op_name, key = draw_member(sim.now)
        factory = getattr(module, op_name)
        state.population += 1
        metrics.note_population(state.population)
        if state.population > config.max_population:
            state.overflowed = True
            sim.stop()
            return
        sim.spawn(factory(ctx, key), name=op_name,
                  on_done=on_operation_done)

    txn_table = TransactionLockTable() if txn_size > 1 else None

    def spawn_transaction() -> None:
        now = sim.now
        members = tuple(draw_member(now) for _ in range(txn_size))
        state.population += 1
        metrics.note_population(state.population)
        if state.population > config.max_population:
            state.overflowed = True
            sim.stop()
            return
        sim.spawn(
            transaction_envelope(module, ctx, members, txn_table,
                                 on_commit=wl_txn_hold.observe),
            name="transaction", on_done=on_operation_done)

    spawn = spawn_operation if txn_size == 1 else spawn_transaction

    def arrivals():
        sampler = runtime.arrival_sampler(config.arrival_rate,
                                          rng_arrivals)
        # Hoisted bound methods: no per-arrival attribute or config
        # lookups in the hot loop.
        next_interval = sampler.next_interval
        count_arrival = wl_arrivals.inc
        observe_gap = wl_interarrival.observe
        while True:
            gap = next_interval()
            yield gap
            count_arrival()
            observe_gap(gap)
            spawn()

    def root_sampler():
        while True:
            yield _ROOT_SAMPLE_INTERVAL
            lock = tree.root.lock
            present = lock.writer is not None or lock.writer_waiting()
            metrics.record_root_sample(present,
                                       queue_length=lock.queue_length)

    sim.spawn(arrivals(), name="arrivals")
    sim.spawn(root_sampler(), name="root-sampler")
    if telemetry is not None:
        sim.spawn(telemetry.sampler_process(sim, lambda: state.population),
                  name="telemetry-sampler")
    if config.compaction_interval is not None:
        from repro.simulator.compaction import compactor
        sim.spawn(compactor(ctx, config.compaction_interval),
                  name="compactor")

    def done() -> bool:
        return (metrics.measured_operations >= target) or state.overflowed

    guard = None
    if budget is None:
        stop_when = done
    else:
        from repro.resilience.budget import BudgetGuard
        guard = BudgetGuard(budget)
        # exceeded() runs first so every executed event is counted.
        stop_when = lambda: guard.exceeded() or done()  # noqa: E731
    sim.run(stop_when=stop_when)
    metrics.measure_end_time = sim.now

    tripped = guard is not None and guard.tripped
    result = summarize(
        metrics, algorithm=config.algorithm,
        arrival_rate=config.arrival_rate, seed=config.seed,
        overflowed=state.overflowed or tripped, tree_size=len(tree),
        tree_height=tree.height,
    )
    if telemetry is not None:
        telemetry.finalize(result)
    if tripped:
        from repro.resilience.budget import TruncatedResult
        return TruncatedResult(result=result, reason=guard.reason,
                               events_executed=guard.events,
                               wall_seconds=guard.elapsed())
    return result


def make_key_picker(config: SimulationConfig,
                    rng: random.Random) -> KeyPicker:
    """The key-selection distribution the configuration asks for,
    resolved through the workload layer (the explicit ``workload``
    field wins; the legacy ``key_distribution`` fields map onto the
    equivalent spec)."""
    return effective_workload(config).keys.build(config.key_space, rng)


def _draw_operation(config: SimulationConfig, rng: random.Random) -> str:
    """Deprecated per-call mix draw (kept for external callers; the
    driver hoists the thresholds through :class:`WorkloadRuntime`)."""
    u = rng.random()
    if u < config.mix.q_search:
        return OP_SEARCH
    if u < config.mix.q_search + config.mix.q_insert:
        return OP_INSERT
    return OP_DELETE


def run_replications(config: SimulationConfig,
                     n_seeds: int = 5,
                     progress: Optional[Callable[[SimulationResult], None]]
                     = None,
                     jobs: Optional[int] = None,
                     cache: Optional["ResultCache"] = None,
                     ) -> List[SimulationResult]:
    """Run ``config`` under ``n_seeds`` different seeds (paper: 5).

    ``jobs``/``cache`` default to the ambient execution context (see
    :mod:`repro.parallel`): serial and uncached.  ``jobs=N`` runs the
    seeds on ``N`` worker processes; results are returned in seed order
    and are bit-identical to the serial path.  ``progress`` is called
    once per completed result (completion order when parallel).
    """
    from repro.parallel import replication_tasks, run_batch
    return run_batch(replication_tasks(config, n_seeds),
                     jobs=jobs, cache=cache, progress=progress)


def pooled_response_means(results: Sequence[Optional[SimulationResult]]
                          ) -> Dict[str, float]:
    """Average each operation's mean response over non-overflowed runs;
    +inf when every replication overflowed (saturated setting).

    ``None`` entries (quarantined tasks from a resilient sweep) are
    skipped, like overflowed runs."""
    usable = [r for r in results if r is not None and not r.overflowed]
    if not usable:
        return {OP_SEARCH: math.inf, OP_INSERT: math.inf,
                OP_DELETE: math.inf}
    out: Dict[str, float] = {}
    for op in (OP_SEARCH, OP_INSERT, OP_DELETE):
        values = [r.mean_response[op] for r in usable
                  if not math.isnan(r.mean_response[op])]
        out[op] = sum(values) / len(values) if values else math.nan
    return out
