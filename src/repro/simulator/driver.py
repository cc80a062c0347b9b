"""Simulation driver (paper Section 4).

``run_simulation``:

1. borrows the B-tree that a random insert/delete sequence with the
   same insert/delete proportions as the concurrent mix grows
   (construction phase) from the warm-up tree memo
   (:func:`~repro.btree.builder.warm_tree`), which keeps the last tree
   it grew, and rolls back the run's changes to it afterwards
   (:func:`run_context`);
2. gives a node a FCFS R/W lock the first time an operation reaches it
   (nodes created later by concurrent splits included);
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
from contextlib import contextmanager
from typing import (TYPE_CHECKING, Callable, Dict, Iterator, List, Optional,
                    Sequence)

from repro.algorithms import get_algorithm
from repro.btree.builder import warm_tree
from repro.btree.node import Node, lock_factory
from repro.des.engine import Simulator
from repro.des.rwlock import RWLock
from repro.simulator.config import SimulationConfig
from repro.simulator.costs import ServiceTimeSampler
from repro.simulator.metrics import (
    GatedObserver,
    MetricsCollector,
    SimulationResult,
    root_sampler,
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
from repro.workload.runtime import WorkloadRuntime
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


@contextmanager
def run_context(config: SimulationConfig, build_seed: int,
                rng_keys: random.Random, rng_service: random.Random,
                metrics: MetricsCollector,
                telemetry=None) -> Iterator[OperationContext]:
    """The set-up both drivers share: yields the run's
    :class:`OperationContext` on the borrowed warm-up tree.

    Every tree level the build or the run allocates a node at gets one
    gated lock-wait observer, registered when the node is allocated (or
    replayed from the build), so ``mean_lock_waits`` has a key for each
    such level even if no lock there is ever used.  ``telemetry``
    counts those nodes per level the same way.  A node's lock is created
    on the first read of ``node.lock``, named ``n{node_id}``; an idle
    lock accrues nothing, so creating it late changes no number.  On
    exit, normal or not, the locks are retired (freed without waiting
    for the cyclic garbage collector) and dropped, and the tree is
    rolled back, so the memo's template is again the tree the build
    grew.  The collector stops the run's simulator on the event that
    records the ``config.n_operations``-th measured operation.
    """
    observers: Dict[int, GatedObserver] = {}

    def note_node(node: Node) -> None:
        level = node.level
        if level not in observers:
            observers[level] = GatedObserver(metrics, level)
        if telemetry is not None:
            telemetry.count_node(level)

    locked: List[Node] = []

    def make_lock(node: Node) -> RWLock:
        lock = RWLock(name=f"n{node.node_id}",
                      observer=observers[node.level])
        if telemetry is not None:
            telemetry.watch(lock, node.level)
        locked.append(node)
        return lock

    with lock_factory(make_lock):
        tree = warm_tree(
            build_seed, config.n_items, config.order,
            config.mix.insert_share or 1.0, config.key_space,
            on_new_node=note_node,
        )
        try:
            sim = Simulator()
            metrics.stop_after = config.n_operations
            metrics.on_stop = sim.stop
            yield OperationContext(
                sim, tree, ServiceTimeSampler(config.costs, tree, rng_service),
                metrics, rng_keys, recovery=config.recovery,
                t_trans=config.t_trans)
        finally:
            for node in locked:
                node.lock.retire()
                node.lock = None
            tree.rollback()


class _RunState:
    """Mutable run bookkeeping shared by the driver's closures."""

    __slots__ = ("population", "completions", "overflowed")

    def __init__(self) -> None:
        self.population = 0
        self.completions = 0
        self.overflowed = False


def run_simulation(config: SimulationConfig,
                   telemetry=None) -> SimulationResult:
    """Execute one simulator run and return its metrics summary.

    Pass a :class:`~repro.obs.telemetry.TelemetryRecorder` as
    ``telemetry`` to also collect per-level time series, engine
    counters and a response timer; the recorder's ``telemetry``
    attribute holds the finished
    :class:`~repro.obs.telemetry.RunTelemetry` afterwards
    (``docs/observability.md``).

    A run that outgrows the system stops at ``config.max_population``
    and comes back flagged ``overflowed`` (the paper's saturation
    signal; see ``docs/robustness.md``).
    """
    module = get_algorithm(config.algorithm).ops

    seed_root = random.Random(config.seed)
    build_seed = seed_root.randrange(2 ** 63)
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

    with run_context(config, build_seed, rng_keys, rng_service, metrics,
                     telemetry) as ctx:
        sim, tree = ctx.sim, ctx.tree
        state = _RunState()
        warmup = config.warmup_operations

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

        sim.spawn(arrivals(), name="arrivals")
        sim.spawn(root_sampler(tree, metrics), name="root-sampler")
        if telemetry is not None:
            sim.spawn(telemetry.sampler_process(sim, lambda: state.population),
                      name="telemetry-sampler")
        if config.compaction_interval is not None:
            from repro.simulator.compaction import compactor
            sim.spawn(compactor(ctx, config.compaction_interval),
                      name="compactor")

        sim.run()
        metrics.measure_end_time = sim.now

        result = summarize(
            metrics, algorithm=config.algorithm,
            arrival_rate=config.arrival_rate, seed=config.seed,
            overflowed=state.overflowed, tree_size=len(tree),
            tree_height=tree.height,
        )
    if telemetry is not None:
        telemetry.finalize(result, sim)
    return result


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
