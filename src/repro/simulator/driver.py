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
4. measures response times and lock waits after a warm-up (every node
   lock adds its grant waits to its level's running means, which the
   window's opening resets), sampling the root lock for the
   writer-presence probability rho_w (Figure 10) at every time unit, booked in bulk whenever the root lock's state
   changes (:meth:`MetricsCollector.book_root_samples`);
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
from functools import partial
from typing import (TYPE_CHECKING, Callable, Dict, Iterator, List, Optional,
                    Sequence)

from repro.algorithms import get_algorithm
from repro.btree.builder import warm_tree
from repro.btree.node import Node, lock_factory
from repro.des.engine import Simulator
from repro.des.rwlock import RWLock
from repro.simulator.config import SimulationConfig, run_seeds
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
    pair of lock-wait means (:meth:`MetricsCollector.waits_for_level`),
    registered from the tree's build levels, levels in the order the
    build first allocated at them, and then when the run allocates a
    node, so ``mean_lock_waits`` has a key for each such level even if
    no lock there is ever used; each node lock adds its grant waits to
    its level's pair.  ``telemetry`` counts those nodes per level the
    same way.  A node's lock is created on the first read of
    ``node.lock``, named by the node's ``node_id``: taken from the
    tree's ``spare_locks`` when one is left there, else built; an idle
    lock accrues nothing, so creating it late changes no number.  The
    collector samples the root's lock
    (:meth:`MetricsCollector.follow_root`), and the tree's
    ``on_root_change`` hook keeps it on the root through root splits
    and collapses.  On exit, normal or not, the hook is cleared, every
    lock the run used is reset and handed to the next run on the same
    template through ``spare_locks``, and the tree is rolled back, so
    the memo's template is again the tree the build grew, with no locks.
    The collector stops the run's simulator on the event that records
    the ``config.n_operations``-th measured operation.
    """
    waits_for_level = metrics.waits_for_level

    def note_node(node: Node) -> None:
        waits_for_level(node.level)
        if telemetry is not None:
            telemetry.count_node(node.level)

    locked: List[Node] = []
    spare_locks: List[RWLock] = []  # the lent tree's, once it is lent

    def make_lock(node: Node) -> RWLock:
        if spare_locks:
            lock = spare_locks.pop()
            lock.name = node.node_id
        else:
            lock = RWLock(name=node.node_id)
        lock.read_waits, lock.write_waits = waits_for_level(node.level)
        if telemetry is not None:
            telemetry.watch(lock, node.level)
        locked.append(node)
        return lock

    with lock_factory(make_lock):
        tree, build_levels = warm_tree(
            build_seed, config.n_items, config.order,
            config.mix.insert_share or 1.0, config.key_space,
            on_new_node=note_node,
        )
        for level, nodes in build_levels:
            waits_for_level(level)
            if telemetry is not None:
                telemetry.count_node(level, nodes)
        spare_locks = tree.spare_locks
        try:
            sim = Simulator()
            metrics.stop_after = config.n_operations
            metrics.on_stop = sim.stop
            metrics.follow_root(tree.root.lock, sim.now)

            def follow_root(root: Node) -> None:
                metrics.follow_root(root.lock, sim.now)

            tree.on_root_change = follow_root
            yield OperationContext(
                sim, tree, ServiceTimeSampler(config.costs, tree, rng_service),
                metrics, rng_keys, recovery=config.recovery,
                t_trans=config.t_trans)
        finally:
            tree.on_root_change = None
            for node in locked:
                lock = node.lock
                lock.reset()
                spare_locks.append(lock)
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
    counters and response totals; the recorder's ``telemetry``
    attribute holds the finished
    :class:`~repro.obs.telemetry.RunTelemetry` afterwards
    (``docs/observability.md``).

    A run that outgrows the system stops at ``config.max_population``
    and comes back flagged ``overflowed`` (the paper's saturation
    signal; see ``docs/robustness.md``).
    """
    module = get_algorithm(config.algorithm).ops

    build_seed, arrivals_seed, keys_seed, service_seed = run_seeds(
        config.seed)
    rng_arrivals = random.Random(arrivals_seed)
    rng_keys = random.Random(keys_seed)
    rng_service = random.Random(service_seed)

    metrics = MetricsCollector(seed=config.seed)
    if telemetry is not None:
        # Fold every measured response into the sim.response totals as
        # well, so the exported counters carry the latency totals.
        record_response = metrics.record_response

        def record_and_time(operation: str, elapsed: float) -> None:
            record_response(operation, elapsed)
            if metrics.measuring:
                telemetry.observe("sim.response", elapsed)

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
                metrics.open_window(sim.now)

        if warmup == 0:
            metrics.open_window(0.0)

        runtime = WorkloadRuntime(config, rng_keys)
        picker = runtime.picker
        txn_size = runtime.transaction_size
        key_space = config.key_space

        # workload.* telemetry counters (docs/observability.md): offered
        # load, interarrival gaps, hot-key share and transaction
        # lock-hold times.  Each hook is guarded by one ``is None`` check.
        def note_key(key: int, now: float) -> None:
            telemetry.count("workload.keys")
            hot = picker.hot_interval(now)
            if hot is not None:
                start, size = hot
                if (key - start) % key_space < size:
                    telemetry.count("workload.keys_hot")

        def draw_member(now: float):
            """One (operation, key) draw — identical stream order to the
            legacy driver (mix from rng_arrivals, key from rng_keys)."""
            op_name = runtime.draw_operation(rng_arrivals)
            if op_name == OP_DELETE:
                key = pick_resident_key(tree, rng_keys, key_space,
                                        probe=picker.pick(now))
            else:
                key = picker.pick(now)
            if telemetry is not None:
                note_key(key, now)
            return op_name, key

        def spawn_operation() -> None:
            op_name, key = draw_member(sim.now)
            factory = getattr(module, op_name)
            state.population = population = state.population + 1
            if population > metrics.peak_population:
                metrics.peak_population = population
            if population > config.max_population:
                state.overflowed = True
                sim.stop()
                return
            sim.spawn(factory(ctx, key), name=op_name,
                      on_done=on_operation_done)

        txn_table = TransactionLockTable() if txn_size > 1 else None
        on_commit = None if telemetry is None \
            else partial(telemetry.observe, "workload.txn_hold")

        def spawn_transaction() -> None:
            now = sim.now
            members = tuple(draw_member(now) for _ in range(txn_size))
            state.population = population = state.population + 1
            if population > metrics.peak_population:
                metrics.peak_population = population
            if population > config.max_population:
                state.overflowed = True
                sim.stop()
                return
            sim.spawn(
                transaction_envelope(module, ctx, members, txn_table,
                                     on_commit=on_commit),
                name="transaction", on_done=on_operation_done)

        spawn = spawn_operation if txn_size == 1 else spawn_transaction

        def arrivals():
            sampler = runtime.arrival_sampler(config.arrival_rate,
                                              rng_arrivals)
            # Hoisted bound method: no per-arrival attribute or config
            # lookups in the hot loop.
            next_interval = sampler.next_interval
            while True:
                gap = next_interval()
                yield gap
                if telemetry is not None:
                    telemetry.count("workload.arrivals")
                    telemetry.observe("workload.interarrival", gap)
                spawn()

        sim.spawn(arrivals(), name="arrivals")
        if telemetry is not None:
            sim.spawn(telemetry.sampler_process(sim, lambda: state.population),
                      name="telemetry-sampler")
        if config.compaction_interval is not None:
            from repro.simulator.compaction import compactor
            sim.spawn(compactor(ctx, config.compaction_interval),
                      name="compactor")

        sim.run()
        metrics.book_root_samples(sim.now)
        metrics.measure_end_time = sim.now

        result = summarize(
            metrics, algorithm=config.algorithm,
            arrival_rate=config.arrival_rate, seed=config.seed,
            overflowed=state.overflowed, tree_size=len(tree),
            tree_height=tree.height,
        )
    if telemetry is not None:
        telemetry.finalize(result, sim)
    sim.discard_pending()
    return result


def run_replications(config: SimulationConfig,
                     n_seeds: int = 5,
                     progress: Optional[Callable[[SimulationResult], None]]
                     = None,
                     jobs: int = 1,
                     cache: Optional["ResultCache"] = None,
                     ) -> List[SimulationResult]:
    """Run ``config`` under ``n_seeds`` different seeds (paper: 5).

    Serial and uncached by default (see :mod:`repro.parallel`).
    ``jobs=N`` runs the seeds on ``N`` worker processes; results are
    returned in seed order and are bit-identical to the serial path.
    ``progress`` is called once per completed result (completion order
    when parallel).
    """
    from repro.parallel import replication_tasks, run_batch
    return run_batch(replication_tasks(config, n_seeds),
                     jobs=jobs, cache=cache, progress=progress)


def pooled_response_means(results: Sequence[Optional[SimulationResult]]
                          ) -> Dict[str, float]:
    """Average each operation's mean response over non-overflowed runs;
    +inf when every replication overflowed (saturated setting).

    ``None`` entries (quarantined tasks from a resilient sweep) are
    skipped; when every entry is ``None`` nothing was measured and each
    mean is NaN, not +inf."""
    ran = [r for r in results if r is not None]
    usable = [r for r in ran if not r.overflowed]
    if not usable:
        value = math.inf if ran else math.nan
        return {OP_SEARCH: value, OP_INSERT: value, OP_DELETE: value}
    out: Dict[str, float] = {}
    for op in (OP_SEARCH, OP_INSERT, OP_DELETE):
        values = [r.mean_response[op] for r in usable
                  if not math.isnan(r.mean_response[op])]
        out[op] = sum(values) / len(values) if values else math.nan
    return out
