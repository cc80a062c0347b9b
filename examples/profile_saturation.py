#!/usr/bin/env python3
"""Profiling a B-tree index as it approaches saturation.

Demonstrates the observability features a practitioner needs when an
index misbehaves: latency percentiles from the run metrics, per-level
lock-wait breakdowns (which level is the bottleneck?), and a per-phase
cProfile (where does the wall-clock go — building the tree, or running
the concurrent operations?).

Run:  python examples/profile_saturation.py
"""

import cProfile
import io
import pstats
import random

from repro.btree.builder import build_tree
from repro.des import RWLock, Simulator
from repro.model.params import CostModel
from repro.parallel import SimTask, run_batch
from repro.simulator import SimulationConfig
from repro.simulator.costs import ServiceTimeSampler
from repro.simulator.metrics import MetricsCollector
from repro.simulator.operations import OperationContext
from repro.simulator import lock_coupling


def latency_panel() -> None:
    """Mean vs tail latencies as load approaches the knee."""
    print("Naive Lock-coupling latency panel (search), ~0.61 = saturation:")
    print(f"{'rate':>6} {'mean':>8} {'p50':>8} {'p90':>8} {'p99':>8} "
          f"{'bottleneck level (W wait)':>28}")
    rates = (0.1, 0.3, 0.5, 0.58)
    # One batch: its runs share one warm-up tree (one seed, one build).
    results = run_batch([SimTask(SimulationConfig(
        algorithm="naive-lock-coupling", arrival_rate=rate,
        n_items=8_000, n_operations=1_500, warmup_operations=150,
        seed=5)) for rate in rates])
    for rate, result in zip(rates, results):
        p = result.response_percentiles["search"]
        worst_level, (_r, worst_wait) = max(
            result.mean_lock_waits.items(),
            key=lambda item: item[1][1] if item[1][1] == item[1][1] else -1)
        print(f"{rate:>6} {result.mean_response['search']:>8.2f} "
              f"{p['p50']:>8.2f} {p['p90']:>8.2f} {p['p99']:>8.2f} "
              f"{'level ' + str(worst_level):>20} ({worst_wait:.2f})")


def profile_phases() -> None:
    """cProfile the two phases of a run separately: tree construction
    and the concurrent-operation DES run (top 10 by cumulative time
    each).  This is how the kernel hot-path work was located — the run
    phase concentrates in ``Simulator.run`` (one fused event and step
    loop) and the lock protocol."""
    print("\nPer-phase profile (top 10 functions by cumulative time):")
    rng = random.Random(7)

    def attach(node):
        node.lock = RWLock(f"L{node.level}.{node.node_id}")

    build_profile = cProfile.Profile()
    build_profile.enable()
    tree = build_tree(4_000, order=13, key_space=1 << 20,
                      rng=random.Random(8), on_new_node=attach)
    build_profile.disable()

    sim = Simulator()
    metrics = MetricsCollector()
    metrics.measuring = True
    metrics.measure_start_time = 0.0
    ctx = OperationContext(
        sim, tree,
        ServiceTimeSampler(CostModel(disk_cost=5.0), tree,
                           random.Random(9)),
        metrics, rng)
    for i in range(300):
        key = rng.randrange(1 << 20)
        op = lock_coupling.insert(ctx, key) if i % 3 == 0 \
            else lock_coupling.search(ctx, key)
        sim.spawn(op, name=f"op-{i}", delay=0.4 * i)
    run_profile = cProfile.Profile()
    run_profile.enable()
    sim.run()
    run_profile.disable()

    for title, profile in (("build phase (4,000 inserts)", build_profile),
                           ("run phase (300 concurrent ops)", run_profile)):
        stream = io.StringIO()
        pstats.Stats(profile, stream=stream) \
            .sort_stats("cumulative").print_stats(10)
        print(f"\n  == {title} ==")
        for line in stream.getvalue().splitlines():
            if line.strip():
                print(f"  {line}")


def main() -> None:
    latency_panel()
    profile_phases()
    print("\nReading: near the knee the p99 pulls away from the median "
          "first, and the per-level\nwaits point at the root (the "
          "lock-coupling bottleneck).  The per-phase profile separates "
          "setup cost\n(tree build) from the DES run itself, where "
          "Simulator.run dominates.")


if __name__ == "__main__":
    main()
