"""Closed-system simulation: a fixed multiprogramming level.

The paper's introduction frames the problem in closed-system terms — a
transaction-processing system with "a multiprocessing level around 100"
— while its analysis uses an open arrival stream (Section 3.1 makes the
distinction explicit, contrasting with the closed analyses of Bayer &
Schkolnick and Ellis).  This module adds the closed mode: a fixed number
of *terminal* processes, each issuing one B-tree operation at a time and
(optionally) thinking between operations.

Running the same algorithms in both modes is the textbook consistency
check: a closed system with multiprogramming level N drives the B-tree
at its throughput limit as N grows, and that limit must match Theorem
2's open-system maximum throughput.
"""

from __future__ import annotations

import random

from repro.algorithms import get_algorithm
from repro.errors import ConfigurationError
from repro.simulator.config import SimulationConfig
from repro.simulator.driver import run_context
from repro.simulator.metrics import (
    MetricsCollector,
    SimulationResult,
    root_sampler,
    summarize,
)
from repro.simulator.operations import OP_DELETE, pick_resident_key
from repro.workload.runtime import WorkloadRuntime


def run_closed_simulation(config: SimulationConfig,
                          multiprogramming_level: int,
                          think_time: float = 0.0) -> SimulationResult:
    """Run ``config``'s algorithm under a fixed population of
    ``multiprogramming_level`` concurrent operations.

    ``config.arrival_rate`` is ignored (the population is the load
    control); ``think_time`` is the mean exponential pause a terminal
    takes between operations (0 = back-to-back).  The returned
    :class:`~repro.simulator.metrics.SimulationResult` reports the
    achieved throughput — the closed system's primary output.
    """
    if multiprogramming_level < 1:
        raise ConfigurationError(
            f"multiprogramming level must be >= 1, got "
            f"{multiprogramming_level}")
    if think_time < 0:
        raise ConfigurationError(f"think_time must be >= 0, got {think_time}")

    module = get_algorithm(config.algorithm).ops
    seed_root = random.Random(config.seed)
    build_seed = seed_root.randrange(2 ** 63)
    rng_keys = random.Random(seed_root.randrange(2 ** 63))
    rng_service = random.Random(seed_root.randrange(2 ** 63))
    rng_think = random.Random(seed_root.randrange(2 ** 63))

    metrics = MetricsCollector(seed=config.seed)

    with run_context(config, build_seed, rng_keys, rng_service,
                     metrics) as ctx:
        sim, tree = ctx.sim, ctx.tree
        warmup = config.warmup_operations
        completions = [0]

        # Key distribution and (hoisted) mix thresholds come from the
        # workload layer.  The arrival process is ignored — the fixed
        # population is the load control in a closed system — and
        # transaction envelopes are an open-system construct.
        runtime = WorkloadRuntime(config, rng_keys)
        if runtime.transaction_size != 1:
            raise ConfigurationError(
                "transaction envelopes are not modelled in the closed "
                "system (each terminal already serialises its operations); "
                "use the open simulator for TransactionSpec(size > 1)")
        picker = runtime.picker

        def draw_operation() -> tuple:
            op_name = runtime.draw_operation(rng_keys)
            if op_name == OP_DELETE:
                return OP_DELETE, pick_resident_key(tree, rng_keys,
                                                    config.key_space,
                                                    probe=picker.pick(sim.now))
            return op_name, picker.pick(sim.now)

        def terminal():
            while True:
                if think_time > 0.0:
                    yield rng_think.expovariate(1.0 / think_time)
                op_name, key = draw_operation()
                yield from getattr(module, op_name)(ctx, key)
                completions[0] += 1
                if completions[0] == warmup and not metrics.measuring:
                    metrics.measuring = True
                    metrics.measure_start_time = sim.now

        if warmup == 0:
            metrics.measuring = True
            metrics.measure_start_time = 0.0

        for index in range(multiprogramming_level):
            sim.spawn(terminal(), name=f"terminal-{index}",
                      delay=index * 1e-6)  # stagger identical start times
        sim.spawn(root_sampler(tree, metrics), name="root-sampler")
        metrics.note_population(multiprogramming_level)

        sim.run()
        metrics.measure_end_time = sim.now

        result = summarize(
            metrics, algorithm=config.algorithm,
            arrival_rate=float("nan"),  # no open arrival stream
            seed=config.seed, overflowed=False,
            tree_size=len(tree), tree_height=tree.height,
        )
    return result
