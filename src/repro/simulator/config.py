"""Simulation configuration (mirrors paper Section 5.3)."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import Tuple

from repro.algorithms.names import DEFAULT_ALGORITHM
from repro.btree.builder import DEFAULT_KEY_SPACE, check_build_size
from repro.btree.node import MAX_KEY_SPACE
from repro.btree.policies import MERGE_AT_EMPTY, MergePolicy
from repro.errors import ConfigurationError
from repro.model.params import (PAPER_MIX, CostModel, OperationMix,
                                check_t_trans)
from repro.workload.spec import DEFAULT_WORKLOAD, WorkloadSpec


@dataclass(frozen=True)
class SimulationConfig:
    """All knobs of one simulator run.

    Defaults reproduce the paper's experiment: a ~40,000-item tree of
    order 13 (5 levels, root fanout ~6), two in-memory levels, disk cost
    5, mix (.3, .5, .2), 10,000 measured concurrent operations.
    """

    #: Which concurrency-control algorithm to run — any registered name
    #: (see ``repro.algorithms`` / ``btree-perf list-algorithms``).
    algorithm: str = DEFAULT_ALGORITHM
    #: Poisson arrival rate of concurrent operations (1 / root-search units).
    arrival_rate: float = 0.1
    #: Maximum entries per node (the paper's maximum node size N).
    order: int = 13
    #: Items inserted during the construction phase.
    n_items: int = 40_000
    mix: OperationMix = PAPER_MIX
    costs: CostModel = field(default_factory=CostModel)
    #: One legal value, kept because it is part of every result-cache key.
    merge_policy: MergePolicy = MERGE_AT_EMPTY
    #: Measured concurrent operations (after warm-up).
    n_operations: int = 10_000
    #: Operations run before measurement starts.
    warmup_operations: int = 500
    #: The paper's "space allocated for concurrent operations": the run
    #: aborts (saturation) if more operations than this are in flight.
    max_population: int = 2_000
    #: Keys are drawn from ``[0, key_space)``; 1 to ``2**63``, the
    #: range of a leaf's typed keys.
    key_space: int = DEFAULT_KEY_SPACE
    seed: int = 0
    #: Recovery policy name: "no-recovery", "leaf-only-recovery" or
    #: "naive-recovery" (applies to algorithms registered with
    #: ``supports_recovery``).
    recovery: str = "no-recovery"
    #: Expected remaining transaction time for recovery lock retention.
    t_trans: float = 100.0
    #: Workload description (arrival process, key distribution,
    #: transaction envelope) — see :mod:`repro.workload` and
    #: ``docs/workloads.md``; a skewed key draw is a key spec such as
    #: ``HotspotKeysSpec``.  ``None`` stands for the paper's workload
    #: and is stored as :data:`~repro.workload.spec.DEFAULT_WORKLOAD`,
    #: so both spellings compare and hash alike.
    workload: WorkloadSpec = DEFAULT_WORKLOAD

    def __post_init__(self) -> None:
        # Local import: repro.algorithms may still be initialising when
        # this module loads, but is complete by instantiation time.
        from repro.algorithms import get_algorithm
        spec = get_algorithm(self.algorithm)  # raises with known names
        if not math.isfinite(self.arrival_rate) or self.arrival_rate <= 0:
            raise ConfigurationError(
                f"arrival_rate must be positive and finite, got "
                f"{self.arrival_rate}")
        if self.n_operations < 1:
            raise ConfigurationError("n_operations must be >= 1")
        if self.warmup_operations < 0:
            raise ConfigurationError("warmup_operations must be >= 0")
        if self.max_population < 1:
            raise ConfigurationError("max_population must be >= 1")
        if not 1 <= self.key_space <= MAX_KEY_SPACE:
            raise ConfigurationError(
                f"key_space must be in [1, 2**63], got {self.key_space}")
        # The tree a run builds; refused here, not inside a worker.
        check_build_size(self.n_items, self.order, self.key_space)
        if self.recovery not in ("no-recovery", "leaf-only-recovery",
                                 "naive-recovery"):
            raise ConfigurationError(f"unknown recovery {self.recovery!r}")
        if self.recovery != "no-recovery" and not spec.supports_recovery:
            raise ConfigurationError(
                f"recovery policies are not modelled for {spec.label}")
        check_t_trans(self.t_trans)
        if self.workload is None:
            object.__setattr__(self, "workload", DEFAULT_WORKLOAD)
        elif not isinstance(self.workload, WorkloadSpec):
            raise ConfigurationError(
                f"workload must be a WorkloadSpec, got "
                f"{type(self.workload).__name__}")
        if self.merge_policy != MERGE_AT_EMPTY:
            raise ConfigurationError(
                "the simulator requires merge-at-empty (the paper's "
                f"setting), got {self.merge_policy!r}")

    def with_rate(self, arrival_rate: float) -> "SimulationConfig":
        return replace(self, arrival_rate=arrival_rate)

    def with_seed(self, seed: int) -> "SimulationConfig":
        return replace(self, seed=seed)

    def scaled(self, factor: float) -> "SimulationConfig":
        """A cheaper copy for benchmarks: scales the measured-operation
        count and warm-up down by ``factor`` (at least 100 ops remain)."""
        return replace(
            self,
            n_operations=max(100, int(self.n_operations * factor)),
            warmup_operations=max(20, int(self.warmup_operations * factor)),
        )


def run_seeds(seed: int) -> Tuple[int, int, int, int]:
    """The four seeds a run derives from its configuration's ``seed``:
    the build seed of the tree it starts from (see
    :func:`~repro.btree.builder.warm_tree`), then one seed for each of
    the run's three random streams."""
    root = random.Random(seed)
    return tuple(root.randrange(2 ** 63) for _ in range(4))
