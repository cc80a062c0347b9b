"""Simulation configuration (mirrors paper Section 5.3)."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.algorithms.names import DEFAULT_ALGORITHM
from repro.btree.builder import DEFAULT_KEY_SPACE
from repro.btree.node import MAX_KEY_SPACE
from repro.btree.policies import MERGE_AT_EMPTY, MergePolicy
from repro.errors import ConfigurationError
from repro.model.params import (PAPER_MIX, CostModel, OperationMix,
                                check_t_trans)
from repro.workload.spec import WorkloadSpec


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
    #: Mean time between background compaction sweeps (Sagiv-style
    #: compression of empty leaves); None disables the compactor.
    #: Only meaningful for link-style algorithms (registered with
    #: ``supports_compaction``), the ones that never merge inline.
    compaction_interval: Optional[float] = None
    #: Key-selection distribution: "uniform" (the paper's workload) or
    #: "hotspot" (a contiguous hot key range, concentrating contention
    #: on one subtree).
    key_distribution: str = "uniform"
    #: Hotspot parameters (used when key_distribution == "hotspot"):
    #: ``hot_probability`` of the accesses target the first
    #: ``hot_fraction`` of the key space (default 80/20).
    hot_fraction: float = 0.2
    hot_probability: float = 0.8
    #: Full workload description (arrival process, key distribution,
    #: transaction envelope) — see :mod:`repro.workload` and
    #: ``docs/workloads.md``.  ``None`` (and the default
    #: ``WorkloadSpec()``) reproduces the legacy stationary-Poisson /
    #: ``key_distribution`` behaviour bit-identically and is omitted
    #: from result-cache keys; a non-default spec supersedes the legacy
    #: ``key_distribution`` fields and is content-hashed into the key.
    workload: Optional[WorkloadSpec] = None

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
        if self.recovery not in ("no-recovery", "leaf-only-recovery",
                                 "naive-recovery"):
            raise ConfigurationError(f"unknown recovery {self.recovery!r}")
        if self.recovery != "no-recovery" and not spec.supports_recovery:
            raise ConfigurationError(
                f"recovery policies are not modelled for {spec.label}")
        check_t_trans(self.t_trans)
        if self.compaction_interval is not None:
            if not spec.supports_compaction:
                raise ConfigurationError(
                    "background compaction applies to link trees "
                    "(the other algorithms merge inline)")
            if not (math.isfinite(self.compaction_interval)
                    and self.compaction_interval > 0):
                raise ConfigurationError(
                    f"compaction_interval must be positive and finite, "
                    f"got {self.compaction_interval}")
        if self.key_distribution not in ("uniform", "hotspot"):
            raise ConfigurationError(
                f"unknown key distribution {self.key_distribution!r}; "
                "expected 'uniform' or 'hotspot'")
        if self.workload is not None:
            if not isinstance(self.workload, WorkloadSpec):
                raise ConfigurationError(
                    f"workload must be a WorkloadSpec, got "
                    f"{type(self.workload).__name__}")
            if self.key_distribution != "uniform":
                raise ConfigurationError(
                    "workload and key_distribution are mutually "
                    "exclusive: express the skew through the workload's "
                    "key spec (e.g. HotspotKeysSpec)")
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
