"""The pluggable workload subsystem.

A workload is declared as a frozen :class:`WorkloadSpec` — arrival
process x key distribution x transaction envelope — set on
:class:`~repro.simulator.config.SimulationConfig` and content-hashed
into result-cache keys.  The default spec reproduces the legacy
stationary-Poisson/uniform behaviour bit-identically.

See ``docs/workloads.md`` for the spec format, the built-in traces and
how to add a distribution; ``btree-perf list-workloads`` prints the
registry.
"""

from repro.workload.keys import (
    HotspotKeys,
    KeyPicker,
    MigratingHotspotKeys,
    UniformKeys,
    ZipfKeys,
)
from repro.workload.mixes import (
    INSERT_ONLY,
    PAPER_MIX,
    READ_HEAVY,
    UPDATE_HEAVY,
)
from repro.workload.registry import (
    WorkloadComponent,
    all_arrival_processes,
    all_key_distributions,
    get_arrival_process,
    get_key_distribution,
)
from repro.workload.runtime import WorkloadRuntime
from repro.workload.spec import (
    DEFAULT_WORKLOAD,
    ArrivalSpec,
    HotspotKeysSpec,
    KeySpec,
    MMPPArrivals,
    MigratingHotspotKeysSpec,
    PoissonArrivals,
    ScheduleArrivals,
    SpikeArrivals,
    TransactionSpec,
    UniformKeysSpec,
    WorkloadSpec,
    ZipfKeysSpec,
    effective_workload,
    mix_thresholds,
)
from repro.workload.transactions import (
    TransactionLockTable,
    transaction_envelope,
)

__all__ = [
    "ArrivalSpec",
    "DEFAULT_WORKLOAD",
    "HotspotKeys",
    "HotspotKeysSpec",
    "INSERT_ONLY",
    "KeyPicker",
    "KeySpec",
    "MMPPArrivals",
    "MigratingHotspotKeys",
    "MigratingHotspotKeysSpec",
    "PAPER_MIX",
    "PoissonArrivals",
    "READ_HEAVY",
    "ScheduleArrivals",
    "SpikeArrivals",
    "TransactionLockTable",
    "TransactionSpec",
    "UPDATE_HEAVY",
    "UniformKeys",
    "UniformKeysSpec",
    "WorkloadComponent",
    "WorkloadRuntime",
    "WorkloadSpec",
    "ZipfKeys",
    "ZipfKeysSpec",
    "all_arrival_processes",
    "all_key_distributions",
    "effective_workload",
    "get_arrival_process",
    "get_key_distribution",
    "mix_thresholds",
    "transaction_envelope",
]
