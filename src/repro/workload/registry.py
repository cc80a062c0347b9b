"""Registry of the built-in arrival processes and key distributions.

Mirrors the :mod:`repro.algorithms` registry pattern: one canonical
listing that the CLI (``btree-perf list-workloads``), the docs and the
tests enumerate, so a new distribution registers itself here and shows
up everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Type

from repro.errors import ConfigurationError
from repro.workload.spec import (
    ArrivalSpec,
    HotspotKeysSpec,
    KeySpec,
    MMPPArrivals,
    MigratingHotspotKeysSpec,
    PoissonArrivals,
    ScheduleArrivals,
    SpikeArrivals,
    UniformKeysSpec,
    ZipfKeysSpec,
)

__all__ = ["WorkloadComponent", "all_arrival_processes",
           "all_key_distributions"]


@dataclass(frozen=True)
class WorkloadComponent:
    """One registered arrival process or key distribution."""

    #: ``"arrival"`` or ``"keys"``.
    category: str
    #: Registry name (the spec class's ``kind``).
    name: str
    spec_type: Type
    #: One-line description for the CLI listing.
    label: str


_ARRIVALS: Tuple[WorkloadComponent, ...] = (
    WorkloadComponent("arrival", PoissonArrivals.kind, PoissonArrivals,
                      "stationary Poisson (the paper's stream)"),
    WorkloadComponent("arrival", MMPPArrivals.kind, MMPPArrivals,
                      "ON/OFF bursty (2-state MMPP, mean-preserving)"),
    WorkloadComponent("arrival", ScheduleArrivals.kind, ScheduleArrivals,
                      "piecewise diurnal rate schedule (cycling)"),
    WorkloadComponent("arrival", SpikeArrivals.kind, SpikeArrivals,
                      "flash-crowd spike (transient burst)"),
)

_KEYS: Tuple[WorkloadComponent, ...] = (
    WorkloadComponent("keys", UniformKeysSpec.kind, UniformKeysSpec,
                      "uniform over the key space"),
    WorkloadComponent("keys", HotspotKeysSpec.kind, HotspotKeysSpec,
                      "static 80/20-style hot range"),
    WorkloadComponent("keys", ZipfKeysSpec.kind, ZipfKeysSpec,
                      "Zipf power-law skew (optionally scrambled)"),
    WorkloadComponent("keys", MigratingHotspotKeysSpec.kind,
                      MigratingHotspotKeysSpec,
                      "hot range drifting over simulated time"),
)


def all_arrival_processes() -> Tuple[WorkloadComponent, ...]:
    """Every registered arrival process, in registry order."""
    return _ARRIVALS


def all_key_distributions() -> Tuple[WorkloadComponent, ...]:
    """Every registered key distribution, in registry order."""
    return _KEYS


def _check(entries: Tuple[WorkloadComponent, ...],
           base: Type) -> None:
    seen = set()
    for entry in entries:
        if entry.name in seen:
            raise ConfigurationError(
                f"workload component {entry.name!r} registered twice")
        seen.add(entry.name)
        if not issubclass(entry.spec_type, base):
            raise ConfigurationError(
                f"{entry.name!r} does not subclass {base.__name__}")


_check(_ARRIVALS, ArrivalSpec)
_check(_KEYS, KeySpec)
