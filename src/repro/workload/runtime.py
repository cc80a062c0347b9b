"""Binding a workload spec to one run's RNG streams.

:class:`WorkloadRuntime` is the object the simulation drivers hold: it
binds a config's :class:`~repro.workload.spec.WorkloadSpec`, validates
the operation mix once, and exposes the per-run samplers.  For the
default spec every draw it makes is the identical call on the
identical stream the legacy driver made, which is what keeps the
fixed-seed golden fingerprints byte-identical.
"""

from __future__ import annotations

import random

from repro.workload.spec import WorkloadSpec, mix_thresholds

__all__ = ["WorkloadRuntime"]

#: Operation labels in threshold order (mirrors the simulator's
#: OP_SEARCH / OP_INSERT / OP_DELETE constants without importing them;
#: the simulator asserts the correspondence).
_SEARCH, _INSERT, _DELETE = "search", "insert", "delete"


class WorkloadRuntime:
    """One run's workload machinery: key picker, mix thresholds,
    arrival-sampler factory and transaction size."""

    __slots__ = ("spec", "picker", "transaction_size", "_t_search",
                 "_t_update")

    def __init__(self, config, rng_keys: random.Random) -> None:
        spec = config.workload
        self.spec: WorkloadSpec = spec
        self.picker = spec.keys.build(config.key_space, rng_keys)
        self.transaction_size = spec.transaction.size
        # Hoisted out of the per-arrival loop: thresholds computed (and
        # the mix validated, with a structured error naming it) once.
        self._t_search, self._t_update = mix_thresholds(config.mix)

    def arrival_sampler(self, rate: float, rng: random.Random):
        """The arrival sampler for this workload at base ``rate``."""
        return self.spec.arrival.build(rate, rng)

    def draw_operation(self, rng: random.Random) -> str:
        """One mix draw: a single ``rng.random()`` compared against the
        precomputed search and search+insert thresholds."""
        u = rng.random()
        if u < self._t_search:
            return _SEARCH
        if u < self._t_update:
            return _INSERT
        return _DELETE
