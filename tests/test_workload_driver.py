"""Driver integration of the workload subsystem.

The central promises:

* the default spec (``workload=None`` or ``WorkloadSpec()``) produces
  **byte-identical** results to the pre-workload driver (the golden
  fingerprints in ``tests/test_des_kernel_hotpath.py`` enforce the
  absolute baseline; here we enforce None == explicit default);
* non-default workloads are deterministic under a fixed seed and flow
  through the open driver, the closed driver and telemetry;
* transaction envelopes complete without deadlock and report their
  lock-hold time.
"""

import dataclasses
import hashlib

import pytest

from repro.errors import ConfigurationError
from repro.obs import TelemetryOptions, TelemetryRecorder
from repro.simulator.closed import run_closed_simulation
from repro.simulator.config import SimulationConfig
from repro.simulator.driver import run_simulation
from repro.workload import (
    HotspotKeysSpec,
    MMPPArrivals,
    MigratingHotspotKeysSpec,
    ScheduleArrivals,
    SpikeArrivals,
    TransactionSpec,
    WorkloadSpec,
    ZipfKeysSpec,
)


def fingerprint(result) -> str:
    return hashlib.sha256(
        repr(dataclasses.asdict(result)).encode()).hexdigest()


def _config(**overrides) -> SimulationConfig:
    defaults = dict(algorithm="link-type", arrival_rate=0.15,
                    n_items=1_500, n_operations=150,
                    warmup_operations=20, seed=7)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


_TRACES = {
    "mmpp": WorkloadSpec(arrival=MMPPArrivals()),
    "schedule": WorkloadSpec(arrival=ScheduleArrivals()),
    "spike": WorkloadSpec(arrival=SpikeArrivals(start=50.0,
                                                duration=100.0)),
    "zipf": WorkloadSpec(keys=ZipfKeysSpec()),
    "migrating": WorkloadSpec(keys=MigratingHotspotKeysSpec()),
    "txn": WorkloadSpec(transaction=TransactionSpec(size=3)),
}


# ----------------------------------------------------------------------
# Byte identity of the default path
# ----------------------------------------------------------------------
class TestDefaultPathIdentity:

    def test_explicit_default_spec_matches_none(self):
        assert fingerprint(run_simulation(_config())) == \
            fingerprint(run_simulation(_config(workload=WorkloadSpec())))

    def test_explicit_default_spec_matches_none_closed(self):
        plain = run_closed_simulation(_config(), 6, think_time=1.0)
        spec = run_closed_simulation(_config(workload=WorkloadSpec()),
                                     6, think_time=1.0)
        assert fingerprint(plain) == fingerprint(spec)

    def test_hotspot_spec_matches_legacy_key_distribution(self):
        legacy = _config(key_distribution="hotspot", hot_fraction=0.2,
                         hot_probability=0.8)
        spec = _config(workload=WorkloadSpec(keys=HotspotKeysSpec(
            hot_fraction=0.2, hot_probability=0.8)))
        assert fingerprint(run_simulation(legacy)) == \
            fingerprint(run_simulation(spec))
        assert fingerprint(run_closed_simulation(legacy, 6)) == \
            fingerprint(run_closed_simulation(spec, 6))


# ----------------------------------------------------------------------
# Non-default workloads through the open driver
# ----------------------------------------------------------------------
class TestNonDefaultWorkloads:

    @pytest.mark.parametrize("name", sorted(_TRACES))
    def test_deterministic_under_fixed_seed(self, name):
        config = _config(workload=_TRACES[name])
        assert fingerprint(run_simulation(config)) == \
            fingerprint(run_simulation(config))

    @pytest.mark.parametrize("name", sorted(_TRACES))
    def test_results_diverge_from_default_stream(self, name):
        config = _config(workload=_TRACES[name])
        assert fingerprint(run_simulation(config)) != \
            fingerprint(run_simulation(_config()))

    def test_transactions_complete_without_deadlock(self):
        config = _config(workload=_TRACES["txn"], n_operations=120)
        result = run_simulation(config)
        assert not result.overflowed
        assert result.measured_operations >= 120

    def test_closed_driver_rejects_transaction_envelopes(self):
        with pytest.raises(ConfigurationError, match="closed"):
            run_closed_simulation(_config(workload=_TRACES["txn"]), 4)

    def test_closed_driver_runs_non_default_keys(self):
        config = _config(workload=_TRACES["zipf"])
        assert fingerprint(run_closed_simulation(config, 4)) == \
            fingerprint(run_closed_simulation(config, 4))


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
class TestWorkloadTelemetry:

    def _record(self, config):
        recorder = TelemetryRecorder(TelemetryOptions())
        run_simulation(config, telemetry=recorder)
        return recorder.telemetry

    def test_workload_counters_exported(self):
        telemetry = self._record(_config())
        counters = telemetry.counters
        assert counters["workload.arrivals"] > 0
        assert counters["workload.keys"] > 0
        assert counters["workload.interarrival.count"] == \
            counters["workload.arrivals"]
        assert counters["workload.interarrival.total"] > 0.0
        # Uniform keys have no hot set.
        assert counters.get("workload.keys_hot", 0) == 0

    def test_hot_key_share_counted_for_skewed_workloads(self):
        telemetry = self._record(
            _config(workload=WorkloadSpec(keys=HotspotKeysSpec())))
        counters = telemetry.counters
        assert 0 < counters["workload.keys_hot"] < \
            counters["workload.keys"]
        share = counters["workload.keys_hot"] / counters["workload.keys"]
        assert share == pytest.approx(0.8, abs=0.1)

    def test_transaction_hold_times_recorded(self):
        telemetry = self._record(_config(workload=_TRACES["txn"],
                                         n_operations=100))
        counters = telemetry.counters
        assert counters["workload.txn_hold.count"] > 0
        assert counters["workload.txn_hold.total"] > 0.0

