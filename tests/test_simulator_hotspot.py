"""Tests for the hotspot key-distribution wiring in the drivers."""

from repro.simulator import SimulationConfig, run_simulation
from repro.workload import HotspotKeysSpec, WorkloadSpec
from repro.workload.keys import HotspotKeys, UniformKeys
from repro.workload.runtime import WorkloadRuntime


def _config(**overrides):
    defaults = dict(algorithm="naive-lock-coupling", arrival_rate=0.2,
                    n_items=3_000, n_operations=400,
                    warmup_operations=50, seed=31)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def _hotspot(**overrides):
    """A hotspot workload: ``hot_probability`` of the accesses go to
    the first ``hot_fraction`` of the key space (default 80/20)."""
    return WorkloadSpec(keys=HotspotKeysSpec(**overrides))


class TestConfig:
    def test_picker_factory(self):
        """The workload's key spec picks the runtime key picker."""
        import random
        rng = random.Random(0)
        assert isinstance(WorkloadRuntime(_config(), rng).picker, UniformKeys)
        picker = WorkloadRuntime(
            _config(workload=_hotspot(hot_fraction=0.1,
                                      hot_probability=0.9)), rng).picker
        assert isinstance(picker, HotspotKeys)
        assert picker.hot_fraction == 0.1
        assert picker.hot_probability == 0.9


class TestHotspotRuns:
    def test_run_completes(self):
        result = run_simulation(_config(workload=_hotspot()))
        assert not result.overflowed
        assert result.measured_operations >= 400

    def test_skew_concentrates_contention(self):
        """At the same arrival rate, a strong hotspot produces clearly
        more lock waiting than a uniform workload under lock-coupling."""
        uniform = run_simulation(_config(arrival_rate=0.3,
                                         n_operations=800))
        skewed = run_simulation(_config(arrival_rate=0.3,
                                        n_operations=800,
                                        workload=_hotspot(
                                            hot_probability=0.95)))
        assert skewed.mean_response["insert"] \
            > 1.1 * uniform.mean_response["insert"]

    def test_link_type_shrugs_off_skew(self):
        uniform = run_simulation(_config(algorithm="link-type",
                                         arrival_rate=0.3,
                                         n_operations=800))
        skewed = run_simulation(_config(algorithm="link-type",
                                        arrival_rate=0.3,
                                        n_operations=800,
                                        workload=_hotspot(
                                            hot_probability=0.95)))
        assert skewed.mean_response["insert"] \
            < 1.3 * uniform.mean_response["insert"]

    def test_closed_mode_accepts_hotspot(self):
        from repro.simulator.closed import run_closed_simulation
        result = run_closed_simulation(
            _config(workload=_hotspot()), multiprogramming_level=4)
        assert result.throughput > 0
