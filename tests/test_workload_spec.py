"""WorkloadSpec plumbing: validation, registry, cache keys, model.

The load-bearing contract: the default :class:`WorkloadSpec` (and
``workload=None``) must hash and behave exactly like the pre-workload
configuration — cache keys unchanged, no CODE_SALT bump — while any
non-default spec is content-hashed into the key like every other
config field.
"""

from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError
from repro.model.workload import effective_load, piecewise_response
from repro.parallel.cache import config_key
from repro.simulator.config import SimulationConfig
from repro.workload import (
    DEFAULT_WORKLOAD,
    HotspotKeysSpec,
    MMPPArrivals,
    MigratingHotspotKeysSpec,
    PoissonArrivals,
    ScheduleArrivals,
    SpikeArrivals,
    TransactionSpec,
    UniformKeysSpec,
    WorkloadSpec,
    ZipfKeysSpec,
    all_arrival_processes,
    all_key_distributions,
    effective_workload,
    get_arrival_process,
    get_key_distribution,
    mix_thresholds,
)


def _config(**overrides) -> SimulationConfig:
    defaults = dict(algorithm="link-type", n_items=1_000,
                    n_operations=100, warmup_operations=10, seed=3)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


# ----------------------------------------------------------------------
# Spec semantics
# ----------------------------------------------------------------------
class TestSpecSemantics:

    def test_default_spec_flags(self):
        spec = WorkloadSpec()
        assert spec == DEFAULT_WORKLOAD
        assert spec.arrival.stationary()

    @pytest.mark.parametrize("spec", [
        WorkloadSpec(arrival=MMPPArrivals()),
        WorkloadSpec(arrival=ScheduleArrivals()),
        WorkloadSpec(arrival=SpikeArrivals()),
        WorkloadSpec(keys=HotspotKeysSpec()),
        WorkloadSpec(keys=ZipfKeysSpec()),
        WorkloadSpec(keys=MigratingHotspotKeysSpec()),
        WorkloadSpec(transaction=TransactionSpec(size=3)),
    ], ids=["mmpp", "schedule", "spike", "hotspot", "zipf",
            "migrating", "txn"])
    def test_vector_native_per_component(self, spec):
        # Every component now runs on the one scalar path: none carries
        # a vector_native flag, and each is still told apart from the
        # default spec.
        assert spec != DEFAULT_WORKLOAD
        for part in (spec, spec.arrival, spec.keys, spec.transaction):
            assert not hasattr(part, "vector_native")

    def test_mmpp_defaults_are_mean_preserving(self):
        assert MMPPArrivals().mean_factor() == pytest.approx(1.0)

    def test_spec_rejects_wrong_component_types(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(arrival=UniformKeysSpec())
        with pytest.raises(ConfigurationError):
            WorkloadSpec(keys=PoissonArrivals())
        with pytest.raises(ConfigurationError):
            WorkloadSpec(transaction=3)

    def test_zipf_theta_bounds(self):
        with pytest.raises(ConfigurationError):
            ZipfKeysSpec(theta=0.0)
        with pytest.raises(ConfigurationError):
            ZipfKeysSpec(theta=1.0)

    def test_mix_thresholds_hoists_and_validates(self):
        good = SimpleNamespace(q_search=0.3, q_insert=0.5, q_delete=0.2)
        assert mix_thresholds(good) == \
            (pytest.approx(0.3), pytest.approx(0.8))
        bad = SimpleNamespace(q_search=0.9, q_insert=0.5, q_delete=0.2)
        with pytest.raises(ConfigurationError,
                           match=r"q_search=0.9.*sums to"):
            mix_thresholds(bad)


# ----------------------------------------------------------------------
# Config integration
# ----------------------------------------------------------------------
class TestConfigIntegration:

    def test_effective_workload_resolution(self):
        assert effective_workload(_config()) == DEFAULT_WORKLOAD
        explicit = WorkloadSpec(arrival=MMPPArrivals())
        assert effective_workload(_config(workload=explicit)) is explicit
        legacy = _config(key_distribution="hotspot", hot_fraction=0.1,
                         hot_probability=0.9)
        assert effective_workload(legacy) == WorkloadSpec(
            keys=HotspotKeysSpec(hot_fraction=0.1, hot_probability=0.9))

    def test_config_rejects_non_spec_workload(self):
        with pytest.raises(ConfigurationError, match="WorkloadSpec"):
            _config(workload="mmpp")

    def test_workload_and_legacy_skew_mutually_exclusive(self):
        with pytest.raises(ConfigurationError,
                           match="mutually exclusive"):
            _config(workload=WorkloadSpec(keys=HotspotKeysSpec()),
                    key_distribution="hotspot")


# ----------------------------------------------------------------------
# Cache keys
# ----------------------------------------------------------------------
class TestCacheKeys:

    def test_default_spec_key_equals_no_spec_key(self):
        assert config_key(_config(workload=WorkloadSpec())) == \
            config_key(_config())
        assert config_key(_config(workload=DEFAULT_WORKLOAD),
                          kind="closed") == \
            config_key(_config(), kind="closed")

    def test_non_default_specs_are_content_hashed(self):
        base = config_key(_config())
        keys = {config_key(_config(workload=spec)) for spec in (
            WorkloadSpec(arrival=MMPPArrivals()),
            WorkloadSpec(arrival=MMPPArrivals(on_factor=4.0)),
            WorkloadSpec(keys=ZipfKeysSpec()),
            WorkloadSpec(transaction=TransactionSpec(size=3)),
        )}
        assert len(keys) == 4
        assert base not in keys

    def test_same_non_default_spec_hashes_stably(self):
        spec = WorkloadSpec(arrival=MMPPArrivals(),
                            keys=ZipfKeysSpec(theta=0.7))
        assert config_key(_config(workload=spec)) == \
            config_key(_config(workload=WorkloadSpec(
                arrival=MMPPArrivals(), keys=ZipfKeysSpec(theta=0.7))))


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:

    def test_every_component_listed_once(self):
        arrivals = all_arrival_processes()
        keys = all_key_distributions()
        assert [c.name for c in arrivals] == \
            ["poisson", "mmpp", "schedule", "spike"]
        assert [c.name for c in keys] == \
            ["uniform", "hotspot", "zipf", "migrating"]

    def test_vector_native_flags_match_specs(self):
        # Registry entries mirror their spec types, which carry no
        # vector_native flag any more.
        for entry, spec_type in [
                (get_arrival_process("mmpp"), MMPPArrivals),
                (get_arrival_process("spike"), SpikeArrivals),
                (get_key_distribution("zipf"), ZipfKeysSpec),
                (get_key_distribution("migrating"),
                 MigratingHotspotKeysSpec)]:
            assert entry.spec_type is spec_type
            assert not hasattr(entry, "vector_native")
            assert not hasattr(spec_type, "vector_native")

    def test_unknown_component_lists_known_names(self):
        with pytest.raises(ConfigurationError, match="poisson"):
            get_arrival_process("fractal")
        with pytest.raises(ConfigurationError, match="uniform"):
            get_key_distribution("gaussian")


# ----------------------------------------------------------------------
# Model-layer composition
# ----------------------------------------------------------------------
class TestEffectiveLoadModel:

    def test_poisson_is_exact_and_stationary(self):
        load = effective_load(PoissonArrivals())
        assert load.stationary
        assert load.mean_factor == pytest.approx(1.0)
        assert load.peak_factor == pytest.approx(1.0)
        assert load.burstiness == pytest.approx(0.0)
        assert load.divergence is None

    def test_mmpp_summary_is_honestly_flagged(self):
        load = effective_load(MMPPArrivals())
        assert not load.stationary
        assert load.mean_factor == pytest.approx(1.0)
        assert load.peak_factor == pytest.approx(3.0)
        assert load.burstiness > 0.0
        assert load.divergence is not None
        assert "quasi-static" in load.divergence

    def test_spike_summary_is_honestly_flagged(self):
        load = effective_load(SpikeArrivals())
        assert load.divergence is not None
        assert "transient" in load.divergence

    def test_schedule_composition_is_trusted(self):
        load = effective_load(ScheduleArrivals())
        assert not load.stationary
        assert load.divergence is None

    def test_piecewise_response_weights_segments(self):
        def analyze(config, rate):
            return SimpleNamespace(response=lambda op: rate * 10.0)
        arrival = ScheduleArrivals(segments=((100.0, 0.5), (100.0, 1.5)))
        composed = piecewise_response(analyze, None, 1.0, arrival,
                                      "insert")
        assert composed == pytest.approx(0.5 * 5.0 + 0.5 * 15.0)

    def test_piecewise_response_saturated_segment_is_infinite(self):
        def analyze(config, rate):
            value = float("inf") if rate > 1.0 else rate
            return SimpleNamespace(response=lambda op: value)
        composed = piecewise_response(analyze, None, 1.0,
                                      MMPPArrivals(), "search")
        assert composed == float("inf")
