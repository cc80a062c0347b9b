"""Fixed-seed stability and edge cases of the workload generators.

Every sampler/picker in :mod:`repro.workload` draws from its RNG in a
documented order; these tests pin each one's fixed-seed draw sequence
(so an accidental reordering shows up as a diff, not as silently
different experiments) and exercise the degenerate parameter corners
(``key_space=1``, hot-fraction extremes, zero-length schedule
segments, transaction size 1).
"""

import random

import pytest

from repro.errors import ConfigurationError
from repro.workload.arrivals import (
    MMPPSampler,
    PiecewiseSampler,
    PoissonSampler,
)
from repro.workload.keys import (
    HotspotKeys,
    MigratingHotspotKeys,
    UniformKeys,
    ZipfKeys,
    scramble_key,
    zipf_value,
)
from repro.workload.spec import (
    DEFAULT_WORKLOAD,
    MMPPArrivals,
    PoissonArrivals,
    ScheduleArrivals,
    SpikeArrivals,
    TransactionSpec,
    WorkloadSpec,
)

SEED = 42


# ----------------------------------------------------------------------
# Pinned fixed-seed draw sequences
# ----------------------------------------------------------------------
class TestPinnedSequences:

    def test_poisson_matches_legacy_expovariate_stream(self):
        sampler = PoissonSampler(0.5, random.Random(SEED))
        legacy = random.Random(SEED)
        drawn = [sampler.next_interval() for _ in range(16)]
        assert drawn == [legacy.expovariate(0.5) for _ in range(16)]

    def test_mmpp_sequence_pinned(self):
        sampler = MMPPSampler(0.5, random.Random(SEED), MMPPArrivals())
        drawn = [round(sampler.next_interval(), 6) for _ in range(6)]
        assert drawn == [0.016886, 0.214416, 0.168391, 0.889062,
                        0.752782, 1.484859]

    def test_piecewise_sequence_pinned(self):
        sampler = PiecewiseSampler(0.5, random.Random(SEED),
                                   ((10.0, 2.0), (10.0, 0.5)))
        drawn = [round(sampler.next_interval(), 6) for _ in range(6)]
        assert drawn == [1.02006, 0.025329, 0.321624, 0.252586,
                        1.333593, 1.129173]

    def test_zipf_sequence_pinned(self):
        picker = ZipfKeys(1000, random.Random(SEED), theta=0.9)
        assert [picker.pick() for _ in range(8)] == \
            [136, 0, 10, 6, 243, 171, 574, 1]

    def test_scrambled_zipf_sequence_pinned(self):
        picker = ZipfKeys(1000, random.Random(SEED), theta=0.9,
                          scramble=True)
        assert [picker.pick() for _ in range(8)] == \
            [52, 0, 180, 708, 182, 683, 751, 618]

    def test_migrating_hotspot_sequence_pinned(self):
        picker = MigratingHotspotKeys(1000, random.Random(SEED),
                                      velocity=1e-3)
        times = (0.0, 100.0, 200.0, 300.0, 400.0, 500.0)
        assert [picker.pick(now) for now in times] == \
            [6, 162, 388, 489, 689, 508]

    @pytest.mark.parametrize("make", [
        lambda rng: PoissonSampler(0.3, rng),
        lambda rng: MMPPSampler(0.3, rng, MMPPArrivals()),
        lambda rng: PiecewiseSampler(0.3, rng, ((5.0, 2.0), (5.0, 0.5))),
    ], ids=["poisson", "mmpp", "piecewise"])
    def test_samplers_deterministic_under_same_seed(self, make):
        first = make(random.Random(SEED))
        second = make(random.Random(SEED))
        assert [first.next_interval() for _ in range(32)] == \
            [second.next_interval() for _ in range(32)]


# ----------------------------------------------------------------------
# Arrival-process behaviour
# ----------------------------------------------------------------------
class TestArrivalSamplers:

    def test_mmpp_long_run_rate_is_mean_preserving(self):
        # Defaults: (3.0 * 50 + 0.5 * 200) / 250 = 1.0 x base rate.
        sampler = MMPPSampler(1.0, random.Random(SEED), MMPPArrivals())
        n = 40_000
        total = sum(sampler.next_interval() for _ in range(n))
        assert n / total == pytest.approx(1.0, rel=0.05)

    def test_piecewise_zero_rate_segments_get_no_arrivals(self):
        sampler = PiecewiseSampler(1.0, random.Random(SEED),
                                   ((10.0, 2.0), (10.0, 0.0)))
        clock = 0.0
        for _ in range(200):
            clock += sampler.next_interval()
            assert clock % 20.0 < 10.0  # never inside the dead half

    def test_piecewise_cycles_past_profile_end(self):
        sampler = PiecewiseSampler(1.0, random.Random(SEED),
                                   ((1.0, 1.0),), cycle=True)
        clock = sum(sampler.next_interval() for _ in range(50))
        assert clock > 10.0  # many cycles deep, still producing

    def test_non_cycling_profile_falls_back_to_tail_rate(self):
        # Burst of 100x for 1 unit, then tail at the base rate: the
        # stream keeps flowing long after the profile is exhausted.
        sampler = PiecewiseSampler(1.0, random.Random(SEED),
                                   ((1.0, 100.0),), cycle=False,
                                   tail_factor=1.0)
        clock = 0.0
        intervals = []
        for _ in range(300):
            gap = sampler.next_interval()
            intervals.append((clock, gap))
            clock += gap
        assert clock > 50.0
        in_burst = [g for t, g in intervals if t < 1.0]
        in_tail = [g for t, g in intervals if t > 2.0]
        assert sum(in_burst) / len(in_burst) \
            < sum(in_tail) / len(in_tail)

    @pytest.mark.parametrize("spec", [
        PoissonArrivals(),
        MMPPArrivals(on_factor=3, off_factor=0, mean_on=5, mean_off=20),
        ScheduleArrivals(segments=((10, 2), (0, 1), (10, 0))),
        SpikeArrivals(multiplier=8, start=2, duration=3),
    ], ids=["poisson", "mmpp", "schedule", "spike"])
    def test_int_parameters_give_float_gaps(self, spec):
        # The arrivals process yields every gap as a hold, and the kernel holds
        # only for floats.
        sampler = spec.build(1, random.Random(SEED))
        gaps = [sampler.next_interval() for _ in range(300)]
        assert all(gap.__class__ is float for gap in gaps)

    def test_schedule_spec_skips_zero_length_segments(self):
        spec = ScheduleArrivals(segments=((0.0, 3.0), (10.0, 1.0),
                                          (0.0, 0.5)))
        assert spec.live_segments() == ((10.0, 1.0),)
        assert spec.factor_segments() == ((1.0, 1.0),)

    def test_schedule_spec_rejects_degenerate_schedules(self):
        with pytest.raises(ConfigurationError):
            ScheduleArrivals(segments=())
        with pytest.raises(ConfigurationError):
            ScheduleArrivals(segments=((0.0, 1.0),))  # no live segment
        with pytest.raises(ConfigurationError):
            ScheduleArrivals(segments=((10.0, 0.0),))  # never arrives
        with pytest.raises(ConfigurationError):
            ScheduleArrivals(segments=((-1.0, 1.0),))

    def test_spike_spec_validation(self):
        with pytest.raises(ConfigurationError):
            SpikeArrivals(multiplier=0.0)
        with pytest.raises(ConfigurationError):
            SpikeArrivals(duration=0.0)
        with pytest.raises(ConfigurationError):
            SpikeArrivals(start=-1.0)

    def test_mmpp_spec_validation(self):
        with pytest.raises(ConfigurationError):
            MMPPArrivals(on_factor=-1.0)
        with pytest.raises(ConfigurationError):
            MMPPArrivals(on_factor=0.0, off_factor=0.0)
        with pytest.raises(ConfigurationError):
            MMPPArrivals(mean_on=0.0)


# ----------------------------------------------------------------------
# Key pickers: edge cases
# ----------------------------------------------------------------------
class TestKeyPickerEdges:

    @pytest.mark.parametrize("make", [
        lambda rng: UniformKeys(1, rng),
        lambda rng: HotspotKeys(1, rng),
        lambda rng: ZipfKeys(1, rng),
        lambda rng: MigratingHotspotKeys(1, rng),
    ], ids=["uniform", "hotspot", "zipf", "migrating"])
    def test_key_space_of_one_always_yields_zero(self, make):
        picker = make(random.Random(SEED))
        assert all(picker.pick(float(t)) == 0 for t in range(100))

    def test_hotspot_matches_legacy_draw_order(self):
        picker = HotspotKeys(1000, random.Random(SEED))
        legacy = random.Random(SEED)
        for _ in range(500):
            if legacy.random() < 0.8:
                expected = legacy.randrange(200)
            else:
                expected = 200 + legacy.randrange(800)
            assert picker.pick() == expected

    def test_hot_fraction_extremes_rejected(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ConfigurationError):
                HotspotKeys(1000, random.Random(SEED), hot_fraction=bad)

    def test_hot_probability_boundaries_allowed(self):
        rng = random.Random(SEED)
        always = HotspotKeys(1000, rng, hot_probability=1.0)
        assert all(always.pick() < 200 for _ in range(200))
        never = HotspotKeys(1000, rng, hot_probability=0.0)
        assert all(never.pick() >= 200 for _ in range(200))

    def test_tiny_hot_fraction_clamps_to_one_key(self):
        picker = HotspotKeys(10, random.Random(SEED),
                             hot_fraction=1e-9, hot_probability=1.0)
        assert picker.hot_interval() == (0, 1)
        assert all(picker.pick() == 0 for _ in range(50))

    def test_zipf_concentrates_mass_on_low_keys(self):
        picker = ZipfKeys(10_000, random.Random(SEED), theta=0.9)
        draws = [picker.pick() for _ in range(5_000)]
        assert all(0 <= key < 10_000 for key in draws)
        low_decile = sum(1 for key in draws if key < 1_000)
        assert low_decile / len(draws) > 0.5

    def test_zipf_scramble_spreads_but_stays_in_range(self):
        picker = ZipfKeys(10_000, random.Random(SEED), theta=0.9,
                          scramble=True)
        draws = [picker.pick() for _ in range(5_000)]
        assert all(0 <= key < 10_000 for key in draws)
        low_decile = sum(1 for key in draws if key < 1_000)
        assert low_decile / len(draws) < 0.3  # hot mass scattered
        assert picker.hot_interval() is None

    def test_zipf_inverse_cdf_and_scramble_primitives(self):
        assert zipf_value(0.0, 1000, 0.9) == 0
        assert 0 <= zipf_value(0.999999, 1000, 0.9) < 1000
        assert zipf_value(0.5, 1, 0.9) == 0
        seen = {scramble_key(k, 1000) for k in range(1000)}
        assert all(0 <= key < 1000 for key in seen)
        assert len(seen) > 600  # near-injective spread

    def test_migrating_hot_interval_tracks_time(self):
        picker = MigratingHotspotKeys(1000, random.Random(SEED),
                                      hot_probability=1.0,
                                      velocity=1e-3)
        assert picker.hot_interval(0.0) == (0, 200)
        start, size = picker.hot_interval(500.0)
        assert (start, size) == (500, 200)
        # Every pick lands inside the (wrapping) hot window.
        for now in (0.0, 500.0, 900.0, 1700.0):
            begin, span = picker.hot_interval(now)
            key = picker.pick(now)
            assert (key - begin) % 1000 < span

    def test_migrating_with_zero_velocity_matches_static_hotspot(self):
        moving = MigratingHotspotKeys(1000, random.Random(SEED),
                                      velocity=0.0)
        static = HotspotKeys(1000, random.Random(SEED))
        assert [moving.pick(float(t)) for t in range(300)] == \
            [static.pick() for _ in range(300)]

    def test_key_space_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            UniformKeys(0, random.Random(SEED))


# ----------------------------------------------------------------------
# Transaction spec corner
# ----------------------------------------------------------------------
class TestTransactionSpecEdges:

    def test_size_one_is_the_default_and_vector_native(self):
        # Single-op transactions are the default spec; with one scalar
        # execution path there is no separate vector_native flag.
        spec = WorkloadSpec(transaction=TransactionSpec(size=1))
        assert spec == DEFAULT_WORKLOAD
        assert not hasattr(spec, "vector_native")

    def test_size_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            TransactionSpec(size=0)

    def test_multi_op_spec_not_vector_native(self):
        spec = WorkloadSpec(transaction=TransactionSpec(size=4))
        assert spec != DEFAULT_WORKLOAD
        assert not hasattr(spec, "vector_native")
