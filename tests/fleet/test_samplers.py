"""Timeline samplers: registry contract, params, seeded determinism."""

import random

import pytest

from repro.errors import SpecError
from repro.fleet import SAMPLERS, SamplerSpec, build_sampler, register_sampler
from repro.fleet.samplers import MIN_SEGMENT_S
from repro.scenarios.spec import SegmentSpec

BASE = (
    SegmentSpec(duration_s=6 * 3600.0, lux=700.0, ambient_c=22.0,
                skin_c=32.0, label="office"),
    SegmentSpec(duration_s=18 * 3600.0, lux=0.0, ambient_c=22.0,
                skin_c=32.0, label="dark"),
)


class TestRegistry:
    def test_builtins_registered(self):
        for name in ("identity", "daily_jitter", "cloudy_streaks"):
            assert name in SAMPLERS

    def test_unknown_sampler_lists_menu(self):
        with pytest.raises(SpecError, match="identity"):
            build_sampler(SamplerSpec("warp_weather"))

    def test_unknown_params_rejected_with_knobs(self):
        with pytest.raises(SpecError, match="lux_sigma"):
            build_sampler(SamplerSpec("daily_jitter", {"lux_wobble": 1.0}))

    def test_non_numeric_param_rejected(self):
        with pytest.raises(SpecError, match="must be a number"):
            build_sampler(SamplerSpec("daily_jitter", {"lux_sigma": "big"}))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_param_rejected_with_knob_name(self, value):
        """A NaN sigma used to build and then fail the fleet run with
        "segment lux must be finite", naming neither sampler nor knob."""
        with pytest.raises(SpecError,
                           match="daily_jitter sampler param 'lux_sigma' "
                                 "must be finite"):
            build_sampler(SamplerSpec("daily_jitter", {"lux_sigma": value}))

    @pytest.mark.parametrize("knob", ["lux_sigma", "duration_sigma",
                                      "ambient_sigma_c", "skin_sigma_c",
                                      "wind_sigma"])
    def test_negative_sigma_rejected(self, knob):
        with pytest.raises(SpecError, match="cannot be negative"):
            build_sampler(SamplerSpec("daily_jitter", {knob: -1.0}))

    def test_identity_rejects_any_param(self):
        with pytest.raises(SpecError, match="unknown 'identity'"):
            build_sampler(SamplerSpec("identity", {"x": 1.0}))

    def test_third_party_registration(self):
        @register_sampler("test_only_nocturnal")
        def _build(params):
            class Nocturnal:
                def sample_day(self, day, base, rng):
                    return tuple(SegmentSpec(
                        duration_s=seg.duration_s, lux=0.0,
                        ambient_c=seg.ambient_c, skin_c=seg.skin_c,
                        wind_ms=seg.wind_ms, label=seg.label)
                        for seg in base)
            return Nocturnal()

        try:
            sampler = build_sampler(SamplerSpec("test_only_nocturnal"))
            day = sampler.sample_day(0, BASE, random.Random(1))
            assert all(seg.lux == 0.0 for seg in day)
        finally:
            SAMPLERS.remove("test_only_nocturnal")


class TestIdentity:
    def test_returns_template_unchanged(self):
        sampler = build_sampler(SamplerSpec("identity"))
        assert tuple(sampler.sample_day(3, BASE, random.Random(5))) == BASE


class TestDailyJitter:
    def test_same_seed_same_day(self):
        sampler = build_sampler(SamplerSpec("daily_jitter"))
        day_a = tuple(sampler.sample_day(0, BASE, random.Random(42)))
        sampler_b = build_sampler(SamplerSpec("daily_jitter"))
        day_b = tuple(sampler_b.sample_day(0, BASE, random.Random(42)))
        assert day_a == day_b

    def test_different_seeds_differ(self):
        sampler = build_sampler(SamplerSpec("daily_jitter"))
        day_a = tuple(sampler.sample_day(0, BASE, random.Random(1)))
        day_b = tuple(sampler.sample_day(0, BASE, random.Random(2)))
        assert day_a != day_b

    def test_segments_stay_physical(self):
        sampler = build_sampler(SamplerSpec(
            "daily_jitter", {"duration_sigma": 3.0, "lux_sigma": 3.0}))
        rng = random.Random(0)
        for day in range(50):
            for seg in sampler.sample_day(day, BASE, rng):
                assert seg.duration_s >= MIN_SEGMENT_S
                assert seg.lux >= 0.0
                assert seg.wind_ms >= 0.0

    def test_zero_sigma_is_identity(self):
        sampler = build_sampler(SamplerSpec("daily_jitter", {
            "duration_sigma": 0.0, "lux_sigma": 0.0, "ambient_sigma_c": 0.0,
            "skin_sigma_c": 0.0, "wind_sigma": 0.0}))
        assert tuple(sampler.sample_day(0, BASE, random.Random(9))) == BASE


class TestSamplerProperties:
    """Seeded property tests over *every* registered sampler.

    Third-party registrations run through the same sweep: the
    properties below are the sampler contract
    (:mod:`repro.fleet.samplers` module docstring), not a whitelist of
    the built-ins.
    """

    #: Samplers documented to perturb segment *durations* (daily_jitter
    #: jitters them log-normally); every other sampler must preserve
    #: the template's total duration exactly.
    DURATION_PERTURBING = {"daily_jitter"}

    DAYS = 6

    @staticmethod
    def _sample_week(name, seed, index):
        """One wearer-week from a fresh sampler + fresh wearer RNG,
        exactly as :mod:`repro.fleet.population` drives them."""
        sampler = build_sampler(SamplerSpec(name))
        rng = random.Random(seed + index)
        return [tuple(sampler.sample_day(day, BASE, rng))
                for day in range(TestSamplerProperties.DAYS)]

    @pytest.mark.parametrize("name", sorted(SAMPLERS.names()))
    def test_segment_durations_non_negative(self, name):
        for day in self._sample_week(name, seed=77, index=3):
            assert day, "samplers must emit at least one segment"
            for seg in day:
                assert seg.duration_s > 0.0

    @pytest.mark.parametrize("name", sorted(SAMPLERS.names()))
    def test_total_duration_preserved_or_documented(self, name):
        base_total = sum(seg.duration_s for seg in BASE)
        for day in self._sample_week(name, seed=5, index=0):
            total = sum(seg.duration_s for seg in day)
            if name in self.DURATION_PERTURBING:
                # Perturbed, but never degenerate: every segment is
                # floored at MIN_SEGMENT_S, so a day cannot vanish.
                assert total >= MIN_SEGMENT_S * len(day)
            else:
                assert total == base_total

    @pytest.mark.parametrize("name", sorted(SAMPLERS.names()))
    def test_identical_seed_index_identical_output(self, name):
        """Two fresh sampler instances fed the same ``(seed, index)``
        generator reproduce each other day for day — the property
        that makes shard partitions and reruns bitwise-stable."""
        first = self._sample_week(name, seed=2020, index=4)
        second = self._sample_week(name, seed=2020, index=4)
        assert first == second

    @pytest.mark.parametrize("name", sorted(SAMPLERS.names()))
    def test_environment_values_stay_physical(self, name):
        for day in self._sample_week(name, seed=13, index=1):
            for seg in day:
                assert seg.lux >= 0.0
                assert seg.wind_ms >= 0.0
                assert -60.0 < seg.ambient_c < 80.0
                assert 0.0 < seg.skin_c < 50.0


class TestCloudyStreaks:
    def test_days_are_sunny_or_scaled(self):
        sampler = build_sampler(SamplerSpec(
            "cloudy_streaks", {"cloudy_lux_factor": 0.5}))
        rng = random.Random(3)
        saw = set()
        for day in range(30):
            sampled = tuple(sampler.sample_day(day, BASE, rng))
            if sampled == BASE:
                saw.add("sunny")
            else:
                saw.add("cloudy")
                assert sampled[0].lux == BASE[0].lux * 0.5
                assert sampled[0].duration_s == BASE[0].duration_s
        assert saw == {"sunny", "cloudy"}

    def test_always_cloudy_chain(self):
        sampler = build_sampler(SamplerSpec(
            "cloudy_streaks", {"p_enter": 1.0, "p_exit": 0.0}))
        rng = random.Random(0)
        for day in range(5):
            sampled = tuple(sampler.sample_day(day, BASE, rng))
            assert sampled != BASE

    def test_probability_bounds_checked(self):
        with pytest.raises(SpecError, match="p_enter"):
            build_sampler(SamplerSpec("cloudy_streaks", {"p_enter": 1.5}))
