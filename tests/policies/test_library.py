"""Built-in policies: semantics, validation edges, engine integration."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.manager import EnergyAwareManager, ManagerPolicy
from repro.errors import ConfigurationError, SpecError
from repro.harvest.environment import (
    DARKNESS,
    EnvironmentSample,
    EnvironmentTimeline,
    INDOOR_OFFICE_700LX,
    OUTDOOR_SUN_30KLX,
    TEG_ROOM_22C_NO_WIND,
)
from repro.policies import (
    EnergyAwarePolicy,
    EwmaForecastPolicy,
    OracleLookaheadPolicy,
    PolicyContext,
    StaticDutyCyclePolicy,
)
from repro.scenarios import (PolicySpec, build_battery, build_harvester,
                             build_policy)
from tests.helpers import default_simulation

DETECTION_J = 605.2e-6


def obs(harvest_w=1e-4, soc=0.5, t=0.0, dt=300.0):
    """The four ``decide`` arguments, in protocol order."""
    return t, dt, harvest_w, soc


@dataclasses.dataclass(frozen=True)
class OldStyleDecision:
    """The shape of a rate-plus-mode decision object, which ``decide``
    must not return: it answers with the bare rate."""

    detection_rate_per_min: float
    mode: str = ""


def sun_after_darkness() -> EnvironmentTimeline:
    """Two dark hours, then four hours of full sun."""
    return EnvironmentTimeline([
        EnvironmentSample(2 * 3600.0, DARKNESS, TEG_ROOM_22C_NO_WIND),
        EnvironmentSample(4 * 3600.0, OUTDOOR_SUN_30KLX, TEG_ROOM_22C_NO_WIND),
    ])


class TestEnergyAwareAdapter:
    @pytest.fixture
    def policy(self):
        return EnergyAwarePolicy(EnergyAwareManager(DETECTION_J))

    @pytest.mark.parametrize("harvest_w,soc", [
        (0.0, 0.05), (1e-4, 0.5), (2e-4, 0.5), (1.0, 0.5), (0.0, 0.95),
    ])
    def test_decide_matches_manager_exactly(self, policy, harvest_w, soc):
        expected = policy.manager.detection_rate_per_min(harvest_w, soc)
        assert policy.decide(*obs(harvest_w, soc)) == expected

    def test_max_rate_mirrors_thresholds(self):
        manager = EnergyAwareManager(DETECTION_J,
                                     ManagerPolicy(max_rate_per_min=7.0))
        assert EnergyAwarePolicy(manager).max_rate_per_min == 7.0


class TestStaticDutyCycle:
    def test_rate_is_condition_blind(self):
        policy = StaticDutyCyclePolicy(rate_per_min=3.0)
        for observation in (obs(0.0, 0.05), obs(1.0, 0.95)):
            assert policy.decide(*observation) == 3.0

    def test_negative_rate_rejected(self):
        with pytest.raises(SpecError, match="negative"):
            StaticDutyCyclePolicy(rate_per_min=-1.0)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_rate_rejected(self, rate):
        """An infinite rate used to build and then die mid-run with an
        OverflowError; NaN built too."""
        with pytest.raises(SpecError, match="finite"):
            StaticDutyCyclePolicy(rate_per_min=rate)

    def test_simulation_holds_the_rate(self):
        timeline = EnvironmentTimeline([
            EnvironmentSample(86400.0, INDOOR_OFFICE_700LX,
                              TEG_ROOM_22C_NO_WIND),
        ])
        sim = default_simulation(timeline, policy=StaticDutyCyclePolicy(4.0),
                                 step_s=600.0)
        result = sim.run()
        assert all(step.detection_rate_per_min == 4.0 for step in result.steps)


class TestEwmaForecast:
    def test_forecast_converges_to_constant_harvest(self):
        policy = EwmaForecastPolicy(DETECTION_J, alpha=0.5)
        for _ in range(64):
            policy.decide(*obs(2e-4, soc=0.5))
        assert policy.forecast_w == pytest.approx(2e-4, rel=1e-6)
        # Converged forecast -> the instantaneous neutral rate.
        manager = EnergyAwareManager(DETECTION_J)
        expected = manager.detection_rate_per_min(2e-4, 0.5)
        rate = policy.decide(*obs(2e-4, soc=0.5))
        assert rate == pytest.approx(expected, rel=1e-6)

    def test_smoothing_damps_a_burst(self):
        """One sunny step must move the rate far less than the
        instantaneous policy would."""
        policy = EwmaForecastPolicy(DETECTION_J, alpha=0.1,
                                    max_rate_per_min=1000.0)
        for _ in range(32):
            policy.decide(*obs(1e-5, soc=0.5))
        burst = policy.decide(*obs(5e-3, soc=0.5))
        instantaneous = EnergyAwareManager(
            DETECTION_J, ManagerPolicy(max_rate_per_min=1000.0)
        ).detection_rate_per_min(5e-3, 0.5)
        assert burst < 0.2 * instantaneous

    def test_soc_bands_override_forecast(self):
        policy = EwmaForecastPolicy(DETECTION_J)
        assert policy.decide(*obs(1.0, soc=0.05)) == 1.0
        assert policy.decide(*obs(0.0, soc=0.95)) == 24.0

    def test_reset_forgets_history(self):
        policy = EwmaForecastPolicy(DETECTION_J, alpha=0.1)
        policy.decide(*obs(1e-3, soc=0.5))
        policy.reset()
        assert policy.forecast_w is None
        # First post-reset observation seeds the forecast directly.
        policy.decide(*obs(2e-4, soc=0.5))
        assert policy.forecast_w == pytest.approx(2e-4)

    def test_engine_resets_between_runs(self):
        """Re-running one simulation object must be deterministic."""
        timeline = sun_after_darkness()
        sim = default_simulation(
            timeline, policy=EwmaForecastPolicy(DETECTION_J, alpha=0.2),
            step_s=600.0)
        first = sim.run()
        sim.battery = build_battery()
        second = sim.run()
        assert [s.detection_rate_per_min for s in first.steps] == \
            [s.detection_rate_per_min for s in second.steps]

    @pytest.mark.parametrize("bad", [
        {"alpha": 0.0}, {"alpha": 1.5},
        {"min_rate_per_min": -1.0},
        {"max_rate_per_min": 0.0},
        {"min_rate_per_min": 30.0, "max_rate_per_min": 24.0},
        {"low_soc": 0.9, "high_soc": 0.2},
        {"neutrality_margin": 1.0},
        {"min_rate_per_min": math.nan},
        {"max_rate_per_min": math.inf},
    ])
    def test_bad_params_rejected(self, bad):
        with pytest.raises(SpecError):
            EwmaForecastPolicy(DETECTION_J, **bad)


class TestOracleLookahead:
    @pytest.fixture
    def harvester(self):
        return build_harvester()

    def test_sees_sun_through_darkness(self, harvester):
        """Standing in the dark with sun two hours out, the oracle
        spends above the instantaneous-neutral floor."""
        policy = OracleLookaheadPolicy(DETECTION_J, sun_after_darkness(),
                                       harvester, lookahead_s=4 * 3600.0)
        rate = policy.decide(*obs(0.0, soc=0.5, t=0.0))
        blind = EnergyAwareManager(DETECTION_J).detection_rate_per_min(0.0, 0.5)
        assert rate > blind

    def test_window_mean_matches_hand_integral(self, harvester):
        timeline = sun_after_darkness()
        dark_w = harvester.battery_intake_w(DARKNESS, TEG_ROOM_22C_NO_WIND)
        sun_w = harvester.battery_intake_w(OUTDOOR_SUN_30KLX,
                                           TEG_ROOM_22C_NO_WIND)
        policy = OracleLookaheadPolicy(DETECTION_J, timeline, harvester,
                                       lookahead_s=4 * 3600.0)
        # Window [1 h, 5 h]: one dark hour, then three sunny hours.
        expected = (dark_w * 3600.0 + sun_w * 3 * 3600.0) / (4 * 3600.0)
        assert policy.mean_harvest_w(3600.0) == pytest.approx(expected)

    def test_last_segment_extends_past_timeline_end(self, harvester):
        """Beyond the horizon the engine clamps to the final segment;
        the oracle's window must price it the same way."""
        timeline = sun_after_darkness()
        sun_w = harvester.battery_intake_w(OUTDOOR_SUN_30KLX,
                                           TEG_ROOM_22C_NO_WIND)
        policy = OracleLookaheadPolicy(DETECTION_J, timeline, harvester,
                                       lookahead_s=2 * 3600.0)
        beyond = timeline.total_duration_s + 3600.0
        assert policy.mean_harvest_w(beyond) == pytest.approx(sun_w)

    def test_bad_lookahead_rejected(self, harvester):
        with pytest.raises(SpecError, match="lookahead"):
            OracleLookaheadPolicy(DETECTION_J, sun_after_darkness(),
                                  harvester, lookahead_s=0.0)


class TestRegisteredFactories:
    def test_unknown_policy_name_lists_registry(self):
        with pytest.raises(SpecError, match="registered policies") as excinfo:
            build_policy(PolicySpec(name="warp_drive"))
        assert "energy_aware" in str(excinfo.value)
        assert "static_duty_cycle" in str(excinfo.value)

    def test_unknown_param_lists_known_knobs(self):
        context = PolicyContext(detection_energy_j=DETECTION_J)
        with pytest.raises(SpecError, match="turbo") as excinfo:
            build_policy(PolicySpec(name="energy_aware",
                                    params={"turbo": True}), context)
        assert "max_rate_per_min" in str(excinfo.value)

    def test_bad_bands_surface_as_spec_error(self):
        context = PolicyContext(detection_energy_j=DETECTION_J)
        with pytest.raises(SpecError, match="energy_aware"):
            build_policy(PolicySpec(name="energy_aware",
                                    params={"low_soc": 0.9, "high_soc": 0.1}),
                         context)
        with pytest.raises(SpecError):
            build_policy(PolicySpec(name="static_duty_cycle",
                                    params={"rate_per_min": -5.0}), context)

    def test_string_param_rejected_with_knob_name(self):
        """PolicySpec admits any JSON scalar, so factories must turn a
        string where a number belongs into a SpecError, not let it hit
        a comparison as a TypeError."""
        context = PolicyContext(detection_energy_j=DETECTION_J)
        with pytest.raises(SpecError, match="rate_per_min"):
            build_policy(PolicySpec(name="static_duty_cycle",
                                    params={"rate_per_min": "fast"}),
                         context)
        with pytest.raises(SpecError, match="must be a number"):
            build_policy(PolicySpec(name="energy_aware",
                                    params={"max_rate_per_min": "24"}),
                         context)
        with pytest.raises(SpecError, match="must be a number"):
            build_policy(PolicySpec(name="ewma_forecast",
                                    params={"alpha": True}), context)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                       10 ** 400],
                             ids=["nan", "inf", "-inf", "int_past_float"])
    @pytest.mark.parametrize("name,knob", [
        ("energy_aware", "min_rate_per_min"),
        ("energy_aware", "max_rate_per_min"),
        ("energy_aware", "low_soc"),
        ("energy_aware", "high_soc"),
        ("energy_aware", "neutrality_margin"),
        ("static_duty_cycle", "rate_per_min"),
        ("ewma_forecast", "alpha"),
        ("ewma_forecast", "max_rate_per_min"),
        ("oracle_lookahead", "lookahead_s"),
        ("oracle_lookahead", "min_rate_per_min"),
    ])
    def test_non_finite_param_rejected_with_knob_name(self, name, knob,
                                                      value):
        """NaN, +/-inf (and integers past the float range, which JSON
        can carry) fail at build time with the knob named, instead of
        building a policy that runs silently at the ceiling or dies
        mid-run with an OverflowError."""
        context = PolicyContext(detection_energy_j=DETECTION_J,
                                timeline=sun_after_darkness(),
                                harvester=build_harvester())
        with pytest.raises(SpecError, match=f"{knob}.*must be finite"):
            build_policy(PolicySpec(name=name, params={knob: value}),
                         context)

    def test_nan_parsed_from_json_is_rejected_at_build(self):
        spec = PolicySpec.from_dict(json.loads(
            '{"name": "energy_aware", "params": {"min_rate_per_min": NaN}}'))
        with pytest.raises(SpecError, match="min_rate_per_min"):
            build_policy(spec, PolicyContext(detection_energy_j=DETECTION_J))

    def test_oracle_without_timeline_context_is_explained(self):
        context = PolicyContext(detection_energy_j=DETECTION_J)
        with pytest.raises(SpecError, match="timeline"):
            build_policy(PolicySpec(name="oracle_lookahead"), context)

    def test_params_reach_the_policy(self):
        context = PolicyContext(detection_energy_j=DETECTION_J)
        policy = build_policy(PolicySpec(name="ewma_forecast",
                                         params={"alpha": 0.75}), context)
        assert policy.alpha == 0.75
        assert policy.detection_energy_j == DETECTION_J


class TestEngineIntegration:
    def test_protocol_policy_equals_default_build_bitwise(self):
        """A hand-wrapped EnergyAwarePolicy must be indistinguishable
        from the registry's default ``energy_aware`` build."""
        timeline = sun_after_darkness()
        context = PolicyContext(detection_energy_j=DETECTION_J)
        default = default_simulation(
            timeline, policy=build_policy(PolicySpec(), context),
            detection_energy_j=DETECTION_J, step_s=300.0).run()
        wrapped = default_simulation(
            timeline,
            policy=EnergyAwarePolicy(EnergyAwareManager(DETECTION_J)),
            detection_energy_j=DETECTION_J, step_s=300.0).run()
        assert wrapped == default

    @pytest.mark.parametrize("returned", [
        math.nan, -1.0, OldStyleDecision(6.0, "static"), None,
    ], ids=["nan", "negative", "decision_object", "none"])
    def test_invalid_policy_rate_rejected_mid_run(self, returned):
        """Anything but a non-negative number — including a decision
        object or None, which cannot even be compared — gets the
        engine's own error naming the policy class and the step time,
        not a bare TypeError."""
        class Broken:
            max_rate_per_min = 24.0

            def decide(self, time_s, step_s, harvest_power_w,
                       state_of_charge):
                return returned

        from repro.errors import SimulationError

        sim = default_simulation(sun_after_darkness(), policy=Broken(),
                                 step_s=600.0)
        with pytest.raises(SimulationError,
                           match=r"policy Broken returned an invalid "
                                 r"detection rate .* at t=0s"):
            sim.run()

    def test_rate_above_ceiling_is_clamped(self):
        class Overdriven:
            max_rate_per_min = 6.0

            def decide(self, time_s, step_s, harvest_power_w,
                       state_of_charge):
                return 1000.0

        sim = default_simulation(sun_after_darkness(), policy=Overdriven(),
                                 step_s=600.0)
        result = sim.run()
        assert all(step.detection_rate_per_min == 6.0
                   for step in result.steps)


def _reference_band(p: ManagerPolicy, detection_j: float,
                    harvest_w: float, soc: float) -> float:
    """The SoC band exactly as ``_SocBandedPolicy._banded_decision``
    spelled it before the band moved into the manager: the neutral
    guard tests ``usable > 0`` where the manager tests ``harvest <= 0``.
    Kept as the reference that both live forms are pinned against."""
    if soc < p.low_soc:
        return p.min_rate_per_min
    if soc > p.high_soc:
        return p.max_rate_per_min
    usable = harvest_w * (1.0 - p.neutrality_margin)
    neutral = usable * 60.0 / detection_j if usable > 0 else 0.0
    return min(p.max_rate_per_min, max(p.min_rate_per_min, neutral))


_MARGINS = (0.0, 1e-300, 0.05, 0.5, 0.999999, math.nextafter(1.0, 0.0))
_RATE_RANGES = ((1.0, 24.0), (0.0, 1e6), (3.0, 3.0))
_SOC_BANDS = ((0.15, 0.85), (0.0, 1.0), (0.3, 0.300000001))
_EDGE_HARVESTS = (0.0, -0.0, 5e-324, 1e-310, -1e-4, math.inf, 1e-9, 1e-6,
                  2.4e-4, 1e-3, 0.05, 1.0)


def _edge_socs(low: float, high: float) -> list[float]:
    """Both thresholds, their +/-1 ulp neighbours, the unit ends and
    the middle of the band, clipped to [0, 1]."""
    socs = {0.0, 1.0, (low + high) / 2}
    for threshold in (low, high):
        socs.update((math.nextafter(threshold, -1.0), threshold,
                     math.nextafter(threshold, 2.0)))
    return sorted(s for s in socs if 0.0 <= s <= 1.0)


class TestOneBand:
    """The floor / ceiling / energy-neutral band has one scalar form
    (``EnergyAwareManager.detection_rate_per_min``) and one mask form
    (what ``EnergyAwarePolicy.decide_batch`` runs); the forecast
    policies only choose the power estimate fed to it.  All of them
    equal the reference band under ``==``, no tolerance."""

    @pytest.mark.parametrize("margin", _MARGINS)
    @pytest.mark.parametrize("rates", _RATE_RANGES)
    @pytest.mark.parametrize("band", _SOC_BANDS)
    def test_scalar_mask_and_reference_agree_bitwise(self, margin, rates,
                                                     band):
        p = ManagerPolicy(min_rate_per_min=rates[0],
                          max_rate_per_min=rates[1], low_soc=band[0],
                          high_soc=band[1], neutrality_margin=margin)
        manager = EnergyAwareManager(DETECTION_J, p)
        # alpha=1 makes the forecast the observed harvest itself, so the
        # forecast policy runs the band on the instantaneous power.
        forecast = EwmaForecastPolicy(DETECTION_J, alpha=1.0,
                                      min_rate_per_min=rates[0],
                                      max_rate_per_min=rates[1],
                                      low_soc=band[0], high_soc=band[1],
                                      neutrality_margin=margin)
        points = [(h, s) for h in _EDGE_HARVESTS
                  for s in _edge_socs(*band)]
        harvest = np.array([h for h, _ in points])
        soc = np.array([s for _, s in points])
        masked = EnergyAwarePolicy(manager).decide_batch(0.0, 60.0,
                                                         harvest, soc)
        for (h, s), from_mask in zip(points, masked.tolist()):
            expected = _reference_band(p, DETECTION_J, h, s)
            assert manager.detection_rate_per_min(h, s) == expected, (h, s)
            assert from_mask == expected, (h, s)
            forecast.reset()
            assert forecast.decide(*obs(h, s)) == expected, (h, s)

    @pytest.mark.parametrize("soc", [math.nan, -1e-12, 1.5, -math.inf])
    def test_scalar_and_mask_reject_the_same_soc(self, soc):
        policy = EnergyAwarePolicy(EnergyAwareManager(DETECTION_J))
        with pytest.raises(ConfigurationError, match="state of charge"):
            policy.decide(*obs(1e-4, soc))
        with pytest.raises(ConfigurationError, match="state of charge"):
            policy.decide_batch(0.0, 60.0, np.array([1e-4, 1e-4]),
                                np.array([0.5, soc]))

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(low=st.floats(0.0, 0.99), width=st.floats(1e-6, 1.0),
           min_rate=st.floats(0.0, 50.0), span=st.floats(0.0, 50.0),
           margin=st.floats(0.0, 0.999),
           harvest=st.lists(st.one_of(st.floats(-1e-3, 1e-2),
                                      st.sampled_from(_EDGE_HARVESTS)),
                            min_size=1, max_size=24),
           soc_seed=st.lists(st.floats(0.0, 1.0), min_size=24, max_size=24))
    def test_energy_aware_batch_equals_decide(self, low, width, min_rate,
                                              span, margin, harvest,
                                              soc_seed):
        high = min(1.0, low + width)
        max_rate = min_rate + span if min_rate + span > 0 else 1.0
        context = PolicyContext(detection_energy_j=DETECTION_J)
        policy = build_policy(PolicySpec(name="energy_aware", params={
            "min_rate_per_min": min_rate, "max_rate_per_min": max_rate,
            "low_soc": low, "high_soc": high,
            "neutrality_margin": margin}), context)
        socs = soc_seed[:len(harvest)]
        batch = policy.decide_batch(0.0, 60.0, np.array(harvest),
                                    np.array(socs))
        assert batch.tolist() == [policy.decide(*obs(h, s))
                                  for h, s in zip(harvest, socs)]


class TestEwmaBatch:
    """``ewma_forecast.decide_batch`` keeps one forecast per lane: lane
    ``i`` must equal a fresh scalar run on lane ``i``'s floats, step
    after step, under ``==``."""

    @staticmethod
    def _trace(lanes: int, steps: int, seed: int):
        rng = np.random.default_rng(seed)
        harvest = rng.uniform(0.0, 2e-3, size=(steps, lanes))
        harvest[rng.random((steps, lanes)) < 0.3] = 0.0  # dark steps
        harvest[steps // 3] = 0.0  # one all-dark step
        soc = rng.uniform(0.0, 1.0, size=(steps, lanes))
        return harvest, soc

    @pytest.mark.parametrize("lanes", range(1, 10))
    @pytest.mark.parametrize("alpha", [0.1, 0.25, 1.0])
    def test_lane_equals_fresh_scalar_run(self, lanes, alpha):
        context = PolicyContext(detection_energy_j=DETECTION_J)
        spec = PolicySpec("ewma_forecast", {"alpha": alpha})
        batch = build_policy(spec, context)
        scalars = [build_policy(spec, context) for _ in range(lanes)]
        harvest, soc = self._trace(lanes, 24, seed=lanes)
        for step in range(len(harvest)):
            if step == 15:  # mid-run reset: every forecast starts over
                batch.reset()
                for policy in scalars:
                    policy.reset()
            t = step * 60.0
            rates = batch.decide_batch(t, 60.0, harvest[step], soc[step])
            assert rates.tolist() == [
                policy.decide(t, 60.0, float(h), float(s))
                for policy, h, s in zip(scalars, harvest[step], soc[step])]

    def test_batch_copies_its_first_observation(self):
        policy = EwmaForecastPolicy(DETECTION_J, alpha=0.5)
        harvest = np.array([1e-4, 2e-4])
        policy.decide_batch(0.0, 60.0, harvest, np.array([0.5, 0.5]))
        harvest[:] = 0.0  # the caller reuses its array
        scalar = EwmaForecastPolicy(DETECTION_J, alpha=0.5)
        scalar.decide(0.0, 60.0, 1e-4, 0.5)
        assert (policy.decide_batch(60.0, 60.0, harvest,
                                    np.array([0.5, 0.5]))[0]
                == scalar.decide(60.0, 60.0, 0.0, 0.5))


_FAMILIES = {
    "energy_aware": [{}, {"low_soc": 0.3, "max_rate_per_min": 6.0},
                     {"neutrality_margin": 0.5, "min_rate_per_min": 0.0}],
    "static_duty_cycle": [{"rate_per_min": 2.0}, {"rate_per_min": 0.5},
                          {"rate_per_min": 30.0}],
    "ewma_forecast": [{"alpha": 0.1}, {"alpha": 1.0, "high_soc": 0.6},
                      {"alpha": 0.5, "neutrality_margin": 0.0}],
}


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_stacked_family_equals_member_batches(family):
    """``stack`` turns k members into one decider over a ``(k, N)``
    block; row ``r`` must equal member ``r``'s own ``decide_batch``,
    step after step (the forecasts evolve per lane)."""
    context = PolicyContext(detection_energy_j=DETECTION_J)
    members = [build_policy(PolicySpec(family, params), context)
               for params in _FAMILIES[family]]
    stacked = type(members[0]).stack(members)
    harvest, soc = TestEwmaBatch._trace(5, 12, seed=3)
    for step in range(len(harvest)):
        block = np.tile(soc[step], (len(members), 1))
        block[0] = soc[step][::-1]  # rows see different SoCs
        rates = np.broadcast_to(
            stacked.decide_batch(step * 60.0, 60.0, harvest[step], block),
            block.shape)
        expected = [np.broadcast_to(member.decide_batch(
                        step * 60.0, 60.0, harvest[step], row), row.shape)
                    for member, row in zip(members, block)]
        assert rates.tolist() == [row.tolist() for row in expected]
