"""Energy-aware power-manager policy tests."""

import math

import pytest

from repro.core import EnergyAwareManager, ManagerPolicy
from repro.errors import ConfigurationError

DETECTION_J = 605.2e-6


@pytest.fixture
def manager():
    return EnergyAwareManager(DETECTION_J)


class TestPolicyValidation:
    def test_rejects_inverted_rates(self):
        with pytest.raises(ConfigurationError):
            ManagerPolicy(min_rate_per_min=10.0, max_rate_per_min=5.0)

    def test_rejects_inverted_soc_bands(self):
        with pytest.raises(ConfigurationError):
            ManagerPolicy(low_soc=0.9, high_soc=0.2)

    def test_rejects_bad_margin(self):
        with pytest.raises(ConfigurationError):
            ManagerPolicy(neutrality_margin=1.0)

    def test_rejects_negative_min_rate(self):
        with pytest.raises(ConfigurationError):
            ManagerPolicy(min_rate_per_min=-1.0)

    def test_rejects_nonpositive_max_rate(self):
        with pytest.raises(ConfigurationError):
            ManagerPolicy(min_rate_per_min=0.0, max_rate_per_min=0.0)

    @pytest.mark.parametrize("rates", [
        {"min_rate_per_min": float("nan")},
        {"max_rate_per_min": float("inf")},
        {"min_rate_per_min": float("inf"), "max_rate_per_min": float("inf")},
    ])
    def test_rejects_non_finite_rates(self, rates):
        with pytest.raises(ConfigurationError, match="finite"):
            ManagerPolicy(**rates)

    def test_rejects_soc_band_outside_unit_interval(self):
        with pytest.raises(ConfigurationError):
            ManagerPolicy(low_soc=-0.1)
        with pytest.raises(ConfigurationError):
            ManagerPolicy(high_soc=1.1)

    def test_degenerate_band_rejected(self):
        """low_soc == high_soc leaves no neutral band at all."""
        with pytest.raises(ConfigurationError):
            ManagerPolicy(low_soc=0.5, high_soc=0.5)

    @pytest.mark.parametrize("energy", [0.0, math.nan, math.inf, -math.inf])
    def test_rejects_nonpositive_or_non_finite_detection_energy(self, energy):
        with pytest.raises(ConfigurationError,
                           match="detection energy must be positive and "
                                 "finite"):
            EnergyAwareManager(energy)


class TestEnergyNeutralRate:
    def test_zero_harvest_zero_rate(self, manager):
        assert manager.energy_neutral_rate_per_min(0.0) == 0.0

    def test_papers_indoor_rate(self, manager):
        """The paper-scenario average harvest (~249 uW over a day)
        sustains ~23-24 detections/minute."""
        average_harvest_w = 21.51 / 86400.0
        rate = manager.energy_neutral_rate_per_min(average_harvest_w)
        assert rate == pytest.approx(24.7 * 0.95, rel=0.02)  # margin applied

    def test_rate_linear_in_harvest(self, manager):
        assert manager.energy_neutral_rate_per_min(2e-4) == pytest.approx(
            2 * manager.energy_neutral_rate_per_min(1e-4))


class TestRegimes:
    def test_starving_uses_floor_rate(self, manager):
        rate = manager.detection_rate_per_min(1.0, state_of_charge=0.05)
        assert rate == manager.policy.min_rate_per_min

    def test_abundant_uses_ceiling_rate(self, manager):
        rate = manager.detection_rate_per_min(0.0, state_of_charge=0.95)
        assert rate == manager.policy.max_rate_per_min

    def test_neutral_band_tracks_harvest(self, manager):
        low = manager.detection_rate_per_min(50e-6, state_of_charge=0.5)
        high = manager.detection_rate_per_min(200e-6, state_of_charge=0.5)
        assert manager.policy.min_rate_per_min <= low < high

    def test_neutral_band_clamps_to_ceiling(self, manager):
        rate = manager.detection_rate_per_min(1.0, state_of_charge=0.5)
        assert rate == manager.policy.max_rate_per_min

    def test_neutral_band_clamps_to_floor(self, manager):
        rate = manager.detection_rate_per_min(1e-9, state_of_charge=0.5)
        assert rate == manager.policy.min_rate_per_min

    def test_invalid_soc_rejected(self, manager):
        with pytest.raises(ConfigurationError):
            manager.detection_rate_per_min(1e-3, state_of_charge=1.5)


class TestPeriod:
    def test_period_inverse_of_rate(self, manager):
        rate = manager.detection_rate_per_min(100e-6, 0.5)
        period = manager.detection_period_s(100e-6, 0.5)
        assert period == pytest.approx(60.0 / rate)

    def test_period_infinite_when_rate_zero(self):
        policy = ManagerPolicy(min_rate_per_min=0.0)
        manager = EnergyAwareManager(DETECTION_J, policy)
        assert manager.detection_period_s(0.0, 0.5) == float("inf")
