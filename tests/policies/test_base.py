"""Protocol vocabulary: the decide call shape and the build context."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.policies import Policy, PolicyContext


class TestPolicyProtocol:
    def test_duck_typed_object_satisfies_protocol(self):
        class Greedy:
            max_rate_per_min = 24.0

            def decide(self, time_s, step_s, harvest_power_w,
                       state_of_charge):
                return self.max_rate_per_min

        assert isinstance(Greedy(), Policy)

    def test_object_without_decide_does_not_satisfy(self):
        class NotAPolicy:
            max_rate_per_min = 24.0

        assert not isinstance(NotAPolicy(), Policy)


class TestPolicyContext:
    def test_defaults(self):
        context = PolicyContext(detection_energy_j=605e-6)
        assert context.timeline is None
        assert context.harvester is None

    @pytest.mark.parametrize("energy", [0.0, math.nan, math.inf, -math.inf])
    def test_rejects_nonpositive_or_non_finite_detection_energy(self, energy):
        with pytest.raises(ConfigurationError,
                           match="detection energy must be positive and "
                                 "finite"):
            PolicyContext(detection_energy_j=energy)

    def test_rejects_negative_sleep_power(self):
        with pytest.raises(ConfigurationError):
            PolicyContext(detection_energy_j=1e-3, sleep_power_w=-1.0)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ConfigurationError):
            PolicyContext(detection_energy_j=1e-3, step_s=0.0)
