"""The learned policy's inference half: features, codec, factories."""

import math

import numpy as np
import pytest

from repro.errors import SpecError, UnknownPolicyError
from repro.fann import Activation, LayerSpec, MultiLayerPerceptron
from repro.policies.learned import (
    FEATURE_NAMES,
    HARVEST_SCALE_W,
    LearnedPolicy,
    LearnedQPolicy,
    default_policy_names,
    extract_features,
    network_from_params,
    network_to_params,
    unknown_policy_message,
)
from repro.scenarios.builder import build_policy
from repro.scenarios.registry import POLICIES
from repro.scenarios.spec import PolicySpec
from repro.units import SECONDS_PER_DAY


def _obs(time_s=0.0, soc=0.8, harvest_w=0.01):
    """The four ``decide`` arguments, in protocol order."""
    return time_s, 60.0, harvest_w, soc


def _tiny_network(seed=0):
    return MultiLayerPerceptron(
        len(FEATURE_NAMES),
        [LayerSpec(3, Activation.TANH), LayerSpec(1, Activation.SIGMOID)],
        seed=seed)


class TestFeatures:
    def test_midnight_is_angle_zero(self):
        sin, cos, _, _ = extract_features(*_obs(time_s=0.0))
        assert sin == pytest.approx(0.0)
        assert cos == pytest.approx(1.0)

    def test_time_wraps_around_the_day(self):
        late = extract_features(*_obs(time_s=SECONDS_PER_DAY - 60.0))
        early = extract_features(*_obs(time_s=SECONDS_PER_DAY + 60.0))
        # 23:59 and 00:01 are neighbours on the unit circle.
        assert math.hypot(late[0] - early[0],
                          late[1] - early[1]) < 0.01

    def test_harvest_scaled_to_order_one(self):
        features = extract_features(*_obs(harvest_w=HARVEST_SCALE_W))
        assert features[3] == pytest.approx(1.0)

    def test_order_matches_names(self):
        features = extract_features(*_obs(soc=0.42))
        assert len(features) == len(FEATURE_NAMES)
        assert features[FEATURE_NAMES.index("soc")] == 0.42


class TestRegistry:
    def test_trained_policies_are_registered(self):
        names = POLICIES.names()
        assert "learned" in names
        assert "learned_q" in names

    def test_default_names_exclude_trained(self):
        names = default_policy_names()
        assert "learned" not in names
        assert "learned_q" not in names
        assert "energy_aware" in names
        assert "oracle_lookahead" in names

    def test_unknown_policy_error_carries_the_hint(self):
        with pytest.raises(UnknownPolicyError) as excinfo:
            build_policy(PolicySpec("no_such_policy"))
        message = str(excinfo.value)
        assert "no_such_policy" in message
        assert "learned" in message
        assert "repro learn train" in message

    def test_hint_text_names_both_variants(self):
        message = unknown_policy_message("typo")
        assert "'learned'" in message
        assert "'learned_q'" in message

    def test_learned_without_params_fails_with_pointer(self):
        with pytest.raises(SpecError, match="repro learn train"):
            build_policy(PolicySpec("learned"))


class TestParamsCodec:
    def test_round_trip_preserves_weights_exactly(self):
        network = _tiny_network(seed=11)
        params = network_to_params(network, max_rate_per_min=12.0)
        rebuilt, max_rate = network_from_params(params)
        assert max_rate == 12.0
        for original, recovered in zip(network.weights, rebuilt.weights):
            np.testing.assert_array_equal(original, recovered)

    def test_rebuilt_network_infers_identically(self):
        network = _tiny_network(seed=2)
        rebuilt, _ = network_from_params(network_to_params(network))
        x = np.asarray(extract_features(*_obs(time_s=3600.0)))
        np.testing.assert_array_equal(network.forward(x),
                                      rebuilt.forward(x))

    def test_empty_params_rejected(self):
        with pytest.raises(SpecError, match="trained policy"):
            network_from_params({})

    def test_unknown_key_rejected(self):
        params = network_to_params(_tiny_network())
        params["momentum"] = 0.9
        with pytest.raises(SpecError, match="momentum"):
            network_from_params(params)

    def test_feature_version_mismatch_rejected(self):
        params = network_to_params(_tiny_network())
        params["features"] = 99
        with pytest.raises(SpecError, match="feature schema"):
            network_from_params(params)

    def test_unknown_activation_rejected(self):
        params = network_to_params(_tiny_network())
        params["activations"][0] = "softmax"
        with pytest.raises(SpecError, match="softmax"):
            network_from_params(params)

    def test_ragged_matrix_rejected(self):
        params = network_to_params(_tiny_network())
        params["weights"][0][0] = params["weights"][0][0][:-1]
        with pytest.raises(SpecError, match="rectangular"):
            network_from_params(params)

    def test_non_finite_weight_rejected(self):
        params = network_to_params(_tiny_network())
        params["weights"][0][0][0] = float("nan")
        with pytest.raises(SpecError, match="non-finite"):
            network_from_params(params)

    def test_wrong_feature_count_rejected(self):
        network = MultiLayerPerceptron(
            2, [LayerSpec(1, Activation.SIGMOID)], seed=0)
        params = network_to_params(network)
        with pytest.raises(SpecError, match="features"):
            network_from_params(params)

    def test_broken_wiring_rejected(self):
        params = network_to_params(_tiny_network())
        # Second matrix no longer matches the first layer's fan-out.
        params["weights"][1] = [[0.0, 0.0, 0.0]]
        with pytest.raises(SpecError, match="columns"):
            network_from_params(params)

    def test_multi_output_rejected(self):
        network = MultiLayerPerceptron(
            len(FEATURE_NAMES), [LayerSpec(2, Activation.SIGMOID)], seed=0)
        params = network_to_params(network)
        with pytest.raises(SpecError, match="exactly 1 neuron"):
            network_from_params(params)

    @pytest.mark.parametrize("rate", [0.0, -1.0, float("inf"), True])
    def test_bad_max_rate_rejected(self, rate):
        params = network_to_params(_tiny_network())
        params["max_rate_per_min"] = rate
        with pytest.raises(SpecError, match="max_rate_per_min"):
            network_from_params(params)

    def test_missing_activations_rejected(self):
        params = network_to_params(_tiny_network())
        del params["activations"]
        with pytest.raises(SpecError, match="parallel"):
            network_from_params(params)


class TestInference:
    def test_decide_scales_the_sigmoid_output(self):
        network = _tiny_network(seed=1)
        policy = LearnedPolicy(network, max_rate_per_min=24.0)
        obs = _obs()
        rate = policy.decide(*obs)
        assert 0.0 <= rate <= 24.0
        assert rate == policy.rate_fraction(*obs) * 24.0

    def test_output_clamped_even_for_linear_heads(self):
        # A LINEAR output layer can produce values outside [0, 1]; the
        # policy must never demand a negative or runaway rate.
        network = MultiLayerPerceptron(
            len(FEATURE_NAMES), [LayerSpec(1, Activation.LINEAR)], seed=0)
        network.set_weights([np.array([[100.0, 100.0, 100.0, 100.0,
                                        100.0]])])
        policy = LearnedPolicy(network, max_rate_per_min=24.0)
        assert policy.decide(*_obs()) == 24.0
        network.set_weights([-np.array([[100.0, 100.0, 100.0, 100.0,
                                         100.0]])])
        assert policy.decide(*_obs()) == 0.0


class TestFactories:
    def test_learned_factory_builds_from_params(self):
        params = network_to_params(_tiny_network(seed=4))
        policy = build_policy(PolicySpec("learned", params))
        assert isinstance(policy, LearnedPolicy)
        assert policy.max_rate_per_min == 24.0

    def test_learned_q_factory_quantizes(self):
        params = network_to_params(_tiny_network(seed=4))
        quantized = build_policy(PolicySpec("learned_q", params))
        assert isinstance(quantized, LearnedQPolicy)

    def test_quantized_tracks_float_inference(self):
        params = network_to_params(_tiny_network(seed=4))
        float_policy = build_policy(PolicySpec("learned", params))
        fixed_policy = build_policy(PolicySpec("learned_q", params))
        obs = _obs(time_s=7200.0, soc=0.6)
        assert (fixed_policy.rate_fraction(*obs)
                == pytest.approx(float_policy.rate_fraction(*obs), abs=0.02))

    def test_learned_q_decimal_point_must_be_int(self):
        params = network_to_params(_tiny_network())
        params["decimal_point"] = "twelve"
        with pytest.raises(SpecError, match="decimal_point"):
            build_policy(PolicySpec("learned_q", params))

    def test_learned_rejects_decimal_point(self):
        # The binary point is a fixed-point concept; the float policy
        # must refuse it instead of silently ignoring it.
        params = network_to_params(_tiny_network())
        params["decimal_point"] = 12
        with pytest.raises(SpecError, match="decimal_point"):
            build_policy(PolicySpec("learned", params))
