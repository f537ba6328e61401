"""The oracle-supervised learned policy: a tiny MLP behind the protocol.

The paper's InfiniWolf runs FANN-trained networks on-MCU; tinyMAN
(PAPERS.md) shows a *learned* energy manager beating hand-tuned
heuristics on harvesting wearables.  This module is the inference half
of that idea — :mod:`repro.learn` is the training half:

* :func:`extract_features` — the encoding of ``decide``'s floats both
  halves share: time-of-day on the unit circle, state of charge, and
  harvest power scaled to O(1).  Versioned, so a trained blob can never
  be silently fed a different encoding.
* :class:`LearnedPolicy` / :class:`LearnedQPolicy` — float and
  fixed-point (``repro.quant`` path) inference: the network's single
  sigmoid output is the fraction of ``max_rate_per_min`` to run.
* ``learned`` / ``learned_q`` registered factories — weights travel
  *inside* ``PolicySpec.params`` as nested JSON arrays, so a trained
  policy rides the JSON/process-backend/serve/chaos machinery
  unchanged.

Unlike every other built-in, these policies cannot build from empty
params — the weights ARE the policy.  :func:`default_policy_names`
gives callers that enumerate "every policy at defaults" (``repro
search``, chaos campaigns) the buildable subset, and
:func:`unknown_policy_message` is the shared unknown-name error text
with the trained-policy hint.
"""

from __future__ import annotations

import math
from typing import Any, Mapping

import numpy as np

from repro.errors import SpecError
from repro.fann.activation import Activation
from repro.fann.fixedpoint import FixedPointNetwork, convert_to_fixed
from repro.fann.network import LayerSpec, MultiLayerPerceptron
from repro.policies.base import PolicyContext
from repro.scenarios.registry import POLICIES, register_policy
from repro.units import SECONDS_PER_DAY

__all__ = [
    "FEATURE_NAMES",
    "FEATURES_VERSION",
    "HARVEST_SCALE_W",
    "TRAINED_POLICY_NAMES",
    "extract_features",
    "network_to_params",
    "network_from_params",
    "LearnedPolicy",
    "LearnedQPolicy",
    "default_policy_names",
    "unknown_policy_message",
]

#: Feature-schema version stamped into trained params; bumped whenever
#: :func:`extract_features` changes shape or meaning.
FEATURES_VERSION = 1

#: What the network sees, in order.  ``tod_sin``/``tod_cos`` put the
#: time of day on the unit circle (23:59 is near 00:01), ``soc`` is the
#: battery state of charge in [0, 1], and ``harvest`` is the observed
#: battery intake scaled by :data:`HARVEST_SCALE_W`.
FEATURE_NAMES = ("tod_sin", "tod_cos", "soc", "harvest")

#: Full-scale harvest power for feature normalization: ~25 mW is the
#: top of the paper's dual-source range, so the feature lands in O(1)
#: like its siblings.
HARVEST_SCALE_W = 0.025

#: Registered policies whose params must carry trained weights — they
#: cannot build at defaults, so "run every policy" enumerations use
#: :func:`default_policy_names` instead of the raw registry.
TRAINED_POLICY_NAMES = frozenset({"learned", "learned_q"})


def extract_features(time_s: float, step_s: float, harvest_power_w: float,
                     state_of_charge: float) -> tuple[float, ...]:
    """The feature vector of one ``decide`` call, in ``FEATURE_NAMES`` order.

    Takes the policy protocol's four floats (``step_s`` is not a
    feature); the time of day is ``time_s`` modulo one day.
    """
    angle = 2.0 * math.pi * (time_s % SECONDS_PER_DAY) / SECONDS_PER_DAY
    return (math.sin(angle), math.cos(angle),
            state_of_charge,
            harvest_power_w / HARVEST_SCALE_W)


def default_policy_names() -> list[str]:
    """Registered policies that build at default (empty) params."""
    return [name for name in POLICIES.names()
            if name not in TRAINED_POLICY_NAMES]


def unknown_policy_message(name: str) -> str:
    """The shared unknown-policy error text, with the trained-policy hint."""
    trained = [n for n in POLICIES.names() if n in TRAINED_POLICY_NAMES]
    message = (f"unknown policy {name!r}; registered policies: "
               f"{POLICIES.names()}")
    if trained:
        message += (f" (note: {', '.join(repr(n) for n in trained)} need "
                    f"trained params — see `repro learn train`)")
    return message


# --- params <-> network codec ------------------------------------------------

_LEARNED_PARAM_KEYS = frozenset(
    {"features", "activations", "weights", "max_rate_per_min"})


def network_to_params(network: MultiLayerPerceptron,
                      max_rate_per_min: float = 24.0) -> dict[str, Any]:
    """Serialize a trained network into ``learned`` policy params.

    The inverse of :func:`network_from_params`: weights become nested
    JSON arrays (``float(w)`` keeps the exact IEEE value through
    ``json`` round-trips, so a retrained-then-serialized policy is
    bitwise identical), activations travel by enum value.
    """
    return {
        "features": FEATURES_VERSION,
        "activations": [spec.activation.value for spec in network.layers],
        "weights": [[[float(w) for w in row] for row in matrix]
                    for matrix in network.weights],
        "max_rate_per_min": float(max_rate_per_min),
    }


def network_from_params(params: Mapping[str, Any],
                        policy: str = "learned",
                        extra_keys: frozenset = frozenset(),
                        ) -> tuple[MultiLayerPerceptron, float]:
    """Rebuild ``(network, max_rate_per_min)`` from trained params.

    Raises :class:`~repro.errors.SpecError` on anything malformed —
    missing weights, a feature-schema mismatch, ragged matrices,
    non-finite values, or a weight chain that does not wire up —
    so a corrupted spec fails at build time with the defect named.
    """
    if not params or "weights" not in params:
        raise SpecError(
            f"{policy!r} is a trained policy: its params must carry the "
            f"'weights'/'activations' blob written by `repro learn train` "
            f"(got params {sorted(params)})")
    unknown = set(params) - _LEARNED_PARAM_KEYS - extra_keys
    if unknown:
        raise SpecError(
            f"unknown {policy!r} policy params: {sorted(unknown)} "
            f"(known: {sorted(_LEARNED_PARAM_KEYS | extra_keys)})")
    version = params.get("features", FEATURES_VERSION)
    if version != FEATURES_VERSION:
        raise SpecError(
            f"{policy} params use feature schema {version!r}, but this "
            f"build implements version {FEATURES_VERSION} "
            f"({', '.join(FEATURE_NAMES)}) — retrain with `repro learn`")
    raw_weights = params.get("weights")
    raw_activations = params.get("activations")
    if (not isinstance(raw_weights, list) or not raw_weights
            or not isinstance(raw_activations, list)
            or len(raw_activations) != len(raw_weights)):
        raise SpecError(
            f"{policy} params need parallel 'weights' and 'activations' "
            f"lists, one entry per connection layer")
    activations = []
    for value in raw_activations:
        try:
            activations.append(Activation(value))
        except ValueError:
            raise SpecError(
                f"{policy} params name unknown activation {value!r} "
                f"(known: {[a.value for a in Activation]})") from None
    matrices = []
    for layer_idx, matrix in enumerate(raw_weights):
        try:
            array = np.asarray(matrix, dtype=np.float64)
        except (TypeError, ValueError):
            raise SpecError(
                f"{policy} weight matrix {layer_idx} is not a rectangular "
                f"array of numbers") from None
        if array.ndim != 2 or array.size == 0:
            raise SpecError(
                f"{policy} weight matrix {layer_idx} must be 2-D and "
                f"non-empty, got shape {array.shape}")
        if not np.all(np.isfinite(array)):
            raise SpecError(
                f"{policy} weight matrix {layer_idx} contains non-finite "
                f"values")
        matrices.append(array)
    num_inputs = matrices[0].shape[1] - 1
    if num_inputs != len(FEATURE_NAMES):
        raise SpecError(
            f"{policy} input layer expects {num_inputs} features, but "
            f"feature schema {FEATURES_VERSION} has {len(FEATURE_NAMES)} "
            f"({', '.join(FEATURE_NAMES)})")
    fan_in = num_inputs
    for layer_idx, matrix in enumerate(matrices):
        if matrix.shape[1] != fan_in + 1:
            raise SpecError(
                f"{policy} weight matrix {layer_idx} has {matrix.shape[1]} "
                f"columns but the previous layer feeds {fan_in} (+1 bias)")
        fan_in = matrix.shape[0]
    if matrices[-1].shape[0] != 1:
        raise SpecError(
            f"{policy} output layer must have exactly 1 neuron (the rate "
            f"fraction), got {matrices[-1].shape[0]}")
    layers = [LayerSpec(matrix.shape[0], activation)
              for matrix, activation in zip(matrices, activations)]
    network = MultiLayerPerceptron(num_inputs, layers)
    network.set_weights(matrices)
    max_rate = params.get("max_rate_per_min", 24.0)
    if (isinstance(max_rate, bool) or not isinstance(max_rate, (int, float))
            or not math.isfinite(max_rate) or max_rate <= 0):
        raise SpecError(
            f"{policy} max_rate_per_min must be a positive finite number, "
            f"got {max_rate!r}")
    return network, float(max_rate)


# --- inference ---------------------------------------------------------------


class LearnedPolicy:
    """Float inference over a trained rate network.

    The network maps :func:`extract_features` to one sigmoid output —
    the fraction of ``max_rate_per_min`` to run this step.  The output
    is clamped to [0, 1] before scaling so an unconverged or LINEAR
    output layer can never demand a negative or runaway rate.

    Args:
        network: trained network (``len(FEATURE_NAMES)`` inputs, one
            output).
        max_rate_per_min: the rate the output fraction scales to.
    """

    def __init__(self, network: MultiLayerPerceptron,
                 max_rate_per_min: float) -> None:
        self.network = network
        self.max_rate_per_min = float(max_rate_per_min)

    def rate_fraction(self, time_s: float, step_s: float,
                      harvest_power_w: float,
                      state_of_charge: float) -> float:
        """The clamped network output in [0, 1] for one ``decide`` call."""
        out = self.network.forward(np.asarray(extract_features(
            time_s, step_s, harvest_power_w, state_of_charge)))
        return min(max(float(out[0]), 0.0), 1.0)

    def decide(self, time_s: float, step_s: float, harvest_power_w: float,
               state_of_charge: float) -> float:
        return self.rate_fraction(time_s, step_s, harvest_power_w,
                                  state_of_charge) * self.max_rate_per_min


class LearnedQPolicy(LearnedPolicy):
    """Fixed-point inference — the MCU-shaped deployment of ``learned``.

    Runs the same weights through the ``repro.quant``/``repro.fann``
    fixed-point path (:class:`~repro.fann.fixedpoint.FixedPointNetwork`):
    integer accumulation, table-lookup activations — exactly what the
    nRF52/Mr. Wolf firmware would execute.

    Args:
        fixed: the quantized network.
        max_rate_per_min: the rate the output fraction scales to.
    """

    def __init__(self, fixed: FixedPointNetwork,
                 max_rate_per_min: float) -> None:
        self.network = fixed
        self.max_rate_per_min = float(max_rate_per_min)


# --- registered factories ----------------------------------------------------


@register_policy("learned")
def _build_learned(params: Mapping[str, Any],
                   context: PolicyContext) -> LearnedPolicy:
    network, max_rate = network_from_params(params, "learned")
    return LearnedPolicy(network, max_rate)


@register_policy("learned_q")
def _build_learned_q(params: Mapping[str, Any],
                     context: PolicyContext) -> LearnedQPolicy:
    network, max_rate = network_from_params(
        params, "learned_q", extra_keys=frozenset({"decimal_point"}))
    decimal_point = params.get("decimal_point")
    if decimal_point is not None and (
            isinstance(decimal_point, bool)
            or not isinstance(decimal_point, int)):
        raise SpecError(
            f"learned_q decimal_point must be an integer binary-point "
            f"position, got {decimal_point!r}")
    return LearnedQPolicy(convert_to_fixed(network, decimal_point=decimal_point),
                          max_rate)
