"""Declarative specs for a whole simulated system and scenario.

A :class:`ScenarioSpec` is the serializable description of one
day-in-the-life experiment: which harvester chain, battery, manager
policy and application to build (referenced by registry name, see
:mod:`repro.scenarios.registry`), the environment timeline to drive
them with, and the horizon/step to run.  Specs are frozen dataclasses
with lossless ``to_dict``/``from_dict`` JSON round-tripping, so a
scenario can be named, stored, swept and shipped between processes.

The spec layer deliberately knows nothing about the component classes
themselves — :mod:`repro.scenarios.builder` turns a spec into a live
:class:`repro.core.simulation.DaySimulation`.

>>> spec = ScenarioSpec(name="demo",
...                     timeline=TimelineSpec(name="paper_indoor_day"))
>>> ScenarioSpec.from_dict(spec.to_dict()) == spec
True
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass, fields
from typing import Any, Mapping

from repro.errors import SpecError
from repro.power.loads import SYSTEM_SLEEP_W

__all__ = [
    "canonical_json",
    "canonical_json_bytes",
    "spec_digest",
    "check_mapping",
    "check_mapping_keys",
    "check_finite",
    "merge_numeric_params",
    "SegmentSpec",
    "TimelineSpec",
    "FaultSpec",
    "FAULT_KINDS",
    "BatterySpec",
    "PolicySpec",
    "AppSpec",
    "SystemSpec",
    "ScenarioSpec",
]


def canonical_json_bytes(obj: Any) -> bytes:
    """The one canonical JSON encoding of a spec/result payload.

    Sorted keys, compact separators, ASCII-only, NaN/Infinity rejected
    — so equal payloads encode to equal bytes on every platform and
    Python version.  Objects with a ``to_dict`` method are serialized
    through it; everything else must already be JSON-compatible.

    This is the single encoder shared by everything that stores or
    compares spec/result JSON: the content-addressed result store's
    keys and cached payloads (:mod:`repro.serve.store`), the CLI's
    ``--json``/``--out`` emission, canonical ``FleetResult`` payload
    comparisons and shard files.  Hand-rolled ``json.dumps`` with
    ad-hoc settings is how byte-identity contracts rot.

    >>> canonical_json_bytes({"b": 1, "a": [True, None]})
    b'{"a":[true,null],"b":1}'
    """
    payload = obj.to_dict() if hasattr(obj, "to_dict") else obj
    try:
        return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                          ensure_ascii=True, allow_nan=False).encode("ascii")
    except ValueError as exc:
        raise SpecError(
            f"payload is not canonically JSON-serializable: {exc}") from None


def canonical_json(obj: Any) -> str:
    """:func:`canonical_json_bytes` as text (what the CLI prints).

    >>> canonical_json({"b": 1, "a": 2})
    '{"a":2,"b":1}'
    """
    return canonical_json_bytes(obj).decode("ascii")


def spec_digest(obj: Any) -> str:
    """SHA-256 hex digest of a payload's canonical JSON bytes.

    The content address of a spec (or any ``to_dict``-able value):
    because the encoding is canonical, equal specs digest identically
    across processes, machines and runs — the key contract of the
    result store.

    >>> spec_digest({"a": 1}) == spec_digest({"a": 1})
    True
    >>> len(spec_digest({"a": 1}))
    64
    """
    return hashlib.sha256(canonical_json_bytes(obj)).hexdigest()


def check_mapping(what: str, data: Any) -> Mapping[str, Any]:
    """``data`` itself if it is a mapping, else a SpecError naming ``what``."""
    if not isinstance(data, Mapping):
        raise SpecError(f"{what} must be a mapping, got {type(data).__name__}")
    return data


def check_finite(what: str, value: Any) -> None:
    """Reject a non-finite number with a SpecError naming ``what``.

    ``abs(value) <= max`` fails for NaN and +/-inf and, unlike
    ``math.isfinite`` (which overflows), for JSON integers past the
    float range.
    """
    if not abs(value) <= sys.float_info.max:
        raise SpecError(f"{what} must be finite, got {value!r}")


def merge_numeric_params(name: str, kind: str, params: Mapping[str, Any],
                         defaults: Mapping[str, Any]) -> dict[str, Any]:
    """``defaults`` overlaid with ``params``, every knob a finite number.

    The one merge behind every registry whose knobs are all numeric
    (policies, fleet samplers, chaos axes; ``kind`` names which).  A
    spec admits any JSON scalar, so an unknown key, a non-number or a
    non-finite value fails here with the knob named, instead of as a
    ``TypeError`` in a comparison or a mid-run error far from the spec.
    """
    unknown = set(params) - set(defaults)
    if unknown:
        raise SpecError(
            f"unknown {name!r} {kind} params: {sorted(unknown)} "
            f"(known: {sorted(defaults)})")
    for key, value in params.items():
        what = f"{name} {kind} param {key!r}"
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SpecError(f"{what} must be a number, got {value!r}")
        check_finite(what, value)
    merged = dict(defaults)
    merged.update(params)
    return merged


def check_mapping_keys(what: str, data: Any, known,
                       required=()) -> Mapping[str, Any]:
    """Validate a ``from_dict`` payload's key set, uniformly.

    The shared guard every spec/result ``from_dict`` in the codebase
    uses: ``data`` must be a mapping, carry no keys outside ``known``
    and none missing from ``required`` — violations raise
    :class:`~repro.errors.SpecError` naming ``what`` and the key sets,
    so a typo in a JSON file fails with the menu in hand.
    """
    data = check_mapping(what, data)
    unknown = set(data) - set(known)
    if unknown:
        raise SpecError(
            f"unknown {what} keys: {sorted(unknown)} "
            f"(known: {sorted(known)})")
    missing = set(required) - set(data)
    if missing:
        raise SpecError(f"missing {what} keys: {sorted(missing)}")
    return data


def _from_mapping(cls, data: Any):
    """Build a flat spec dataclass from a mapping, rejecting unknown keys."""
    data = check_mapping_keys(cls.__name__, data,
                              {f.name for f in fields(cls)})
    return cls(**data)


@dataclass(frozen=True)
class SegmentSpec:
    """One piecewise-constant environment segment, fully inline.

    Attributes:
        duration_s: how long the conditions last.
        lux: illuminance at the panel.
        ambient_c: air temperature at the wrist.
        skin_c: skin temperature under the TEG.
        wind_ms: air speed over the watch.
        label: optional human-readable tag for reports.
    """

    duration_s: float
    lux: float
    ambient_c: float
    skin_c: float
    wind_ms: float = 0.0
    label: str = ""

    def __post_init__(self) -> None:
        for name in ("duration_s", "lux", "ambient_c", "skin_c", "wind_ms"):
            check_finite(f"segment {name}", getattr(self, name))
        if self.duration_s <= 0:
            raise SpecError("segment duration must be positive")
        if self.lux < 0:
            raise SpecError("segment illuminance cannot be negative")
        if self.wind_ms < 0:
            raise SpecError("segment wind speed cannot be negative")

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SegmentSpec":
        return _from_mapping(cls, data)


@dataclass(frozen=True)
class TimelineSpec:
    """The environment over the horizon: a registry name or inline segments.

    Exactly one of the two forms must be used:

    * ``name`` — a timeline registered in
      :data:`repro.scenarios.registry.TIMELINES`;
    * ``segments`` — an explicit ordered tuple of :class:`SegmentSpec`,
      self-contained and registry-independent.
    """

    name: str = ""
    segments: tuple[SegmentSpec, ...] = ()

    def __post_init__(self) -> None:
        if bool(self.name) == bool(self.segments):
            raise SpecError(
                "a TimelineSpec needs exactly one of a registry name "
                "or inline segments"
            )
        if self.segments:
            object.__setattr__(self, "segments", tuple(self.segments))

    def to_dict(self) -> dict[str, Any]:
        if self.name:
            return {"name": self.name}
        return {"segments": [seg.to_dict() for seg in self.segments]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TimelineSpec":
        data = check_mapping("TimelineSpec", data)
        unknown = set(data) - {"name", "segments"}
        if unknown:
            raise SpecError(f"unknown TimelineSpec keys: {sorted(unknown)}")
        segments = tuple(SegmentSpec.from_dict(seg)
                         for seg in data.get("segments", ()))
        return cls(name=data.get("name", ""), segments=segments)


#: Fault kinds the chaos layer can inject into the engine.
FAULT_KINDS = ("sensor_dropout", "harvester_derate", "load_spike")


@dataclass(frozen=True)
class FaultSpec:
    """One fault window injected into the simulation.

    Attributes:
        kind: what breaks — one of :data:`FAULT_KINDS`:

            * ``"sensor_dropout"`` — the detection pipeline is dead for
              the window: no detections execute and none accumulate on
              the carry (``magnitude`` unused, must stay ``0``);
            * ``"harvester_derate"`` — harvest intake is scaled by
              ``magnitude`` ∈ [0, 1] (``0`` is total occlusion,
              overlapping derates multiply);
            * ``"load_spike"`` — an extra parasitic draw of
              ``magnitude`` watts (> 0) on top of sleep power
              (overlapping spikes add).
        start_s: window start, seconds from the run start.
        duration_s: window length (must be positive).
        magnitude: per-kind parameter, see above.
    """

    kind: str
    start_s: float
    duration_s: float
    magnitude: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise SpecError(
                f"unknown fault kind {self.kind!r} "
                f"(known: {list(FAULT_KINDS)})")
        if self.start_s < 0:
            raise SpecError("fault start_s cannot be negative")
        if self.duration_s <= 0:
            raise SpecError("fault duration_s must be positive")
        if self.kind == "sensor_dropout" and self.magnitude != 0.0:
            raise SpecError(
                "sensor_dropout faults take no magnitude (leave it 0)")
        if self.kind == "harvester_derate" and not 0.0 <= self.magnitude <= 1.0:
            raise SpecError(
                f"harvester_derate magnitude is the remaining intake "
                f"fraction and must lie in [0, 1], got {self.magnitude!r}")
        if self.kind == "load_spike" and not self.magnitude > 0.0:
            raise SpecError(
                f"load_spike magnitude is extra watts and must be "
                f"positive, got {self.magnitude!r}")

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        return _from_mapping(cls, data)


@dataclass(frozen=True)
class BatterySpec:
    """Storage cell choice (by registry kind) and its parameters.

    ``capacity_fade`` is the chaos aging axis: the fraction of
    nameplate capacity irreversibly lost, in [0, 1).  It is omitted
    from ``to_dict`` when zero so every pre-aging spec keeps its
    canonical JSON bytes (and therefore its result-store digest).
    """

    kind: str = "lipo"
    capacity_mah: float = 120.0
    initial_soc: float = 0.5
    internal_resistance_ohm: float = 0.35
    charge_efficiency: float = 0.98
    capacity_fade: float = 0.0

    def __post_init__(self) -> None:
        if not self.kind:
            raise SpecError("battery kind cannot be empty")
        for name in ("capacity_mah", "internal_resistance_ohm",
                     "charge_efficiency"):
            check_finite(f"battery {name}", getattr(self, name))
        if not 0.0 <= self.initial_soc <= 1.0:
            raise SpecError("battery initial_soc must lie in [0, 1]")
        if not 0.0 <= self.capacity_fade < 1.0:
            raise SpecError(
                f"battery capacity_fade must lie in [0, 1), "
                f"got {self.capacity_fade!r}")

    def to_dict(self) -> dict[str, Any]:
        data = dataclasses.asdict(self)
        if self.capacity_fade == 0.0:
            del data["capacity_fade"]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BatterySpec":
        return _from_mapping(cls, data)


#: Legacy (pre-policy-protocol) PolicySpec keys, recognized only to
#: point old payloads at the redesigned form.
_LEGACY_POLICY_KEYS = frozenset({
    "kind", "min_rate_per_min", "max_rate_per_min", "low_soc", "high_soc",
    "neutrality_margin",
})

_PARAM_SCALARS = (bool, int, float, str)

#: Ceilings for nested-array policy params (trained-policy weight
#: blobs).  The scalar budget bounds the canonical JSON body a spec
#: can produce — a ``learned`` MLP of a few hundred weights uses well
#: under 1% of it — and the depth guard turns a pathologically nested
#: payload into a :class:`SpecError` instead of deep recursion.
MAX_PARAM_SCALARS = 65_536
MAX_PARAM_DEPTH = 8


def _check_param_value(key: str, value: Any, depth: int,
                       budget: list[int]) -> Any:
    """Validate one param value: a JSON scalar or nested scalar arrays.

    Returns the normalized value (sequences become plain lists, so two
    specs built from tuples and lists compare and serialize equal) and
    charges every scalar leaf against the per-spec ``budget``.
    """
    if isinstance(value, _PARAM_SCALARS):
        budget[0] += 1
        if budget[0] > MAX_PARAM_SCALARS:
            raise SpecError(
                f"policy params exceed {MAX_PARAM_SCALARS} scalar values "
                f"(param {key!r} crosses the cap); weight blobs larger "
                f"than this cannot round-trip as a PolicySpec")
        return value
    if isinstance(value, (list, tuple)):
        if depth >= MAX_PARAM_DEPTH:
            raise SpecError(
                f"policy param {key!r} nests arrays deeper than "
                f"{MAX_PARAM_DEPTH} levels")
        return [_check_param_value(key, item, depth + 1, budget)
                for item in value]
    raise SpecError(
        f"policy param {key!r} must be a JSON scalar (number, string "
        f"or bool) or a nested array of scalars, "
        f"got {type(value).__name__}")


@dataclass(frozen=True)
class PolicySpec:
    """Power-policy choice: a registered name plus its keyword params.

    Any policy in the ``POLICIES`` registry can be named
    (``energy_aware``, ``static_duty_cycle``, ``ewma_forecast``,
    ``oracle_lookahead``, ``learned``, or a third-party registration);
    ``params`` are passed to its factory as keyword arguments, so the
    spec stays JSON-round-trippable for every policy rather than
    hard-coding one policy's threshold fields.  Param values must be
    JSON scalars (numbers, strings, booleans) or nested arrays of
    scalars — the latter carry trained-policy weight blobs, capped at
    ``MAX_PARAM_SCALARS`` total scalars — so specs survive the process
    backend unchanged.
    """

    name: str = "energy_aware"
    params: Mapping[str, Any] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("policy name cannot be empty")
        params = check_mapping("PolicySpec params", self.params)
        budget = [0]
        checked = {}
        for key, value in params.items():
            if not isinstance(key, str) or not key:
                raise SpecError(
                    f"policy param names must be non-empty strings, "
                    f"got {key!r}")
            checked[key] = _check_param_value(key, value, 0, budget)
        object.__setattr__(self, "params", checked)

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PolicySpec":
        data = check_mapping("PolicySpec", data)
        unknown = set(data) - {"name", "params"}
        if unknown & _LEGACY_POLICY_KEYS:
            raise SpecError(
                f"legacy PolicySpec keys {sorted(unknown & _LEGACY_POLICY_KEYS)}: "
                "the policy layer was redesigned around named policies — use "
                "{'name': <registered policy>, 'params': {...}}, e.g. "
                "{'name': 'energy_aware', 'params': {'max_rate_per_min': 24.0}}")
        if unknown:
            raise SpecError(
                f"unknown PolicySpec keys: {sorted(unknown)} "
                f"(known: ['name', 'params'])")
        return cls(name=data.get("name", "energy_aware"),
                   params=data.get("params", {}))


@dataclass(frozen=True)
class AppSpec:
    """Application choice (by registry kind) plus network/processor names."""

    kind: str = "stress_detection"
    network: str = "network_a"
    processor: str = "ri5cy_multi"

    def __post_init__(self) -> None:
        if not self.kind:
            raise SpecError("app kind cannot be empty")

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AppSpec":
        return _from_mapping(cls, data)


@dataclass(frozen=True)
class SystemSpec:
    """The buildable watch: harvester chain, storage, policy, workload."""

    harvester: str = "calibrated_dual"
    battery: BatterySpec = BatterySpec()
    policy: PolicySpec = PolicySpec()
    app: AppSpec = AppSpec()
    sleep_power_w: float = SYSTEM_SLEEP_W

    def __post_init__(self) -> None:
        if not self.harvester:
            raise SpecError("harvester name cannot be empty")
        check_finite("system sleep_power_w", self.sleep_power_w)
        if self.sleep_power_w < 0:
            raise SpecError("sleep power cannot be negative")

    def to_dict(self) -> dict[str, Any]:
        return {
            "harvester": self.harvester,
            "battery": self.battery.to_dict(),
            "policy": self.policy.to_dict(),
            "app": self.app.to_dict(),
            "sleep_power_w": self.sleep_power_w,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SystemSpec":
        data = check_mapping("SystemSpec", data)
        unknown = set(data) - {"harvester", "battery", "policy", "app",
                               "sleep_power_w"}
        if unknown:
            raise SpecError(f"unknown SystemSpec keys: {sorted(unknown)}")
        kwargs: dict[str, Any] = {}
        if "harvester" in data:
            kwargs["harvester"] = data["harvester"]
        if "battery" in data:
            kwargs["battery"] = BatterySpec.from_dict(data["battery"])
        if "policy" in data:
            kwargs["policy"] = PolicySpec.from_dict(data["policy"])
        if "app" in data:
            kwargs["app"] = AppSpec.from_dict(data["app"])
        if "sleep_power_w" in data:
            kwargs["sleep_power_w"] = data["sleep_power_w"]
        return cls(**kwargs)


@dataclass(frozen=True)
class ScenarioSpec:
    """A named, fully-described day-in-the-life experiment.

    Attributes:
        name: scenario identifier (library key, report label).
        timeline: the environment over the horizon.
        system: the watch to build.
        step_s: simulation step size.
        duration_s: horizon override; ``None`` runs the whole timeline.
        description: one-line human-readable summary.
        trace: per-step trace retention, as the string form of
            :class:`repro.core.simulation.TraceMode` (``"full"``,
            ``"none"``, ``"decimated:<n>"``).  Summary totals are
            exact in every mode; sweeps over long horizons should use
            ``"none"`` so no per-step trace is allocated.
        faults: chaos fault windows injected into the run (see
            :class:`FaultSpec`); empty for a healthy system.  Omitted
            from ``to_dict`` when empty so fault-free specs keep their
            pre-chaos canonical JSON bytes.
    """

    name: str
    timeline: TimelineSpec
    system: SystemSpec = SystemSpec()
    step_s: float = 60.0
    duration_s: float | None = None
    description: str = ""
    trace: str = "full"
    faults: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        for fault in self.faults:
            if not isinstance(fault, FaultSpec):
                raise SpecError(
                    f"scenario faults must be FaultSpec instances, "
                    f"got {type(fault).__name__}")
        if not self.name:
            raise SpecError("scenario name cannot be empty")
        check_finite("scenario step_s", self.step_s)
        if self.duration_s is not None:
            check_finite("scenario duration_s", self.duration_s)
        if self.step_s <= 0:
            raise SpecError("scenario step size must be positive")
        if self.duration_s is not None and self.duration_s <= 0:
            raise SpecError("scenario duration must be positive when given")
        # Validate eagerly so a bad trace string fails at spec time,
        # not at run time.  Deferred import: the engine module is a
        # consumer of specs, not a dependency of the spec layer.
        from repro.core.simulation import TraceMode
        from repro.errors import SimulationError
        try:
            TraceMode.parse(self.trace)
        except SimulationError as exc:
            raise SpecError(str(exc)) from None
        if not isinstance(self.trace, str):
            object.__setattr__(self, "trace", str(self.trace))

    def to_dict(self) -> dict[str, Any]:
        data = {
            "name": self.name,
            "timeline": self.timeline.to_dict(),
            "system": self.system.to_dict(),
            "step_s": self.step_s,
            "duration_s": self.duration_s,
            "description": self.description,
            "trace": self.trace,
        }
        if self.faults:
            data["faults"] = [fault.to_dict() for fault in self.faults]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        data = check_mapping("ScenarioSpec", data)
        unknown = set(data) - {"name", "timeline", "system", "step_s",
                               "duration_s", "description", "trace", "faults"}
        if unknown:
            raise SpecError(f"unknown ScenarioSpec keys: {sorted(unknown)}")
        if "name" not in data or "timeline" not in data:
            raise SpecError("a ScenarioSpec needs at least name and timeline")
        kwargs: dict[str, Any] = {
            "name": data["name"],
            "timeline": TimelineSpec.from_dict(data["timeline"]),
        }
        if "system" in data:
            kwargs["system"] = SystemSpec.from_dict(data["system"])
        if "faults" in data:
            kwargs["faults"] = tuple(FaultSpec.from_dict(fault)
                                     for fault in data["faults"])
        for key in ("step_s", "duration_s", "description", "trace"):
            if key in data:
                kwargs[key] = data[key]
        return cls(**kwargs)
