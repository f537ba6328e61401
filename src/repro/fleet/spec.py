"""Declarative specs for fleet-scale stochastic wearer studies.

A :class:`FleetSpec` describes a whole population experiment in one
frozen, JSON-round-trippable value: which library scenario every
wearer starts from (``base_scenario``), how many wearers
(``n_wearers``), how long they are simulated (``horizon_days``), the
master ``seed``, and the :class:`SamplerSpec` naming the registered
:class:`~repro.fleet.samplers.TimelineSampler` that perturbs each
wearer's environment.

Reproducibility contract: wearer ``i`` draws every random number from
``random.Random(seed + i)``, so any wearer's scenario can be sampled
alone, wherever it runs — in the calling process, in a pool worker or
ahead of the vector engine — and comes out identical.  The same
:class:`FleetSpec` therefore yields a bitwise-identical
:class:`~repro.fleet.result.FleetResult` on every backend and across
runs.

>>> spec = FleetSpec(name="demo", base_scenario="sunny_office_worker")
>>> FleetSpec.from_dict(spec.to_dict()) == spec
True
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import SpecError
from repro.scenarios.spec import check_mapping, check_mapping_keys

__all__ = ["SamplerSpec", "FleetSpec", "load_fleet_file"]

_PARAM_SCALARS = (bool, int, float, str)


@dataclass(frozen=True)
class SamplerSpec:
    """Timeline-sampler choice: a registered name plus keyword params.

    Any sampler in the :data:`~repro.fleet.samplers.SAMPLERS` registry
    can be named (``identity``, ``daily_jitter``, ``cloudy_streaks``,
    or a third-party ``@register_sampler`` registration); ``params``
    are passed to its factory as keyword arguments.  Param values must
    be JSON scalars so the spec survives serialization unchanged.
    """

    name: str = "identity"
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("sampler name cannot be empty")
        params = check_mapping("SamplerSpec params", self.params)
        for key, value in params.items():
            if not isinstance(key, str) or not key:
                raise SpecError(
                    f"sampler param names must be non-empty strings, "
                    f"got {key!r}")
            if not isinstance(value, _PARAM_SCALARS):
                raise SpecError(
                    f"sampler param {key!r} must be a JSON scalar "
                    f"(number, string or bool), got {type(value).__name__}")
        object.__setattr__(self, "params", dict(params))

    @property
    def label(self) -> str:
        """A compact display label.

        >>> SamplerSpec("daily_jitter", {"lux_sigma": 0.5}).label
        'daily_jitter(lux_sigma=0.5)'
        """
        if not self.params:
            return self.name
        inner = ",".join(f"{key}={self.params[key]!r}"
                         if isinstance(self.params[key], str)
                         else f"{key}={self.params[key]:g}"
                         for key in sorted(self.params))
        return f"{self.name}({inner})"

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SamplerSpec":
        data = check_mapping_keys("SamplerSpec", data, {"name", "params"})
        return cls(name=data.get("name", "identity"),
                   params=data.get("params", {}))


@dataclass(frozen=True)
class FleetSpec:
    """A named, fully-described population study.

    Attributes:
        name: fleet identifier (library key, report label, and the
            prefix of every generated wearer-scenario name).
        base_scenario: library scenario every wearer is derived from
            (see ``repro scenarios list``); supplies the template
            environment, the system (battery/harvester/policy/app) and
            the step size.
        n_wearers: population size (at least 1).
        horizon_days: simulated horizon per wearer, in days; the base
            timeline is tiled and re-sampled until it covers it.
        seed: master seed; wearer ``i`` uses ``seed + i``.
        sampler: the environment perturbation applied per wearer.
        description: one-line human-readable summary.
    """

    name: str
    base_scenario: str
    n_wearers: int = 25
    horizon_days: int = 7
    seed: int = 0
    sampler: SamplerSpec = SamplerSpec()
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("fleet name cannot be empty")
        if not self.base_scenario:
            raise SpecError("fleet base_scenario cannot be empty")
        for attr in ("n_wearers", "horizon_days", "seed"):
            value = getattr(self, attr)
            if isinstance(value, bool) or not isinstance(value, int):
                raise SpecError(
                    f"fleet {attr} must be an integer, got {value!r}")
        if self.n_wearers < 1:
            raise SpecError("a fleet needs at least one wearer")
        if self.horizon_days < 1:
            raise SpecError("fleet horizon must be at least one day")

    def replace(self, **changes: Any) -> "FleetSpec":
        """A copy with the given fields replaced (frozen-safe)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "base_scenario": self.base_scenario,
            "n_wearers": self.n_wearers,
            "horizon_days": self.horizon_days,
            "seed": self.seed,
            "sampler": self.sampler.to_dict(),
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FleetSpec":
        known = {"name", "base_scenario", "n_wearers", "horizon_days",
                 "seed", "sampler", "description"}
        data = check_mapping_keys("FleetSpec", data, known)
        if "name" not in data or "base_scenario" not in data:
            raise SpecError(
                "a FleetSpec needs at least name and base_scenario")
        kwargs: dict[str, Any] = {
            "name": data["name"],
            "base_scenario": data["base_scenario"],
        }
        for key in ("n_wearers", "horizon_days", "seed", "description"):
            if key in data:
                kwargs[key] = data[key]
        if "sampler" in data:
            kwargs["sampler"] = SamplerSpec.from_dict(data["sampler"])
        return cls(**kwargs)


def load_fleet_file(path: Any) -> FleetSpec:
    """The :class:`FleetSpec` stored in one JSON file.

    A fleet file is exactly one :meth:`FleetSpec.to_dict` payload
    (what ``repro fleet run <name> --json`` prints under ``"spec"``).
    Failures surface as :class:`~repro.errors.SpecError` naming the
    path.
    """
    # Deferred: repro.scenarios.files owns the on-disk error reporting.
    from repro.scenarios.files import load_json_payload

    payload = load_json_payload(path, what="fleet")
    try:
        return FleetSpec.from_dict(payload)
    except SpecError as exc:
        raise SpecError(f"fleet file {path}: {exc}") from None
