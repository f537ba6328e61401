"""Policy grid search: cartesian parameter grids and ranked results.

A :class:`PolicyGrid` names one registered policy and the parameter
axes to sweep; its cartesian product yields one
:class:`~repro.scenarios.spec.PolicySpec` per grid point.
:meth:`repro.scenarios.runner.ScenarioRunner.run_grid` runs one
scenario under every point (reusing the serial/process sweep
backends) and returns a :class:`GridResult` that ranks the policies by
how well they kept the watch alive and working: energy-neutral
outcomes first, then detections delivered per day, then the battery
margin they finished with.

Scenario-layer imports are deferred inside methods so this module can
be imported from anywhere in the package without ordering constraints.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping

from repro.errors import SpecError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenarios.runner import ScenarioOutcome
    from repro.scenarios.spec import PolicySpec

__all__ = ["PolicyGrid", "GridEntry", "GridResult", "expand_grids",
           "grids_from_mapping", "policy_label"]


def policy_label(spec: "PolicySpec") -> str:
    """A compact, stable label for one grid point.

    ``energy_aware`` for a default point,
    ``static_duty_cycle(rate_per_min=12)`` for a parameterized one.

    >>> from repro.scenarios.spec import PolicySpec
    >>> policy_label(PolicySpec("energy_aware"))
    'energy_aware'
    >>> policy_label(PolicySpec("static_duty_cycle",
    ...                         {"rate_per_min": 12.0}))
    'static_duty_cycle(rate_per_min=12)'

    Nested-array params (trained-policy weight blobs) are summarized
    by their scalar count instead of rendered verbatim:

    >>> policy_label(PolicySpec("energy_aware",
    ...                         {"low_soc": 0.1, "table": [[1, 2], [3, 4]]}))
    'energy_aware(low_soc=0.1,table=<4 values>)'
    """
    if not spec.params:
        return spec.name

    def _leaves(value: Any) -> int:
        if isinstance(value, list):
            return sum(_leaves(item) for item in value)
        return 1

    def _text(value: Any) -> str:
        if isinstance(value, list):
            return f"<{_leaves(value)} values>"
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return f"{value:g}"
        return str(value)

    inner = ",".join(f"{key}={_text(spec.params[key])}"
                     for key in sorted(spec.params))
    return f"{spec.name}({inner})"


@dataclass(frozen=True)
class PolicyGrid:
    """The cartesian product of parameter values for one policy.

    Attributes:
        name: registered policy name (see ``POLICIES.names()``).
        base: params fixed across every point.
        axes: param name -> sequence of values to sweep.  Empty axes
            mean a single point with just the ``base`` params.
    """

    name: str
    base: Mapping[str, Any] = field(default_factory=dict)
    axes: Mapping[str, tuple] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("a PolicyGrid needs a policy name")
        if not isinstance(self.base, Mapping):
            raise SpecError("PolicyGrid base must be a mapping of params")
        if not isinstance(self.axes, Mapping):
            raise SpecError("PolicyGrid axes must map param name -> values")
        axes: dict[str, tuple] = {}
        for key, values in self.axes.items():
            if isinstance(values, (str, bytes)) or not hasattr(values,
                                                               "__iter__"):
                raise SpecError(
                    f"PolicyGrid axis {key!r} needs a sequence of values, "
                    f"got {values!r}")
            values = tuple(values)
            if not values:
                raise SpecError(f"PolicyGrid axis {key!r} has no values")
            axes[key] = values
        overlap = set(axes) & set(self.base)
        if overlap:
            raise SpecError(
                f"PolicyGrid params cannot be both fixed and swept: "
                f"{sorted(overlap)}")
        object.__setattr__(self, "base", dict(self.base))
        object.__setattr__(self, "axes", axes)

    def specs(self) -> list["PolicySpec"]:
        """One :class:`PolicySpec` per grid point, axes in given order."""
        from repro.scenarios.spec import PolicySpec

        if not self.axes:
            return [PolicySpec(name=self.name, params=dict(self.base))]
        keys = list(self.axes)
        points = []
        for combo in product(*(self.axes[key] for key in keys)):
            params = dict(self.base)
            params.update(zip(keys, combo))
            points.append(PolicySpec(name=self.name, params=params))
        return points

    def __len__(self) -> int:
        count = 1
        for values in self.axes.values():
            count *= len(values)
        return count

    def __iter__(self) -> Iterator["PolicySpec"]:
        return iter(self.specs())


def expand_grids(
        grids: PolicyGrid | Iterable[PolicyGrid],
) -> list[tuple[str, "PolicySpec"]]:
    """Flatten one or more grids into unique ``(label, spec)`` pairs.

    The shared candidate-enumeration step of every grid search
    (:meth:`repro.scenarios.runner.ScenarioRunner.run_grid` over one
    scenario, :meth:`repro.fleet.runner.FleetRunner.run_grid` over a
    population): grid points are concatenated in grid order, true
    duplicates — identical ``(name, params)`` across all grids — are
    rejected, and distinct points whose compact ``%g`` labels round
    together get a ``#n`` suffix so downstream batch names stay unique.

    >>> [label for label, _ in expand_grids(
    ...     PolicyGrid("static_duty_cycle",
    ...                axes={"rate_per_min": (2.0, 24.0)}))]
    ['static_duty_cycle(rate_per_min=2)', 'static_duty_cycle(rate_per_min=24)']
    """
    from repro.scenarios.spec import canonical_json

    grids = [grids] if isinstance(grids, PolicyGrid) else list(grids)
    if not grids:
        raise SpecError("a policy grid search needs at least one grid")
    points = [point for grid in grids for point in grid.specs()]
    # True duplicates are identical (name, params) points — judged on
    # the canonical JSON of the specs themselves, since the compact %g
    # labels can collide for values that differ past six significant
    # digits (and params may hold unhashable weight arrays).
    keys = [canonical_json(point.to_dict()) for point in points]
    key_counts = Counter(keys)
    duplicates = sorted({policy_label(point)
                         for point, key in zip(points, keys)
                         if key_counts[key] > 1})
    if duplicates:
        raise SpecError(f"duplicate policy grid points: {duplicates}")
    labels = [policy_label(point) for point in points]
    label_counts = Counter(labels)
    if len(label_counts) != len(labels):
        # Distinct points whose display labels rounded together:
        # suffix a position so downstream names stay unique.
        seen: Counter = Counter()
        for index, label in enumerate(labels):
            if label_counts[label] > 1:
                seen[label] += 1
                labels[index] = f"{label}#{seen[label]}"
    return list(zip(labels, points))


def grids_from_mapping(mapping: Any,
                       policy_names: Iterable[str] = (),
                       what: str = "grid mapping") -> list[PolicyGrid]:
    """:class:`PolicyGrid` list from a JSON-shaped grid request.

    The shared deserialization step behind ``repro search --grid``,
    ``repro fleet search --grid`` and the ``/search``/``/fleet/search``
    HTTP endpoints: ``mapping`` maps a registered policy name to its
    ``{param: [values, ...]}`` axes (scalar values are promoted to
    one-point axes), and ``policy_names`` appends default-parameter
    grids.  Unknown policy names raise
    :class:`~repro.errors.SpecError` listing the registered menu;
    malformed shapes raise naming ``what`` so CLI and HTTP callers both
    fail with a pointed message.
    """
    # Deferred: the registry lives above this module in import order.
    from repro.policies.learned import unknown_policy_message
    from repro.scenarios.registry import POLICIES

    def _check_policy(name: str) -> str:
        if name not in POLICIES:
            raise SpecError(unknown_policy_message(name))
        return name

    grids: list[PolicyGrid] = []
    if mapping is not None:
        if not isinstance(mapping, Mapping):
            raise SpecError(f"{what} must be a JSON object mapping policy "
                            "name to {param: [values, ...]} axes")
        for name, axes in mapping.items():
            if not isinstance(axes, Mapping):
                raise SpecError(
                    f"{what} entry for {name!r} must map params to value "
                    f"lists, got {axes!r}")
            grids.append(PolicyGrid(_check_policy(name), axes={
                key: tuple(values) if isinstance(values, list) else (values,)
                for key, values in axes.items()
            }))
    for name in policy_names or ():
        grids.append(PolicyGrid(_check_policy(name)))
    return grids


@dataclass(frozen=True)
class GridEntry:
    """One evaluated grid point: the policy and its scenario outcome."""

    label: str
    policy: "PolicySpec"
    outcome: "ScenarioOutcome"

    @property
    def rank_key(self) -> tuple:
        """Sort key: neutral first, most detections, best final SoC."""
        return (not self.outcome.energy_neutral,
                -self.outcome.detections_per_day,
                -self.outcome.final_soc)

    def to_dict(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "policy": self.policy.to_dict(),
            "outcome": self.outcome.to_dict(),
        }


@dataclass(frozen=True)
class GridResult:
    """Outcome of a policy grid search over one scenario.

    Attributes:
        scenario: the swept scenario's name.
        entries: one entry per grid point, in grid order.
        backend: the runner backend that executed the sweep
            (provenance; not part of the canonical dict).
        wall_time_s: wall-clock spent executing the sweep (ditto).
    """

    scenario: str
    entries: tuple[GridEntry, ...]
    backend: str = ""
    wall_time_s: float = 0.0

    def ranked(self) -> list[GridEntry]:
        """Entries best-first: energy-neutral, then detections/day,
        then final state of charge (stable for exact ties)."""
        return sorted(self.entries, key=lambda entry: entry.rank_key)

    @property
    def best(self) -> GridEntry:
        """The top-ranked grid point."""
        if not self.entries:
            raise SpecError("empty grid result has no best entry")
        return self.ranked()[0]

    @property
    def policy_names(self) -> list[str]:
        """Distinct policy names evaluated, sorted."""
        return sorted({entry.policy.name for entry in self.entries})

    def to_dict(self) -> dict[str, Any]:
        """Canonical payload: ranking only, no timing provenance.

        A pure function of (scenario, grids) — identical on every
        backend and run — so ``repro search --json`` output and the
        result store's cached ``/search`` payloads are byte-identical
        under the shared canonical encoder.  ``backend`` and
        ``wall_time_s`` stay on the object.
        """
        return {
            "scenario": self.scenario,
            "ranking": [entry.to_dict() for entry in self.ranked()],
        }

    def format_table(self) -> str:
        """A fixed-width best-first ranking report."""
        header = (f"{'rank':>4s} {'policy':42s} {'neutral':>7s} "
                  f"{'det/day':>9s} {'SoC end':>8s}")
        lines = [header, "-" * len(header)]
        for position, entry in enumerate(self.ranked(), start=1):
            o = entry.outcome
            lines.append(
                f"{position:4d} {entry.label:42s} "
                f"{'yes' if o.energy_neutral else 'NO':>7s} "
                f"{o.detections_per_day:9.0f} {100 * o.final_soc:7.1f}%")
        return "\n".join(lines)
