"""Policy grid search: cartesian parameter grids and ranked studies.

A :class:`PolicyGrid` names one registered policy and the parameter
axes to sweep; its cartesian product yields one
:class:`~repro.scenarios.spec.PolicySpec` per grid point.
:class:`PolicyStudy` is the one ranked result of running those points,
whatever the subject: :meth:`PolicyStudy.from_grids` expands the grids,
runs every candidate in one batch and ranks the results by a
:class:`StudyKind`.  :data:`SCENARIO_STUDY` ranks one scenario's
outcomes (energy-neutral first, then detections delivered per day,
then the battery margin they finished with) for
:meth:`repro.scenarios.runner.ScenarioRunner.run_grid`;
:data:`repro.fleet.runner.FLEET_STUDY` ranks population results.

Scenario-layer imports are deferred inside methods so this module can
be imported from anywhere in the package without ordering constraints.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from typing import (TYPE_CHECKING, Any, Callable, Iterable, Iterator,
                    Mapping, Sequence)

from repro.errors import SpecError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenarios.spec import PolicySpec

__all__ = ["PolicyGrid", "PolicyStudy", "SCENARIO_STUDY", "StudyEntry",
           "StudyKind", "expand_grids", "grids_from_mapping",
           "policy_label"]


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
    (:meth:`PolicyStudy.from_grids`, over one scenario or over a
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
class StudyKind:
    """All that differs between a scenario study and a fleet study:
    :data:`SCENARIO_STUDY` (below) and
    :data:`repro.fleet.runner.FLEET_STUDY`.

    Attributes:
        subject: the payload key naming what was studied.
        payload: the ranking entry's key for its result.
        rank_key: result -> sort key; the smallest key ranks first.
        columns: the table's result columns after rank and policy, as
            ``(header, cell)`` pairs where ``cell(result)`` renders to
            the header's width.
    """

    subject: str
    payload: str
    rank_key: Callable[[Any], tuple]
    columns: tuple[tuple[str, Callable[[Any], str]], ...]


@dataclass(frozen=True)
class StudyEntry:
    """One evaluated candidate: its label, its policy and its result."""

    label: str
    policy: "PolicySpec"
    result: Any


@dataclass(frozen=True)
class PolicyStudy:
    """A policy grid evaluated on one subject, ranked best-first.

    Attributes:
        subject: the studied scenario's or fleet's name.
        entries: one entry per candidate, in grid order.
        kind: what the results are and how they rank and print.
        backend: the backend that ran the batch (provenance; not part
            of the canonical dict).
        wall_time_s: wall-clock of that batch (ditto).
    """

    subject: str
    entries: tuple[StudyEntry, ...]
    kind: StudyKind
    backend: str = ""
    wall_time_s: float = 0.0

    @classmethod
    def from_grids(
            cls, kind: StudyKind, subject: str,
            grids: PolicyGrid | Iterable[PolicyGrid],
            run: Callable[[list[tuple[str, "PolicySpec"]]],
                          tuple[Sequence[Any], str, float]],
    ) -> "PolicyStudy":
        """Expand ``grids``, run every candidate in one batch, rank.

        ``run`` receives the :func:`expand_grids` ``(label, spec)``
        pairs and returns ``(results, backend, wall_time_s)`` with one
        result per candidate, in order.
        """
        candidates = expand_grids(grids)
        results, backend, wall_time_s = run(candidates)
        entries = tuple(
            StudyEntry(label=label, policy=policy, result=result)
            for (label, policy), result in zip(candidates, results))
        return cls(subject=subject, entries=entries, kind=kind,
                   backend=backend, wall_time_s=wall_time_s)

    def ranked(self) -> list[StudyEntry]:
        """Entries best-first by the kind's rank key (stable for
        exact ties)."""
        return sorted(self.entries,
                      key=lambda entry: self.kind.rank_key(entry.result))

    @property
    def best(self) -> StudyEntry:
        """The top-ranked candidate."""
        if not self.entries:
            raise SpecError(
                f"empty {self.kind.subject} study has no best entry")
        return self.ranked()[0]

    @property
    def policy_names(self) -> list[str]:
        """Distinct policy names evaluated, sorted."""
        return sorted({entry.policy.name for entry in self.entries})

    def to_dict(self) -> dict[str, Any]:
        """Canonical payload: ranking only, no timing provenance — a
        pure function of (subject, grids), identical on every backend,
        so ``--json`` output and stored search payloads never drift."""
        return {
            self.kind.subject: self.subject,
            "ranking": [{"label": entry.label,
                         "policy": entry.policy.to_dict(),
                         self.kind.payload: entry.result.to_dict()}
                        for entry in self.ranked()],
        }

    def format_table(self) -> str:
        """A fixed-width best-first ranking report."""
        columns = self.kind.columns
        header = " ".join([f"{'rank':>4s} {'policy':42s}",
                           *(title for title, _ in columns)])
        lines = [header, "-" * len(header)]
        for position, entry in enumerate(self.ranked(), start=1):
            lines.append(" ".join([f"{position:4d} {entry.label:42s}",
                                   *(cell(entry.result)
                                     for _, cell in columns)]))
        return "\n".join(lines)


#: One scenario under every candidate: energy-neutral outcomes first,
#: then detections delivered per day, then the final state of charge.
SCENARIO_STUDY = StudyKind(
    subject="scenario",
    payload="outcome",
    rank_key=lambda o: (not o.energy_neutral, -o.detections_per_day,
                        -o.final_soc),
    columns=(
        (f"{'neutral':>7s}",
         lambda o: f"{'yes' if o.energy_neutral else 'NO':>7s}"),
        (f"{'det/day':>9s}", lambda o: f"{o.detections_per_day:9.0f}"),
        (f"{'SoC end':>8s}", lambda o: f"{100 * o.final_soc:7.1f}%"),
    ),
)
