"""What every policy study shares, whichever subject it ranks.

:class:`PolicyStudy` is one type for a scenario study and a fleet
study; each property here runs once per :class:`StudyKind`.  The
kind-specific orderings and table columns are pinned next to their
runners (``tests/policies/test_grid.py``, ``tests/fleet/test_grid.py``).
"""

import dataclasses

import pytest

from repro.errors import SpecError
from repro.fleet import FLEET_STUDY, FleetRunner, FleetSpec, SamplerSpec
from repro.policies import SCENARIO_STUDY, PolicyGrid, PolicyStudy
from repro.scenarios import ScenarioRunner, get_scenario

GRIDS = [
    PolicyGrid("energy_aware"),
    PolicyGrid("static_duty_cycle", axes={"rate_per_min": (2.0, 24.0)}),
    PolicyGrid("ewma_forecast"),
]
FLEET = FleetSpec(name="study_small", base_scenario="sunny_office_worker",
                  n_wearers=2, horizon_days=1, seed=5,
                  sampler=SamplerSpec("daily_jitter"))


def _scenario_study() -> PolicyStudy:
    return ScenarioRunner(backend="serial").run_grid(
        get_scenario("paper_indoor_worst_case"), GRIDS)


def _fleet_study() -> PolicyStudy:
    return FleetRunner(backend="vector").run_grid(FLEET, GRIDS)


@pytest.fixture(scope="module", params=[SCENARIO_STUDY, FLEET_STUDY],
                ids=["scenario", "fleet"])
def study(request) -> PolicyStudy:
    built = (_scenario_study() if request.param is SCENARIO_STUDY
             else _fleet_study())
    assert built.kind is request.param
    return built


def test_ranked_is_sorted_by_rank_key_and_stable_for_ties(study):
    # Every entry twice: each copy ties its original exactly, so a
    # stable sort keeps every original ahead of its copy.
    copies = tuple(dataclasses.replace(entry, label=f"{entry.label}#copy")
                   for entry in study.entries)
    doubled = dataclasses.replace(study, entries=study.entries + copies)
    ranked = doubled.ranked()
    keys = [study.kind.rank_key(entry.result) for entry in ranked]
    assert keys == sorted(keys)
    order = {entry.label: position
             for position, entry in enumerate(doubled.entries)}
    for before, after in zip(ranked, ranked[1:]):
        if (study.kind.rank_key(before.result)
                == study.kind.rank_key(after.result)):
            assert order[before.label] < order[after.label]
    assert len(ranked) == 2 * len(study.entries)


def test_best_is_the_first_ranked(study):
    assert study.best is study.ranked()[0]


def test_empty_study_has_no_best(study):
    empty = dataclasses.replace(study, entries=())
    with pytest.raises(SpecError, match="no best entry"):
        _ = empty.best


def test_policy_names_are_sorted_and_distinct(study):
    names = study.policy_names
    assert names == sorted(set(names))
    assert set(names) == {entry.policy.name for entry in study.entries}
    assert len(names) < len(study.entries)


def test_to_dict_keys_come_from_the_kind(study):
    payload = study.to_dict()
    assert set(payload) == {study.kind.subject, "ranking"}
    assert payload[study.kind.subject] == study.subject
    assert [row["label"] for row in payload["ranking"]] == \
        [entry.label for entry in study.ranked()]
    for row in payload["ranking"]:
        assert set(row) == {"label", "policy", study.kind.payload}


def test_format_table_has_one_row_per_entry(study):
    lines = study.format_table().splitlines()
    assert len(lines) == 2 + len(study.entries)
    assert [line.split()[1] for line in lines[2:]] == \
        [entry.label for entry in study.ranked()]
