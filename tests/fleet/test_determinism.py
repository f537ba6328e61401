"""Seeded determinism across backends — the fleet acceptance property.

The same :class:`FleetSpec` must yield a bitwise-identical canonical
:class:`FleetResult` payload whether the wearers ran serially or on
spawned worker processes, and across repeated runs in one
interpreter.  Each wearer is sampled from its own ``seed + index``
wherever it runs, and the simulation itself is deterministic, so any
divergence here is a real ordering/serialization bug.
"""

import json

from repro.fleet import FleetRunner, FleetSpec, SamplerSpec, wearer_scenarios

FLEET = FleetSpec(name="determinism", base_scenario="sunny_office_worker",
                  n_wearers=5, horizon_days=2, seed=123,
                  sampler=SamplerSpec("cloudy_streaks"))


def test_repeated_runs_identical_in_process():
    runner = FleetRunner(backend="serial")
    payloads = {json.dumps(runner.run(FLEET).to_dict()) for _ in range(2)}
    assert len(payloads) == 1


def test_process_matches_serial_bitwise():
    """Spawned workers rebuild every wearer from JSON; the canonical
    payload must still match the serial run byte for byte."""
    serial = FleetRunner(workers=1, backend="serial").run(FLEET)
    process = FleetRunner(workers=2, backend="process").run(FLEET)
    assert json.dumps(serial.to_dict()) == json.dumps(process.to_dict())


def test_wearer_specs_survive_json_round_trip():
    """The property the process backend rests on: every generated
    wearer scenario round-trips through its dict form losslessly."""
    from repro.scenarios.spec import ScenarioSpec

    for spec in wearer_scenarios(FLEET):
        rebuilt = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
