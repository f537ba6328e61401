"""CLI tests (``python -m repro``)."""

import json
import subprocess
import sys

import pytest

from repro.cli import main
from tests.helpers import SUBPROCESS_ENV as ENV


class TestCommands:
    def test_table3_prints_anchor(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "30,210" in out
        assert "902,763" in out

    def test_table4_prints_energies(self, capsys):
        assert main(["table4"]) == 0
        out = capsys.readouterr().out
        assert "5.1" in out
        assert "21.6" in out

    def test_table1_prints_intakes(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "24.711" in out

    def test_table2_prints_intakes(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "155.4" in out

    def test_detection_budget(self, capsys):
        assert main(["detection"]) == 0
        out = capsys.readouterr().out
        assert "602.2" in out

    def test_sustainability(self, capsys):
        assert main(["sustainability"]) == 0
        out = capsys.readouterr().out
        assert "24/minute" in out

    def test_modes(self, capsys):
        assert main(["modes"]) == 0
        out = capsys.readouterr().out
        assert "raw_streaming" in out

    def test_all_runs_everything(self, capsys):
        assert main(["all"]) == 0
        out = capsys.readouterr().out
        for marker in ("Table I", "Table II", "Table III", "Table IV",
                       "Self-sustainability", "Operating modes"):
            assert marker in out

    def test_unknown_artifact_rejected(self):
        with pytest.raises(SystemExit):
            main(["table99"])


class TestScenarioCommands:
    def test_scenarios_list_names_library(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "paper_indoor_worst_case" in out
        assert "sunny_office_worker" in out

    def test_scenarios_list_prints_descriptions(self, capsys):
        """Each entry carries its one-line description, aligned."""
        from repro.scenarios import all_scenarios

        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for spec in all_scenarios():
            assert spec.description in out

    def test_simulate_prints_summary(self, capsys):
        assert main(["simulate", "paper_indoor_worst_case"]) == 0
        out = capsys.readouterr().out
        assert "paper_indoor_worst_case" in out
        assert "detections" in out
        assert "energy-neutral" in out

    def test_simulate_json_is_machine_readable(self, capsys):
        assert main(["simulate", "paper_indoor_worst_case", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["name"] == "paper_indoor_worst_case"
        assert payload["outcome"]["energy_neutral"] is True
        assert payload["outcome"]["total_detections"] > 0

    def test_simulate_unknown_scenario_errors(self, capsys):
        assert main(["simulate", "no_such_scenario"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err
        assert "paper_indoor_worst_case" in err  # suggests known names

    def test_simulate_rejects_nan_scenario_file(self, tmp_path, capsys):
        """A NaN illuminance must not run as darkness: the file is
        refused, and the error names the field."""
        from repro.scenarios import get_scenario

        payload = get_scenario("paper_indoor_worst_case").to_dict()
        payload["timeline"] = {"segments": [
            {"duration_s": 86400.0, "lux": float("nan"),
             "ambient_c": 22.0, "skin_c": 32.0}]}
        path = tmp_path / "nan_lux.json"
        path.write_text(json.dumps(payload))
        assert "NaN" in path.read_text()
        assert main(["simulate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "lux" in err

    @pytest.mark.parametrize("field", ["duration_s", "step_s"])
    def test_simulate_rejects_infinite_horizon_file(self, tmp_path, capsys,
                                                    field):
        """An ``Infinity`` horizon used to hang the run, and an
        ``Infinity`` step to run one day-long step; both are refused
        before anything runs, naming the field."""
        from repro.scenarios import get_scenario

        payload = get_scenario("paper_indoor_worst_case").to_dict()
        payload[field] = float("inf")
        path = tmp_path / "infinite.json"
        path.write_text(json.dumps(payload))
        assert "Infinity" in path.read_text()
        assert main(["simulate", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{field} must be finite" in err

    def test_sweep_bad_worker_count_errors(self, capsys):
        assert main(["sweep", "--all", "--workers", "0"]) == 2
        assert "worker count" in capsys.readouterr().err

    def test_sweep_named_scenarios(self, capsys):
        assert main(["sweep", "paper_indoor_worst_case",
                     "dead_battery_cold_start", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "paper_indoor_worst_case" in out
        assert "dead_battery_cold_start" in out
        assert "det/day" in out

    def test_sweep_requires_selection(self, capsys):
        assert main(["sweep"]) == 2

    def test_sweep_rejects_all_plus_names(self, capsys):
        assert main(["sweep", "--all", "outdoor_hiker"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_sweep_json(self, capsys):
        assert main(["sweep", "paper_indoor_worst_case", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["outcomes"]) == 1
        assert payload["outcomes"][0]["name"] == "paper_indoor_worst_case"

    def test_sweep_json_records_backend_and_wall_time(self, capsys):
        assert main(["sweep", "paper_indoor_worst_case", "night_shift",
                     "--backend", "process", "--workers", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "process"
        assert payload["wall_time_s"] > 0.0

    def test_simulate_json_reports_harvest_cache(self, capsys):
        assert main(["simulate", "paper_indoor_worst_case", "--json"]) == 0
        cache = json.loads(capsys.readouterr().out)["harvest_cache"]
        # Two distinct segments -> two model solves on the lean path.
        assert cache["misses"] == 2
        assert cache["hits"] >= 0
        assert 0.0 <= cache["hit_rate"] <= 1.0


class TestSearchCommand:
    def test_search_defaults_to_whole_policy_registry(self, capsys):
        assert main(["search", "paper_indoor_worst_case",
                     "--backend", "serial"]) == 0
        out = capsys.readouterr().out
        for name in ("energy_aware", "static_duty_cycle", "ewma_forecast",
                     "oracle_lookahead"):
            assert name in out
        assert "best:" in out

    def test_search_json_ranks_policies(self, capsys):
        assert main(["search", "paper_indoor_worst_case", "--json",
                     "--backend", "serial"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "paper_indoor_worst_case"
        # The canonical payload carries no timing provenance — it is a
        # pure function of (scenario, grids), identical on every
        # backend, which is what makes result-store hits bitwise exact.
        assert set(payload) == {"scenario", "ranking"}
        names = {entry["policy"]["name"] for entry in payload["ranking"]}
        assert len(names) >= 3

    def test_search_with_explicit_grid(self, capsys):
        grid = '{"static_duty_cycle": {"rate_per_min": [2, 24]}}'
        assert main(["search", "paper_indoor_worst_case", "--grid", grid,
                     "--backend", "serial"]) == 0
        out = capsys.readouterr().out
        assert "static_duty_cycle(rate_per_min=2)" in out
        assert "static_duty_cycle(rate_per_min=24)" in out

    def test_search_policy_flag_selects_subset(self, capsys):
        assert main(["search", "paper_indoor_worst_case",
                     "--policy", "static_duty_cycle",
                     "--backend", "serial", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [e["policy"]["name"] for e in payload["ranking"]] == \
            ["static_duty_cycle"]

    def test_search_bad_grid_json_errors(self, capsys):
        assert main(["search", "paper_indoor_worst_case",
                     "--grid", "{not json"]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_search_unknown_policy_errors_with_menu(self, capsys):
        assert main(["search", "paper_indoor_worst_case",
                     "--policy", "warp_drive"]) == 2
        err = capsys.readouterr().err
        assert "warp_drive" in err
        assert "energy_aware" in err  # suggests registered names

    def test_search_unknown_scenario_errors(self, capsys):
        assert main(["search", "no_such_scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestSweepFromJson:
    def _write_dir(self, tmp_path):
        from repro.scenarios import get_scenario

        for name in ("outdoor_hiker", "night_shift"):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(get_scenario(name).to_dict()))
        return tmp_path

    def test_sweeps_directory(self, tmp_path, capsys):
        assert main(["sweep", "--from-json",
                     str(self._write_dir(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert "outdoor_hiker" in out
        assert "night_shift" in out

    def test_missing_dir_errors(self, tmp_path, capsys):
        assert main(["sweep", "--from-json", str(tmp_path / "nope")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_empty_dir_errors(self, tmp_path, capsys):
        assert main(["sweep", "--from-json", str(tmp_path)]) == 2
        assert "no *.json" in capsys.readouterr().err

    def test_invalid_file_errors_with_path(self, tmp_path, capsys):
        (tmp_path / "bad.json").write_text("{broken")
        assert main(["sweep", "--from-json", str(tmp_path)]) == 2
        assert "bad.json" in capsys.readouterr().err

    def test_rejects_mixed_selection(self, tmp_path, capsys):
        assert main(["sweep", "--all", "--from-json", str(tmp_path)]) == 2
        assert "exactly one" in capsys.readouterr().err


class TestFleetCommands:
    def test_fleet_list_names_and_descriptions(self, capsys):
        from repro.fleet import all_fleets

        assert main(["fleet", "list"]) == 0
        out = capsys.readouterr().out
        for spec in all_fleets():
            assert spec.name in out
            assert spec.description in out

    def test_fleet_run_library_fleet(self, capsys):
        assert main(["fleet", "run", "office_cohort_week",
                     "--workers", "4"]) == 0
        out = capsys.readouterr().out
        assert "office_cohort_week" in out
        assert "energy-neutral" in out
        assert "final SoC" in out

    def test_fleet_run_json_payload(self, capsys):
        assert main(["fleet", "run", "office_cohort_week", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["name"] == "office_cohort_week"
        result = payload["result"]
        assert result["n_wearers"] == payload["spec"]["n_wearers"]
        assert set(result["final_soc"]) == {"p5", "p50", "p95", "mean"}
        # Canonical payload: provenance stays out of the JSON.
        assert "backend" not in result
        assert "wall_time_s" not in result

    def test_fleet_run_from_file(self, tmp_path, capsys):
        from repro.fleet import get_fleet

        spec = get_fleet("office_cohort_week").replace(
            name="mini", n_wearers=2, horizon_days=1)
        path = tmp_path / "mini.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert main(["fleet", "run", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["fleet"] == "mini"

    def test_fleet_run_unknown_errors_with_menu(self, capsys):
        assert main(["fleet", "run", "no_such_fleet"]) == 2
        err = capsys.readouterr().err
        assert "unknown fleet" in err
        assert "office_cohort_week" in err

    def test_fleet_compare_ranks_policies(self, tmp_path, capsys):
        from repro.fleet import get_fleet

        spec = get_fleet("office_cohort_week").replace(
            name="mini", n_wearers=3, horizon_days=1)
        path = tmp_path / "mini.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert main(["fleet", "search", str(path),
                     "--policy", "energy_aware",
                     "--policy", "static_duty_cycle"]) == 0
        out = capsys.readouterr().out
        assert "energy_aware" in out
        assert "static_duty_cycle" in out
        assert "best:" in out
        assert "SoC p5" in out

    def test_fleet_compare_json(self, tmp_path, capsys):
        from repro.fleet import get_fleet

        spec = get_fleet("office_cohort_week").replace(
            name="mini", n_wearers=2, horizon_days=1)
        path = tmp_path / "mini.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert main(["fleet", "search", str(path),
                     "--policy", "energy_aware", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["search"]["fleet"] == "mini"
        assert payload["search"]["ranking"][0]["label"] == "energy_aware"

    def test_fleet_compare_unknown_policy_errors(self, tmp_path, capsys):
        assert main(["fleet", "search", "office_cohort_week",
                     "--policy", "warp_drive"]) == 2
        err = capsys.readouterr().err
        assert "warp_drive" in err


def _write_mini_fleet(tmp_path, name="mini", n_wearers=4, horizon_days=1):
    from repro.fleet import get_fleet

    spec = get_fleet("office_cohort_week").replace(
        name=name, n_wearers=n_wearers, horizon_days=horizon_days)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(spec.to_dict()))
    return path


class TestFleetSearchCommand:
    GRID = ('{"static_duty_cycle": {"rate_per_min": [2, 8, 16, 24]}, '
            '"ewma_forecast": {"alpha": [0.1, 0.3, 0.5]}}')

    def test_search_ranks_grid_candidates(self, tmp_path, capsys):
        path = _write_mini_fleet(tmp_path)
        assert main(["fleet", "search", str(path), "--grid", self.GRID,
                     "--policy", "energy_aware",
                     "--backend", "serial"]) == 0
        out = capsys.readouterr().out
        assert "8 candidate(s)" in out
        assert "static_duty_cycle(rate_per_min=2)" in out
        assert "ewma_forecast(alpha=0.5)" in out
        assert "best:" in out

    def test_search_json_matches_brute_force_reference(self, tmp_path,
                                                       capsys):
        """Acceptance: the CLI's top candidate over >= 8 grid points is
        exactly what a brute-force sweep picks: one plain scenario
        batch of the sampled population per candidate, reduced to a
        fleet result and ranked by the fleet ordering."""
        from repro.fleet import FleetResult, load_fleet_file, wearer_scenarios
        from repro.fleet.population import with_policy
        from repro.policies import PolicyGrid
        from repro.policies.grid import expand_grids
        from repro.scenarios import ScenarioRunner

        path = _write_mini_fleet(tmp_path)
        assert main(["fleet", "search", str(path), "--grid", self.GRID,
                     "--policy", "energy_aware",
                     "--backend", "serial", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        ranking = payload["search"]["ranking"]
        assert len(ranking) == 8
        grids = [PolicyGrid("static_duty_cycle",
                            axes={"rate_per_min": (2, 8, 16, 24)}),
                 PolicyGrid("ewma_forecast", axes={"alpha": (0.1, 0.3, 0.5)}),
                 PolicyGrid("energy_aware")]
        fleet = load_fleet_file(path)
        population = wearer_scenarios(fleet)
        keys = {}
        for label, point in expand_grids(grids):
            sweep = ScenarioRunner().run_batch(
                with_policy(population, point))
            result = FleetResult.from_outcomes(fleet, sweep.outcomes)
            keys[label] = (-result.fraction_energy_neutral,
                           -result.final_soc.p5,
                           -result.detections_per_day.p50)
        assert ranking[0]["label"] == min(keys, key=keys.get)

    def test_search_defaults_to_whole_registry(self, tmp_path, capsys):
        path = _write_mini_fleet(tmp_path, n_wearers=2)
        assert main(["fleet", "search", str(path),
                     "--backend", "serial"]) == 0
        out = capsys.readouterr().out
        for name in ("energy_aware", "static_duty_cycle", "ewma_forecast",
                     "oracle_lookahead"):
            assert name in out

    def test_search_bad_grid_json_errors(self, tmp_path, capsys):
        path = _write_mini_fleet(tmp_path)
        assert main(["fleet", "search", str(path),
                     "--grid", "{not json"]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_search_unknown_policy_lists_registered(self, tmp_path, capsys):
        path = _write_mini_fleet(tmp_path)
        assert main(["fleet", "search", str(path),
                     "--policy", "warp_drive"]) == 2
        err = capsys.readouterr().err
        assert "warp_drive" in err
        assert "energy_aware" in err  # the registry menu

    def test_search_unknown_fleet_lists_registered(self, capsys):
        assert main(["fleet", "search", "no_such_fleet"]) == 2
        err = capsys.readouterr().err
        assert "unknown fleet" in err
        assert "office_cohort_week" in err  # the fleet menu


class TestFleetShardCommands:
    def test_shard_merge_equals_direct_run(self, tmp_path, capsys):
        """The documented cluster flow: N shard files -> merge -> the
        exact canonical payload of the unsharded run."""
        path = _write_mini_fleet(tmp_path, n_wearers=5)
        parts = []
        for index in range(3):
            out = tmp_path / f"part{index}.json"
            assert main(["fleet", "run", str(path),
                         "--shard", f"{index}/3", "--out", str(out),
                         "--backend", "serial"]) == 0
            parts.append(str(out))
        capsys.readouterr()
        assert main(["fleet", "merge", *parts, "--json"]) == 0
        merged = json.loads(capsys.readouterr().out)
        assert main(["fleet", "run", str(path), "--json",
                     "--backend", "serial"]) == 0
        direct = json.loads(capsys.readouterr().out)
        assert json.dumps(merged["result"]) == json.dumps(direct["result"])
        assert merged["spec"] == direct["spec"]

    def test_shard_without_out_prints_partial_json(self, tmp_path, capsys):
        path = _write_mini_fleet(tmp_path, n_wearers=3)
        assert main(["fleet", "run", str(path), "--shard", "0/2",
                     "--backend", "serial"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["shard"] == [0, 2]
        assert [w["index"] for w in payload["wearers"]] == [0, 2]

    def test_merge_human_summary(self, tmp_path, capsys):
        path = _write_mini_fleet(tmp_path, n_wearers=2)
        part = tmp_path / "only.json"
        assert main(["fleet", "run", str(path), "--shard", "0/1",
                     "--out", str(part), "--backend", "serial"]) == 0
        capsys.readouterr()
        assert main(["fleet", "merge", str(part)]) == 0
        out = capsys.readouterr().out
        assert "energy-neutral" in out
        assert "1 shard(s)" in out

    def test_bad_shard_spelling_errors(self, tmp_path, capsys):
        path = _write_mini_fleet(tmp_path)
        assert main(["fleet", "run", str(path), "--shard", "0:2"]) == 2
        assert "must look like I/N" in capsys.readouterr().err

    def test_out_of_range_shard_errors(self, tmp_path, capsys):
        path = _write_mini_fleet(tmp_path)
        assert main(["fleet", "run", str(path), "--shard", "4/2"]) == 2
        assert "outside partition" in capsys.readouterr().err

    def test_merge_incomplete_partition_errors(self, tmp_path, capsys):
        path = _write_mini_fleet(tmp_path, n_wearers=4)
        part = tmp_path / "part0.json"
        assert main(["fleet", "run", str(path), "--shard", "0/2",
                     "--out", str(part), "--backend", "serial"]) == 0
        capsys.readouterr()
        assert main(["fleet", "merge", str(part)]) == 2
        assert "missing [1]" in capsys.readouterr().err

    def test_merge_unreadable_file_errors(self, tmp_path, capsys):
        assert main(["fleet", "merge", str(tmp_path / "ghost.json")]) == 2
        assert "cannot read fleet shard file" in capsys.readouterr().err

    def test_merge_corrupt_shard_value_errors(self, tmp_path, capsys):
        path = _write_mini_fleet(tmp_path, n_wearers=2)
        part = tmp_path / "part.json"
        assert main(["fleet", "run", str(path), "--shard", "0/1",
                     "--out", str(part), "--backend", "serial"]) == 0
        payload = json.loads(part.read_text())
        payload["wearers"][0]["final_soc"] = "half"
        part.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["fleet", "merge", str(part)]) == 2
        err = capsys.readouterr().err
        assert "part.json" in err
        assert "final_soc must be a finite number" in err

    def test_unwritable_out_path_errors(self, tmp_path, capsys):
        path = _write_mini_fleet(tmp_path, n_wearers=2)
        assert main(["fleet", "run", str(path), "--shard", "0/1",
                     "--out", str(tmp_path / "no_dir" / "p.json"),
                     "--backend", "serial"]) == 2
        assert "cannot write --out file" in capsys.readouterr().err

    def test_merge_out_without_json_writes_file(self, tmp_path, capsys):
        """--out alone implies the JSON payload, exactly like
        `fleet run --out` — a script must never lose the merge."""
        path = _write_mini_fleet(tmp_path, n_wearers=2)
        part = tmp_path / "part.json"
        merged = tmp_path / "merged.json"
        assert main(["fleet", "run", str(path), "--shard", "0/1",
                     "--out", str(part), "--backend", "serial"]) == 0
        assert main(["fleet", "merge", str(part),
                     "--out", str(merged)]) == 0
        payload = json.loads(merged.read_text())
        assert payload["result"]["n_wearers"] == 2

    def test_shard_file_carries_provenance(self, tmp_path, capsys):
        """Shard files record backend and wall time, so `fleet merge`
        can report real total shard wall time instead of zeros."""
        path = _write_mini_fleet(tmp_path, n_wearers=2)
        part = tmp_path / "part.json"
        assert main(["fleet", "run", str(path), "--shard", "0/1",
                     "--out", str(part), "--backend", "serial"]) == 0
        payload = json.loads(part.read_text())
        assert payload["backend"] == "serial"
        assert payload["wall_time_s"] > 0.0


def test_module_invocation():
    """``python -m repro table3`` works from a subprocess."""
    result = subprocess.run([sys.executable, "-m", "repro", "table3"],
                            capture_output=True, text=True, timeout=120,
                            env=ENV)
    assert result.returncode == 0
    assert "30,210" in result.stdout


def test_module_invocation_sweep_all():
    """The acceptance path: every library scenario, 4 parallel workers."""
    result = subprocess.run(
        [sys.executable, "-m", "repro", "sweep", "--all", "--workers", "4"],
        capture_output=True, text=True, timeout=600, env=ENV)
    assert result.returncode == 0
    assert "all energy-neutral" in result.stdout
    for name in ("paper_indoor_worst_case", "outdoor_hiker",
                 "cloudy_week_multi_day"):
        assert name in result.stdout


class TestCanonicalJsonEmission:
    """Every --json/--out payload goes through the shared canonical
    encoder, so CLI output is byte-identical to what the serve result
    store caches for the equivalent request."""

    def test_search_json_is_canonical_bytes(self, capsys):
        from repro.scenarios.spec import canonical_json

        assert main(["search", "paper_indoor_worst_case", "--json",
                     "--policy", "static_duty_cycle",
                     "--backend", "serial"]) == 0
        out = capsys.readouterr().out
        assert out == canonical_json(json.loads(out)) + "\n"

    def test_fleet_run_out_file_is_canonical_bytes(self, tmp_path, capsys):
        from repro.scenarios.spec import canonical_json

        path = _write_mini_fleet(tmp_path, n_wearers=2)
        out_file = tmp_path / "result.json"
        assert main(["fleet", "run", str(path), "--out", str(out_file),
                     "--backend", "serial"]) == 0
        raw = out_file.read_text()
        assert raw == canonical_json(json.loads(raw)) + "\n"


class TestServeCommand:
    def test_smoke_passes(self, capsys):
        assert main(["serve", "--smoke", "--workers", "2"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["ok"] is True
        assert summary["cache"] == ["miss", "hit"]


class TestIngestCommand:
    TRACE = [
        {"t_s": 0.0, "power_w": 0.0009, "event": "office"},
        {"t_s": 60.0, "power_w": 0.0009, "event": "office"},
        {"t_s": 90.0, "power_w": 0.003, "event": "detection"},
        {"t_s": 120.0, "power_w": 0.00002, "event": "commute"},
        {"t_s": 180.0, "power_w": 0.00002, "event": "commute"},
    ]

    def _write_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in self.TRACE) + "\n")
        return path

    def test_ingest_then_simulate_round_trip(self, tmp_path, capsys):
        trace = self._write_trace(tmp_path)
        assert main(["ingest", str(trace), "--name", "cli_trace",
                     "--out", str(tmp_path / "scn")]) == 0
        out = capsys.readouterr().out
        assert "office" in out and "commute" in out
        scenario = tmp_path / "scn" / "cli_trace.json"
        assert scenario.is_file()
        assert main(["simulate", str(scenario)]) == 0
        assert "cli_trace" in capsys.readouterr().out

    def test_ingest_json_emits_spec(self, tmp_path, capsys):
        trace = self._write_trace(tmp_path)
        assert main(["ingest", str(trace), "--name", "t", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["path"] is None
        assert payload["spec"]["name"] == "t"
        assert len(payload["spec"]["timeline"]["segments"]) == 2

    def test_ingest_bad_trace_errors(self, tmp_path, capsys):
        trace = tmp_path / "bad.jsonl"
        trace.write_text('{"t_s": 0, "power_w": 1e-3}\n{oops\n')
        assert main(["ingest", str(trace), "--name", "t"]) == 2
        assert "invalid JSON" in capsys.readouterr().err


class TestLearnCommands:
    DATASET_ARGS = ["learn", "dataset", "office_cohort_week",
                    "--wearers", "2", "--stride", "20"]

    def _dataset(self, tmp_path, capsys, name="ds.jsonl", extra=()):
        path = tmp_path / name
        assert main(self.DATASET_ARGS + list(extra)
                    + ["--out", str(path)]) == 0
        capsys.readouterr()
        return path

    def test_dataset_writes_jsonl(self, tmp_path, capsys):
        path = tmp_path / "ds.jsonl"
        assert main(self.DATASET_ARGS + ["--out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "samples from 2 wearer(s)" in out
        header = json.loads(path.read_text().splitlines()[0])
        assert header["kind"] == "repro.learn/dataset"
        assert header["spec"]["stride"] == 20

    def test_dataset_stdout_without_out(self, capsys):
        assert main(self.DATASET_ARGS + ["--shard", "0/2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert json.loads(lines[0])["shard"] == [0, 2]

    def test_shards_merge_to_the_unsharded_bytes(self, tmp_path, capsys):
        whole = self._dataset(tmp_path, capsys)
        parts = [self._dataset(tmp_path, capsys, name=f"p{i}.jsonl",
                               extra=["--shard", f"{i}/2"])
                 for i in range(2)]
        merged = tmp_path / "merged.jsonl"
        assert main(["learn", "merge", str(parts[0]), str(parts[1]),
                     "--out", str(merged)]) == 0
        assert merged.read_bytes() == whole.read_bytes()

    def test_train_eval_round_trip(self, tmp_path, capsys):
        dataset = self._dataset(tmp_path, capsys)
        policy = tmp_path / "learned.json"
        assert main(["learn", "train", str(dataset), "--hidden", "4",
                     "--epochs", "10", "--out", str(policy)]) == 0
        assert "trained on" in capsys.readouterr().out
        payload = json.loads(policy.read_text())
        assert payload["kind"] == "repro.learn/trained"
        assert payload["policy"]["name"] == "learned"
        fleet = json.dumps({"name": "cli_learn_eval",
                            "base_scenario": "sunny_office_worker",
                            "n_wearers": 2, "horizon_days": 1, "seed": 3})
        fleet_path = tmp_path / "fleet.json"
        fleet_path.write_text(fleet)
        assert main(["learn", "eval", str(policy), str(fleet_path),
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "cli_learn_eval" in out
        assert "deployment:" in out

    def test_eval_json_payload(self, tmp_path, capsys):
        dataset = self._dataset(tmp_path, capsys)
        policy = tmp_path / "learned.json"
        assert main(["learn", "train", str(dataset), "--hidden", "4",
                     "--epochs", "10", "--out", str(policy)]) == 0
        capsys.readouterr()
        fleet_path = tmp_path / "fleet.json"
        fleet_path.write_text(json.dumps(
            {"name": "cli_learn_eval_json",
             "base_scenario": "sunny_office_worker",
             "n_wearers": 2, "horizon_days": 1, "seed": 3}))
        assert main(["learn", "eval", str(policy), str(fleet_path),
                     "--workers", "2", "--json", "--no-quantized"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"fleet", "search", "gap", "deployment"}
        assert payload["gap"]["metric"] == "detections_per_day.p50"

    def test_train_bad_hidden_errors(self, tmp_path, capsys):
        dataset = self._dataset(tmp_path, capsys)
        assert main(["learn", "train", str(dataset),
                     "--hidden", "bogus"]) == 2
        assert "--hidden" in capsys.readouterr().err

    def test_train_missing_dataset_errors(self, tmp_path, capsys):
        assert main(["learn", "train", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_merge_incomplete_partition_errors(self, tmp_path, capsys):
        part = self._dataset(tmp_path, capsys, extra=["--shard", "0/2"])
        assert main(["learn", "merge", str(part)]) == 2
        assert "each shard" in capsys.readouterr().err

    def test_dataset_unknown_fleet_errors(self, capsys):
        assert main(["learn", "dataset", "no_such_cohort"]) == 2
        assert "no_such_cohort" in capsys.readouterr().err

    def test_dataset_bad_shard_errors(self, capsys):
        assert main(self.DATASET_ARGS + ["--shard", "2/2"]) == 2
        assert "shard" in capsys.readouterr().err
