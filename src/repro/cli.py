"""Command-line interface: paper artefacts plus the scenario API.

Artefact commands regenerate the paper's evaluation tables::

    python -m repro table1          # solar harvesting (Table I)
    python -m repro table2          # TEG harvesting (Table II)
    python -m repro table3          # runtime cycles (Table III)
    python -m repro table4          # energy per classification (Table IV)
    python -m repro detection       # per-detection energy budget
    python -m repro sustainability  # Section IV-A analysis
    python -m repro modes           # operating-mode power table
    python -m repro all             # everything above

Scenario commands drive the declarative scenario API
(:mod:`repro.scenarios`)::

    python -m repro scenarios list                       # the built-in library
    python -m repro simulate paper_indoor_worst_case     # run one scenario
    python -m repro simulate paper_indoor_worst_case --json
    python -m repro sweep --all --workers 4              # parallel batch sweep
    python -m repro sweep --all --backend process        # process-pool sweep
    python -m repro sweep --from-json my_scenarios/      # scenario files on disk
    python -m repro sweep outdoor_hiker night_shift --json
    python -m repro search cloudy_week_multi_day         # rank every policy
    python -m repro search outdoor_hiker --policy static_duty_cycle \
        --policy ewma_forecast
    python -m repro search night_shift \
        --grid '{"static_duty_cycle": {"rate_per_min": [2, 8, 24]}}' --json

Fleet commands run population studies (:mod:`repro.fleet`) — *n*
seeded-stochastic wearers over week-to-month horizons, reduced to
population statistics::

    python -m repro fleet list                           # built-in fleets
    python -m repro fleet run office_cohort_week         # run a library fleet
    python -m repro fleet run my_fleet.json --backend process --json
    python -m repro fleet search office_cohort_week \
        --policy energy_aware --policy ewma_forecast     # paired policy study
    python -m repro fleet search office_cohort_week \
        --grid '{"static_duty_cycle": {"rate_per_min": [2, 8, 24]}}'
    python -m repro fleet run office_cohort_week \
        --shard 0/4 --out part0.json                     # one shard of four
    python -m repro fleet merge part*.json               # exact reduction

Serving commands expose the whole stack as a long-lived HTTP service
with a content-addressed result cache (:mod:`repro.serve`), and close
the loop from device telemetry back into scenarios::

    python -m repro serve --store results/ --port 8751   # fleet-as-a-service
    python -m repro serve --smoke                        # end-to-end self-check
    python -m repro ingest trace.jsonl --name commute_day \
        --out my_scenarios/                              # telemetry -> scenario
    python -m repro simulate my_scenarios/commute_day.json

Machine-readable output (``--json`` and ``--out``) is always emitted
through the shared canonical encoder
(:func:`repro.scenarios.spec.canonical_json`): sorted keys, compact
separators, ASCII.  The bytes a command prints are exactly the bytes
the result store caches for the equivalent HTTP request.

``sweep --backend`` / ``search --backend`` pick the execution
backend: ``serial`` (default) or ``process``.  The process backend
dispatches chunks to the persistent shared worker pool, whose
spawned workers import ``repro`` fresh, so scenarios must reference
components registered at import time (the whole built-in library and
every built-in policy qualify).

``search`` holds one scenario fixed and sweeps the power policy over
a grid: ``--policy NAME`` (repeatable) compares registered policies at
their default params, ``--grid`` takes a JSON mapping of policy name
to ``{param: [values, ...]}`` axes, and with neither the whole policy
registry competes at defaults.  Results are ranked best-first
(energy-neutral, then detections/day, then final state of charge).

``simulate --json``, ``sweep --json`` and ``search --json`` emit
machine-readable results for downstream tooling (simulate includes the
harvest-cache hit/miss stats; sweep records backend and wall time);
the scenario names are the library keys listed by ``scenarios list``
(lowercase snake_case phrases describing the wearer's day).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from repro.units import kmh_to_ms

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.policies.grid import PolicyStudy

__all__ = ["build_parser", "main"]


def _print_table1() -> None:
    from repro.harvest import calibrated_solar_harvester
    from repro.lab import HarvestTestBench

    bench = HarvestTestBench()
    solar = calibrated_solar_harvester()
    print("Table I: solar power generation (battery intake)")
    for lux, paper in ((30_000.0, "24.711 mW"), (700.0, "0.9 mW")):
        intake = bench.measure_solar_intake_w(solar.panel, solar.converter, lux)
        print(f"  {lux:8,.0f} lx : {intake * 1e3:7.3f} mW   (paper {paper})")


def _print_table2() -> None:
    from repro.harvest import calibrated_teg_harvester
    from repro.lab import HarvestTestBench

    bench = HarvestTestBench()
    teg = calibrated_teg_harvester()
    print("Table II: human-wrist TEG power (battery intake)")
    cases = [(22.0, 32.0, 0.0, "24.0 uW"),
             (15.0, 30.0, 0.0, "55.5 uW"),
             (15.0, 30.0, kmh_to_ms(42.0), "155.4 uW")]
    for ambient, skin, wind, paper in cases:
        intake = bench.measure_teg_intake_w(teg.device, teg.converter,
                                            ambient, skin, wind)
        print(f"  room {ambient:4.1f} C / skin {skin:4.1f} C / "
              f"wind {wind * 3.6:4.1f} km/h : {intake * 1e6:7.1f} uW "
              f"(paper {paper})")


def _print_table3() -> None:
    from repro.fann import build_network_a, build_network_b
    from repro.timing import ALL_PROCESSORS, cycles_for_network

    print("Table III: runtime in cycles")
    print(f"  {'network':10s}" + "".join(f"{p.key:>14s}" for p in ALL_PROCESSORS))
    for name, net in (("Network A", build_network_a()),
                      ("Network B", build_network_b())):
        cells = "".join(f"{cycles_for_network(net, p).total_cycles:>14,d}"
                        for p in ALL_PROCESSORS)
        print(f"  {name:10s}{cells}")


def _print_table4() -> None:
    from repro.fann import build_network_a, build_network_b
    from repro.timing import ALL_PROCESSORS, energy_per_inference

    print("Table IV: energy per classification [uJ]")
    print(f"  {'network':10s}" + "".join(f"{p.key:>14s}" for p in ALL_PROCESSORS))
    for name, net in (("Network A", build_network_a()),
                      ("Network B", build_network_b())):
        cells = "".join(f"{energy_per_inference(net, p).energy_uj_rounded:>14.1f}"
                        for p in ALL_PROCESSORS)
        print(f"  {name:10s}{cells}")


def _print_detection() -> None:
    from repro.core import StressDetectionApp

    budget = StressDetectionApp().energy_budget()
    paper = StressDetectionApp().paper_energy_budget()
    print("Energy per stress detection")
    print(f"  acquisition        : {budget.acquisition_j * 1e6:8.1f} uJ")
    print(f"  feature extraction : {budget.feature_extraction_j * 1e6:8.2f} uJ")
    print(f"  classification     : {budget.classification_j * 1e6:8.2f} uJ")
    print(f"  total (exact)      : {budget.total_uj:8.1f} uJ")
    print(f"  total (paper mode) : {paper.total_uj:8.1f} uJ  (paper: 602.2 uJ)")


def _print_sustainability() -> None:
    from repro.core import analyze_self_sustainability

    report = analyze_self_sustainability()
    print("Self-sustainability (paper indoor worst case)")
    print(f"  solar intake : {report.solar_energy_j:6.2f} J/day")
    print(f"  TEG intake   : {report.teg_energy_j:6.2f} J/day")
    print(f"  total        : {report.daily_intake_j:6.2f} J/day (paper 21.44 J)")
    print(f"  detections   : up to {report.detections_per_minute_floor}/minute "
          f"(paper: 24/minute)")


def _print_modes() -> None:
    from repro.core import OperatingMode, battery_lifetime_s, mode_power_w
    from repro.units import SECONDS_PER_DAY

    print("Operating modes (Section II)")
    for mode in OperatingMode:
        power = mode_power_w(mode)
        days = battery_lifetime_s(mode) / SECONDS_PER_DAY
        print(f"  {mode.value:14s}: {power * 1e3:9.4f} mW   "
              f"full battery lasts {days:9.1f} days (no harvest)")


_ARTIFACTS = {
    "table1": _print_table1,
    "table2": _print_table2,
    "table3": _print_table3,
    "table4": _print_table4,
    "detection": _print_detection,
    "sustainability": _print_sustainability,
    "modes": _print_modes,
}


# --- scenario subcommands ----------------------------------------------------

def _print_json(payload: dict) -> None:
    """Emit one ``--json`` payload through the shared canonical encoder.

    Sorted keys, compact separators, ASCII — byte-identical to what
    the serve result store caches for the same request, so piping a
    CLI result into a file and diffing it against a served response is
    a meaningful check.
    """
    from repro.scenarios.spec import canonical_json

    print(canonical_json(payload))


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.scenarios import all_scenarios

    specs = all_scenarios()
    # One line per scenario: name column sized to the longest name, so
    # third-party registrations with long names keep the descriptions
    # aligned.
    width = max(len(spec.name) for spec in specs)
    print("Built-in scenario library")
    for spec in specs:
        print(f"  {spec.name:{width}s}  {spec.description}")
    return 0


def _resolve_scenario(reference: str):
    """A :class:`ScenarioSpec` from a library name or a ``.json`` path.

    The same name-or-file convention as fleets: anything that looks
    like a file (ends in ``.json``, contains a path separator, or
    exists on disk) loads as a scenario file — what ``repro ingest
    --out DIR`` writes — and everything else is a library lookup.
    """
    import os

    from repro.scenarios import get_scenario, load_scenario_file

    if (reference.endswith(".json") or os.sep in reference
            or os.path.isfile(reference)):
        return load_scenario_file(reference)
    return get_scenario(reference)


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.scenarios.runner import ScenarioOutcome, lean_simulation

    from repro.units import SECONDS_PER_DAY

    spec = _resolve_scenario(args.scenario)
    # Built by hand (rather than run_scenario) so the simulation object
    # stays inspectable: the harvest-cache stats live on its harvester.
    sim = lean_simulation(spec)
    outcome = ScenarioOutcome.from_result(spec.name, sim.run())
    stats = getattr(sim.harvester, "stats", None)
    cache = (None if stats is None else {
        "hits": stats.hits,
        "misses": stats.misses,
        "hit_rate": round(stats.hit_rate, 4),
    })
    if args.json:
        _print_json({"spec": spec.to_dict(),
                     "outcome": outcome.to_dict(),
                     "harvest_cache": cache})
        return 0
    days = outcome.duration_s / SECONDS_PER_DAY
    print(f"Scenario: {spec.name}")
    if spec.description:
        print(f"  {spec.description}")
    print(f"  horizon    : {days:.2f} day(s), step {spec.step_s:.0f} s")
    print(f"  harvested  : {outcome.total_harvest_j:8.2f} J")
    print(f"  consumed   : {outcome.total_consumed_j:8.2f} J")
    print(f"  detections : {outcome.total_detections:8.0f} "
          f"({outcome.detections_per_day:.0f}/day)")
    print(f"  SoC        : {100 * outcome.initial_soc:.1f} % -> "
          f"{100 * outcome.final_soc:.1f} % "
          f"({'energy-neutral or better' if outcome.energy_neutral else 'draining'})")
    if cache is not None:
        print(f"  harvest memo: {cache['misses']} model solve(s), "
              f"{cache['hits']} cache hit(s) "
              f"({100 * cache['hit_rate']:.0f}% hit rate)")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.scenarios import (
        ScenarioRunner,
        all_scenarios,
        get_scenario,
        load_scenario_dir,
    )

    selections = [bool(args.all_scenarios), bool(args.scenario),
                  bool(args.from_json)]
    if sum(selections) > 1:
        print("sweep: pass exactly one of --all, scenario names or "
              "--from-json", file=sys.stderr)
        return 2
    if args.all_scenarios:
        specs = all_scenarios()
    elif args.from_json:
        specs = load_scenario_dir(args.from_json)
    elif args.scenario:
        specs = [get_scenario(name) for name in args.scenario]
    else:
        print("sweep: name scenarios, pass --all, or --from-json DIR",
              file=sys.stderr)
        return 2
    sweep = ScenarioRunner(workers=args.workers,
                           backend=args.backend).run_batch(specs)
    if args.json:
        _print_json(sweep.to_dict())
    else:
        print(f"Sweep: {len(specs)} scenario(s), {args.workers} worker(s), "
              f"{sweep.backend} backend, {sweep.wall_time_s:.2f} s")
        print(sweep.format_table())
        print(f"all energy-neutral: {'yes' if sweep.all_neutral else 'no'}")
    return 0


def _parse_policy_grids(grid_json: str | None,
                        policy_names: list[str] | None) -> list:
    """The :class:`PolicyGrid` list selected by ``--grid``/``--policy``.

    Shared by ``repro search`` (one scenario) and ``repro fleet
    search`` (one population), and the same deserializer the HTTP
    endpoints use (:func:`repro.policies.grid.grids_from_mapping`), so
    a ``--grid`` string and a ``/search`` request body fail with the
    same messages.  Unknown policy names raise
    :class:`~repro.errors.SpecError` listing the registered menu.
    Returns an empty list when nothing was selected (callers then
    default to the whole registry at default params).
    """
    from repro.errors import SpecError
    from repro.policies import grids_from_mapping

    parsed = None
    if grid_json:
        try:
            parsed = json.loads(grid_json)
        except json.JSONDecodeError as exc:
            raise SpecError(f"--grid is not valid JSON: {exc}") from None
    return grids_from_mapping(parsed, policy_names or (), what="--grid")


def _print_ranking(title: str, scope: str, study: PolicyStudy) -> None:
    """The ranking report ``search``, ``fleet search`` and ``learn
    eval`` share: one headline, then the best-first table.  Each
    command follows it with its own verdict line."""
    print(f"{title}: {study.subject} — {scope}, {study.backend} backend, "
          f"{study.wall_time_s:.2f} s")
    print(study.format_table())


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.policies import PolicyGrid, default_policy_names
    from repro.scenarios import ScenarioRunner, get_scenario

    spec = get_scenario(args.scenario)
    grids = _parse_policy_grids(args.grid, args.policy)
    if not grids:
        # No selection: every default-buildable policy competes
        # (trained policies need weights, so they must be named).
        grids = [PolicyGrid(name) for name in default_policy_names()]

    runner = ScenarioRunner(workers=args.workers, backend=args.backend)
    result = runner.run_grid(spec, grids)
    if args.json:
        _print_json(result.to_dict())
        return 0
    _print_ranking("Policy search",
                   f"{len(result.entries)} grid point(s), "
                   f"{len(result.policy_names)} policy(ies)", result)
    best = result.best
    print(f"best: {best.label} "
          f"({best.result.detections_per_day:.0f} detections/day, "
          f"{'energy-neutral' if best.result.energy_neutral else 'draining'})")
    return 0


def _write_text(text: str, out: str | None, what: str) -> None:
    """Write ``text`` to ``--out FILE`` (or stdout when omitted)."""
    from repro.errors import SpecError

    if out:
        try:
            with open(out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise SpecError(f"cannot write --out file {out}: {exc}") from None
        print(f"wrote {out} ({what})")
    else:
        sys.stdout.write(text)


def _cmd_learn(args: argparse.Namespace) -> int:
    if args.learn_command == "dataset":
        from repro.learn import DatasetSpec, generate_dataset

        spec = DatasetSpec(fleet=args.fleet, wearers=args.wearers,
                           stride=args.stride, lookahead_s=args.lookahead)
        shard = _parse_shard(args.shard) if args.shard else None
        dataset = generate_dataset(spec, shard=shard)
        _write_text(dataset.to_jsonl(), args.out,
                    f"{len(dataset.samples)} samples from "
                    f"{len(dataset.wearers)} wearer(s)")
        return 0

    if args.learn_command == "merge":
        from repro.learn import Dataset, load_dataset_file

        merged = Dataset.merge([load_dataset_file(path)
                                for path in args.files])
        _write_text(merged.to_jsonl(), args.out,
                    f"{len(merged.samples)} samples from "
                    f"{len(merged.wearers)} wearer(s)")
        return 0

    if args.learn_command == "train":
        from repro.errors import SpecError
        from repro.learn import TrainSpec, load_dataset_file, train_policy

        try:
            hidden = tuple(int(width) for width in args.hidden.split(","))
        except ValueError:
            raise SpecError(
                f"--hidden must be comma-separated layer widths "
                f"(e.g. 8 or 8,4), got {args.hidden!r}") from None
        dataset = load_dataset_file(args.dataset)
        spec = TrainSpec(hidden=hidden, epochs=args.epochs, seed=args.seed,
                         desired_mse=args.desired_mse,
                         max_rate_per_min=args.max_rate)
        trained = train_policy(dataset, spec)
        _emit_payload(trained.to_dict(), args.out)
        if args.out:
            print(f"trained on {trained.samples} samples: "
                  f"{trained.epochs_run} epoch(s), final MSE "
                  f"{trained.final_mse:.5f}"
                  f"{' (converged)' if trained.converged else ''}")
        return 0

    # learn eval: the trained policy against every built-in on a fleet.
    from repro.learn import evaluate_trained, load_trained_file

    trained = load_trained_file(args.trained)
    fleet = _resolve_fleet(args.fleet) if args.fleet else None
    report = evaluate_trained(trained, fleet=fleet,
                              include_quantized=not args.no_quantized,
                              workers=args.workers, backend=args.backend)
    if args.json or args.out:
        _emit_payload(report.to_dict(), args.out)
        return 0
    _print_ranking("Learned-policy evaluation",
                   f"{len(report.comparison.entries)} policy(ies)",
                   report.comparison)
    gap = report.gap
    if gap["gap_closed"] is None:
        print(f"gap: {gap['oracle']} opens no {gap['metric']} gap over "
              f"{gap['baseline']} on this fleet")
    else:
        print(f"gap closed: {100 * gap['gap_closed']:.1f}% of "
              f"{gap['baseline']} -> {gap['oracle']} on {gap['metric']} "
              f"({gap['baseline_value']:.0f} -> {gap['candidate_value']:.0f} "
              f"vs oracle {gap['oracle_value']:.0f})")
        quantized = gap.get("quantized")
        if quantized and quantized["gap_closed"] is not None:
            print(f"quantized (learned_q): "
                  f"{100 * quantized['gap_closed']:.1f}% closed")
    deployment = report.deployment
    print(f"deployment: {deployment['total_flash_bytes']} B flash, "
          f"{deployment['buffer_bytes']} B activation buffers — "
          f"nRF52 RAM {'OK' if deployment['fits_nrf52_ram'] else 'EXCEEDED'}, "
          f"Mr. Wolf L1 {'OK' if deployment['fits_mrwolf_l1'] else 'EXCEEDED'}")
    return 0


def _resolve_fleet(reference: str):
    """A :class:`FleetSpec` from a library name or a ``.json`` path.

    Anything that looks like a file (ends in ``.json``, contains a
    path separator, or exists on disk) is loaded as a fleet file;
    everything else is looked up in the built-in fleet library.
    """
    import os

    from repro.fleet import get_fleet, load_fleet_file

    if (reference.endswith(".json") or os.sep in reference
            or os.path.isfile(reference)):
        return load_fleet_file(reference)
    return get_fleet(reference)


def _parse_shard(text: str) -> tuple[int, int]:
    """``(index, count)`` from the CLI's ``I/N`` spelling."""
    import re

    from repro.errors import SpecError

    match = re.fullmatch(r"(\d+)/(\d+)", text)
    if not match:
        raise SpecError(
            f"--shard must look like I/N (e.g. 0/4), got {text!r}")
    return int(match.group(1)), int(match.group(2))


def _emit_payload(payload: dict, out: str | None) -> None:
    """Print a JSON payload, or write it to ``--out FILE``.

    Write failures are user errors (bad path, permissions), reported
    as a clean ``error:`` exit — losing a finished shard computation
    to a traceback would be the worst possible ending.
    """
    from repro.errors import SpecError
    from repro.scenarios.spec import canonical_json

    text = canonical_json(payload)
    if out:
        try:
            with open(out, "w") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise SpecError(f"cannot write --out file {out}: {exc}") from None
        print(f"wrote {out}")
    else:
        print(text)


def _cmd_fleet(args: argparse.Namespace) -> int:
    if args.fleet_command == "list":
        from repro.fleet import all_fleets

        fleets = all_fleets()
        width = max(len(spec.name) for spec in fleets)
        print("Built-in fleet library")
        for spec in fleets:
            shape = (f"{spec.n_wearers} x {spec.horizon_days}d "
                     f"on {spec.base_scenario}")
            print(f"  {spec.name:{width}s}  {shape:40s}  {spec.description}")
        return 0

    if args.fleet_command == "merge":
        from repro.fleet import FleetResult, load_partial_file

        parts = [load_partial_file(path) for path in args.files]
        result = FleetResult.merge(parts)
        if args.json or args.out:
            _emit_payload({"spec": parts[0].spec.to_dict(),
                           "result": result.to_dict()}, args.out)
            return 0
        print(result.format_summary())
        print(f"  merged     : {len(parts)} shard(s), "
              f"{result.wall_time_s:.2f} s total shard wall time")
        return 0

    if args.fleet_command == "orchestrate":
        from pathlib import Path

        from repro.errors import SpecError
        from repro.fleet import orchestrate, plan_manifest, write_manifest
        from repro.fleet.orchestrate import MANIFEST_NAME

        workspace = Path(args.dir)
        manifest_path = workspace / MANIFEST_NAME
        if args.resume:
            if not manifest_path.is_file():
                raise SpecError(
                    f"--resume: no manifest at {manifest_path}; start a "
                    "campaign first with --fleet or --chaos")
        else:
            if manifest_path.is_file():
                raise SpecError(
                    f"{manifest_path} already exists; pass --resume to "
                    "continue it (finished shards are reused), or pick "
                    "a fresh directory")
            if bool(args.fleet) == bool(args.chaos):
                raise SpecError(
                    "orchestrate needs exactly one of --fleet or "
                    "--chaos (or --resume on an existing directory)")
            if args.fleet:
                kind, spec = "fleet", _resolve_fleet(args.fleet)
            else:
                from repro.chaos import load_chaos_file

                kind, spec = "chaos", load_chaos_file(args.chaos)
            manifest = plan_manifest(
                kind, spec, shard_count=args.shards,
                timeout_s=args.timeout, max_attempts=args.retries + 1,
                backoff_s=args.backoff, workers=args.workers,
                backend=args.backend)
            write_manifest(workspace, manifest)
        summary = orchestrate(workspace,
                              echo=None if args.json else print)
        if args.json:
            _print_json(summary)
            return 0
        print(f"orchestrate: {summary['kind']} campaign complete — "
              f"{summary['reused']} shard(s) reused, "
              f"{summary['ran']} ran")
        print(f"  merged : {summary['merged_out']}")
        print(f"  sha256 : {summary['sha256']}")
        if "verdicts" in summary:
            verdicts = summary["verdicts"]
            print(f"  judged : pass {verdicts['pass']}, survival "
                  f"failures {verdicts['survival_failure']}, "
                  f"violations {verdicts['violation']}")
        return 0

    from repro.fleet import FleetRunner

    fleet = _resolve_fleet(args.fleet)
    runner = FleetRunner(workers=args.workers, backend=args.backend)

    if args.fleet_command == "run":
        if args.shard:
            # A shard is machine food for `fleet merge`, not a report:
            # it always emits the partial JSON payload.
            partial = runner.run(fleet, shard=_parse_shard(args.shard))
            _emit_payload(partial.to_dict(), args.out)
            return 0
        result = runner.run(fleet)
        if args.json or args.out:
            _emit_payload({"spec": fleet.to_dict(),
                           "result": result.to_dict()}, args.out)
            return 0
        print(result.format_summary())
        print(f"  backend    : {result.backend}, "
              f"{result.wall_time_s:.2f} s wall time")
        return 0

    # fleet search: every candidate policy against one sampled
    # population (paired), ranked by fraction energy-neutral, then
    # p5 final SoC, then median detections/day.
    from repro.policies import PolicyGrid, default_policy_names

    grids = _parse_policy_grids(args.grid, args.policy)
    if not grids:
        # No selection: every default-buildable policy competes.
        grids = [PolicyGrid(name) for name in default_policy_names()]
    result = runner.run_grid(fleet, grids)
    if args.json:
        _print_json({"spec": fleet.to_dict(),
                     "search": result.to_dict()})
        return 0
    _print_ranking("Fleet policy search",
                   f"{fleet.n_wearers} wearer(s) x {fleet.horizon_days} "
                   f"day(s), {len(result.entries)} candidate(s), "
                   f"{len(result.policy_names)} policy(ies)", result)
    best = result.best
    print(f"best: {best.label} "
          f"({100 * best.result.fraction_energy_neutral:.0f}% "
          f"energy-neutral, p5 final SoC "
          f"{100 * best.result.final_soc.p5:.1f}%, median "
          f"{best.result.detections_per_day.p50:.0f} detections/day)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import run_smoke, serve_forever

    if args.smoke:
        import tempfile

        if args.store:
            summary = run_smoke(args.store, workers=args.workers,
                                backend=args.backend)
        else:
            # The self-check must start cold — an ephemeral store
            # guarantees the first request is a genuine miss.
            with tempfile.TemporaryDirectory() as scratch:
                summary = run_smoke(scratch, workers=args.workers,
                                    backend=args.backend)
        _print_json(summary)
        return 0
    serve_forever(args.store or ".repro-store", host=args.host,
                  port=args.port, workers=args.workers,
                  backend=args.backend,
                  request_timeout_s=args.timeout)
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.serve import ResultStore

    store = ResultStore(args.store)
    summary = store.gc(max_bytes=args.max_bytes)
    if args.json:
        _print_json(summary)
        return 0
    print(f"store gc: {args.store}")
    print(f"  before : {summary['entries_before']} entry(ies), "
          f"{summary['bytes_before']} bytes")
    print(f"  evicted: {summary['evicted']} entry(ies), "
          f"{summary['evicted_bytes']} bytes (LRU, budget "
          f"{summary['max_bytes']} bytes)")
    print(f"  after  : {summary['entries_after']} entry(ies), "
          f"{summary['bytes_after']} bytes")
    return 0


def _parse_axis(text: str):
    """A ``--axis NAME`` or ``--axis NAME:{json params}`` argument."""
    import json as json_module

    from repro.chaos import ChaosAxisSpec
    from repro.errors import SpecError

    name, _, params_text = text.partition(":")
    params = {}
    if params_text:
        try:
            params = json_module.loads(params_text)
        except ValueError as exc:
            raise SpecError(
                f"--axis {name!r}: params must be a JSON object, "
                f"got {params_text!r} ({exc})") from None
        if not isinstance(params, dict):
            raise SpecError(
                f"--axis {name!r}: params must be a JSON object, "
                f"got {type(params).__name__}")
    return ChaosAxisSpec(name=name, params=params)


def _resolve_campaign(args: argparse.Namespace):
    """The campaign spec: a ChaosSpec JSON file, or built from flags."""
    from repro.chaos import ChaosSpec, load_chaos_file

    if args.spec:
        return load_chaos_file(args.spec)
    return ChaosSpec(
        name=args.name,
        base_scenario=args.base_scenario,
        n_cases=args.cases,
        horizon_days=args.days,
        seed=args.seed,
        axes=tuple(_parse_axis(text) for text in (args.axis or ())),
    )


def _cmd_chaos(args: argparse.Namespace) -> int:
    if args.chaos_command == "axes":
        from repro.chaos import AXES, axis_names

        print("Registered chaos axes")
        for name in axis_names():
            doc = (AXES.get(name).__doc__ or "").strip().splitlines()
            print(f"  {name:22s}  {doc[0] if doc else ''}")
        return 0

    if args.chaos_command == "generate":
        from repro.chaos import generate_payload

        spec = _resolve_campaign(args)
        _emit_payload(generate_payload(spec), args.out)
        return 0

    if args.chaos_command == "run":
        from repro.chaos import ChaosRunner, format_report
        from repro.scenarios.spec import PolicySpec

        spec = _resolve_campaign(args)
        runner = ChaosRunner(workers=args.workers, backend=args.backend)
        policies = ([PolicySpec(name) for name in args.policy]
                    if args.policy else None)
        if args.shard:
            # A shard is machine food for merging, not a report.
            partial = runner.run(spec, policies=policies,
                                 shard=_parse_shard(args.shard))
            _emit_payload(partial.to_dict(), args.out)
            return 0
        result = runner.run(spec, policies=policies)
        if args.json or args.out:
            _emit_payload(result.to_dict(), args.out)
            return 0
        print(format_report(result))
        return 0

    # chaos report: digest result files, optionally promote failures.
    from repro.chaos import (CampaignResult, PartialCampaignResult,
                             format_report, load_campaign_result,
                             promote_failures)
    from repro.errors import SpecError

    loaded = [load_campaign_result(path) for path in args.files]
    full = [r for r in loaded if isinstance(r, CampaignResult)]
    partial = [r for r in loaded if isinstance(r, PartialCampaignResult)]
    if full and partial:
        raise SpecError("chaos report: mix of full and partial campaign "
                        "results; pass either one full result or a "
                        "complete set of shards")
    if len(full) > 1:
        raise SpecError("chaos report: pass exactly one full campaign "
                        f"result, got {len(full)}")
    result = full[0] if full else CampaignResult.merge(partial)
    if args.json:
        _print_json({"result": result.to_dict(),
                     "verdicts": result.counts()})
    else:
        print(format_report(result, limit=args.limit))
    if args.promote:
        paths = promote_failures(result, args.promote, limit=args.limit)
        for path in paths:
            print(f"promoted: {path}")
        if not paths:
            print("promoted: nothing (no failures to promote)")
    if args.fail_on_violation and result.violations:
        print(f"error: {len(result.violations)} invariant violation(s)",
              file=sys.stderr)
        return 3
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.serve import ingest_file

    options = {"harvester": args.harvester,
               "ambient_c": args.ambient,
               "skin_c": args.skin,
               "detection_tag": args.detection_tag,
               "step_s": args.step}
    spec, path = ingest_file(args.trace, args.name, out_dir=args.out,
                             **options)
    if args.json:
        _print_json({"spec": spec.to_dict(),
                     "path": None if path is None else str(path)})
        return 0
    segments = spec.timeline.segments
    total_s = sum(segment.duration_s for segment in segments)
    print(f"Ingested: {args.trace} -> scenario {spec.name!r}")
    print(f"  span       : {total_s / 3600.0:.2f} h across "
          f"{len(segments)} segment(s)")
    for segment in segments:
        label = segment.label or "(untagged)"
        print(f"    {label:20s} {segment.duration_s / 60.0:7.1f} min "
              f"at {segment.lux:10.1f} lx")
    rate = spec.system.policy.params.get("rate_per_min", 0.0)
    print(f"  load model : {spec.system.policy.name} "
          f"({rate:g} detections/min observed)")
    if path is not None:
        print(f"  wrote      : {path}")
        print(f"  run it     : python -m repro simulate {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The complete ``repro`` argument parser.

    Exposed separately from :func:`main` so tooling (the docs-check
    script, shell-completion generators) can enumerate every
    subcommand without executing one.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="InfiniWolf reproduction: regenerate the paper's "
                    "evaluation artefacts and run day-in-the-life scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    for name in sorted(_ARTIFACTS) + ["all"]:
        sub.add_parser(name, help=f"regenerate the {name} artefact"
                       if name != "all" else "regenerate every artefact")

    p_scenarios = sub.add_parser(
        "scenarios", help="inspect the built-in scenario library")
    p_scenarios.add_argument("action", choices=["list"],
                             help="what to do with the library")

    p_simulate = sub.add_parser(
        "simulate", help="run one named scenario end to end")
    p_simulate.add_argument("scenario", help="library scenario name "
                            "(see `scenarios list`) or a ScenarioSpec "
                            "*.json file (e.g. written by `ingest --out`)")
    p_simulate.add_argument("--json", action="store_true",
                            help="emit the spec and outcome as JSON")

    p_sweep = sub.add_parser(
        "sweep", help="run a batch of scenarios in parallel")
    p_sweep.add_argument("scenario", nargs="*",
                         help="library scenario names to sweep")
    p_sweep.add_argument("--all", dest="all_scenarios", action="store_true",
                         help="sweep every library scenario")
    p_sweep.add_argument("--from-json", metavar="DIR",
                         help="sweep every *.json scenario file in DIR "
                              "(one ScenarioSpec payload per file)")
    p_sweep.add_argument("--workers", type=int, default=4,
                         help="parallel workers (default 4)")
    p_sweep.add_argument("--backend", choices=["serial", "process"],
                         default="serial",
                         help="execution backend (default serial; process "
                              "uses the shared worker pool and needs "
                              "import-time registered components)")
    p_sweep.add_argument("--json", action="store_true",
                         help="emit the sweep result as JSON")

    p_search = sub.add_parser(
        "search", help="grid-search power policies over one scenario")
    p_search.add_argument("scenario", help="library scenario name to hold "
                          "fixed while policies vary")
    p_search.add_argument("--policy", action="append", metavar="NAME",
                          help="registered policy to include at default "
                               "params (repeatable)")
    p_search.add_argument("--grid", metavar="JSON",
                          help="JSON object: policy name -> "
                               "{param: [values, ...]} axes to sweep")
    p_search.add_argument("--workers", type=int, default=4,
                          help="parallel workers (default 4)")
    p_search.add_argument("--backend", choices=["serial", "process"],
                          default="serial",
                          help="execution backend (default serial)")
    p_search.add_argument("--json", action="store_true",
                          help="emit the ranked grid result as JSON")

    p_fleet = sub.add_parser(
        "fleet", help="population studies: stochastic wearer fleets")
    fleet_sub = p_fleet.add_subparsers(dest="fleet_command", required=True,
                                       metavar="action")
    fleet_sub.add_parser("list", help="inspect the built-in fleet library")

    def _fleet_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("fleet", help="library fleet name (see `fleet list`) "
                       "or a FleetSpec *.json file")
        p.add_argument("--workers", type=int, default=4,
                       help="parallel workers (default 4)")
        p.add_argument("--backend",
                       choices=["serial", "process", "vector"],
                       default="serial",
                       help="execution backend (default serial, the "
                            "scalar engine; vector steps the population "
                            "as numpy arrays in process, and process "
                            "runs those vector lanes in pool workers; "
                            "every backend gives a bitwise-identical "
                            "result)")
        p.add_argument("--json", action="store_true",
                       help="emit the fleet spec and result as JSON")

    p_fleet_run = fleet_sub.add_parser(
        "run", help="sample, sweep and summarise one fleet (or one "
                    "shard of it)")
    _fleet_common(p_fleet_run)
    p_fleet_run.add_argument(
        "--shard", metavar="I/N",
        help="run only shard I of an N-way partition (wearers with "
             "index %% N == I) and emit a partial result for "
             "`fleet merge`")
    p_fleet_run.add_argument(
        "--out", metavar="FILE",
        help="write the JSON payload to FILE instead of stdout")

    p_fleet_search = fleet_sub.add_parser(
        "search", help="rerun one sampled population under several "
                       "policies or a policy grid (ranked by fraction "
                       "energy-neutral, then p5 final SoC, then median "
                       "detections/day)")
    _fleet_common(p_fleet_search)
    p_fleet_search.add_argument(
        "--policy", action="append", metavar="NAME",
        help="registered policy to include at default params "
             "(repeatable; with neither --policy nor --grid every "
             "default-buildable policy competes)")
    p_fleet_search.add_argument(
        "--grid", metavar="JSON",
        help="JSON object: policy name -> {param: [values, ...]} axes "
             "to sweep")

    p_fleet_merge = fleet_sub.add_parser(
        "merge", help="reduce partial shard results to the exact "
                      "unsharded fleet result")
    p_fleet_merge.add_argument(
        "files", nargs="+", metavar="PART.json",
        help="partial result files written by `fleet run --shard I/N "
             "--out PART.json`; together they must cover every wearer "
             "exactly once")
    p_fleet_merge.add_argument("--json", action="store_true",
                               help="emit the fleet spec and merged "
                                    "result as JSON")
    p_fleet_merge.add_argument(
        "--out", metavar="FILE",
        help="write the JSON payload to FILE instead of stdout")

    p_fleet_orch = fleet_sub.add_parser(
        "orchestrate", help="drive a sharded fleet or chaos campaign "
                            "to completion: manifest on disk, "
                            "per-shard timeout, bounded retry with "
                            "backoff, crash-safe resume, exact merge")
    p_fleet_orch.add_argument(
        "dir", help="campaign workspace directory (holds the manifest, "
                    "shard outputs and the merged result)")
    p_fleet_orch.add_argument(
        "--fleet", metavar="NAME|FILE",
        help="start a fleet campaign: library fleet name or FleetSpec "
             "*.json file")
    p_fleet_orch.add_argument(
        "--chaos", metavar="FILE",
        help="start a chaos campaign: ChaosSpec *.json file (or a "
             "`chaos generate --out` envelope)")
    p_fleet_orch.add_argument(
        "--resume", action="store_true",
        help="continue the campaign already in DIR: shards whose "
             "outputs are on disk and valid are never re-simulated")
    p_fleet_orch.add_argument("--shards", type=int, default=4,
                              help="how many shard tasks (default 4)")
    p_fleet_orch.add_argument(
        "--timeout", type=float, default=600.0,
        help="per-shard wall-clock ceiling in seconds (default 600)")
    p_fleet_orch.add_argument(
        "--retries", type=int, default=2,
        help="retries per shard after the first attempt (default 2)")
    p_fleet_orch.add_argument(
        "--backoff", type=float, default=1.0,
        help="base of the exponential retry backoff in seconds "
             "(default 1.0)")
    p_fleet_orch.add_argument("--workers", type=int, default=4,
                              help="workers per shard task (default 4)")
    p_fleet_orch.add_argument(
        "--backend", choices=["serial", "process"],
        default="serial", help="backend per shard task (default serial)")
    p_fleet_orch.add_argument("--json", action="store_true",
                              help="emit the final summary as JSON")

    p_chaos = sub.add_parser(
        "chaos", help="chaos engineering: fault-injected adversarial "
                      "campaigns with an invariant judge")
    chaos_sub = p_chaos.add_subparsers(dest="chaos_command", required=True,
                                       metavar="action")
    chaos_sub.add_parser("axes", help="list the registered fault axes")

    def _chaos_campaign_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("spec", nargs="?",
                       help="ChaosSpec *.json file (or a `chaos "
                            "generate --out` envelope); omit to build "
                            "a campaign from the flags below")
        p.add_argument("--name", default="chaos",
                       help="campaign name when no spec file is given "
                            "(default 'chaos')")
        p.add_argument("--base-scenario", default="paper_indoor_worst_case",
                       help="library scenario the strategist mutates "
                            "(default paper_indoor_worst_case)")
        p.add_argument("--cases", type=int, default=8,
                       help="adversarial cases to compose (default 8)")
        p.add_argument("--days", type=int, default=2,
                       help="per-case horizon in days (default 2)")
        p.add_argument("--seed", type=int, default=0,
                       help="campaign seed; case i draws from "
                            "Random(seed + i) (default 0)")
        p.add_argument("--axis", action="append", metavar="NAME[:JSON]",
                       help="fault axis to apply, optionally with "
                            "params, e.g. battery_aging:"
                            "{\"min_fade\": 0.4} (repeatable; default: "
                            "every registered axis)")

    p_chaos_gen = chaos_sub.add_parser(
        "generate", help="compose the campaign's adversarial scenarios "
                         "(seeded, bitwise-reproducible) without "
                         "running them")
    _chaos_campaign_args(p_chaos_gen)
    p_chaos_gen.add_argument("--out", metavar="FILE",
                             help="write the JSON payload to FILE "
                                  "instead of stdout")

    p_chaos_run = chaos_sub.add_parser(
        "run", help="run every policy over the campaign's cases under "
                    "the invariant judge (or one shard of it)")
    _chaos_campaign_args(p_chaos_run)
    p_chaos_run.add_argument(
        "--policy", action="append", metavar="NAME",
        help="registered policy to include at default params "
             "(repeatable; default: every registered policy)")
    p_chaos_run.add_argument("--workers", type=int, default=4,
                             help="parallel workers (default 4)")
    p_chaos_run.add_argument(
        "--backend", choices=["serial", "process"],
        default="serial",
        help="execution backend (default serial; cases are "
             "self-contained, so process works)")
    p_chaos_run.add_argument(
        "--shard", metavar="I/N",
        help="run only shard I of an N-way partition (cases with "
             "index %% N == I) and emit a partial result")
    p_chaos_run.add_argument("--out", metavar="FILE",
                             help="write the JSON payload to FILE "
                                  "instead of stdout")
    p_chaos_run.add_argument("--json", action="store_true",
                             help="emit the judged campaign result as "
                                  "JSON")

    p_chaos_report = chaos_sub.add_parser(
        "report", help="digest judged campaign results; optionally "
                       "promote the worst failures to regression "
                       "scenarios")
    p_chaos_report.add_argument(
        "files", nargs="+", metavar="RESULT.json",
        help="one full campaign result, or a complete set of `chaos "
             "run --shard` partials (merged exactly)")
    p_chaos_report.add_argument(
        "--promote", metavar="DIR",
        help="write the most severe failures as self-contained "
             "regression scenario files under DIR")
    p_chaos_report.add_argument(
        "--limit", type=int, default=10,
        help="failures to list (and, with --promote, the promotion "
             "cap; default 10)")
    p_chaos_report.add_argument(
        "--fail-on-violation", action="store_true",
        help="exit 3 when any run violated a simulator invariant")
    p_chaos_report.add_argument("--json", action="store_true",
                                help="emit the result and verdict "
                                     "totals as JSON")

    p_store = sub.add_parser(
        "store", help="maintain a result store directory")
    store_sub = p_store.add_subparsers(dest="store_command", required=True,
                                       metavar="action")
    p_store_gc = store_sub.add_parser(
        "gc", help="evict least-recently-used entries until the store "
                   "fits a byte budget")
    p_store_gc.add_argument("store", metavar="DIR",
                            help="result store directory")
    p_store_gc.add_argument(
        "--max-bytes", type=int, required=True,
        help="byte budget the surviving entries must fit in "
             "(0 empties the store)")
    p_store_gc.add_argument("--json", action="store_true",
                            help="emit the eviction summary as JSON")

    p_serve = sub.add_parser(
        "serve", help="run the fleet service: an HTTP API over the "
                      "scenario/fleet runners with a content-addressed "
                      "result cache")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8751,
                         help="listen port (default 8751; 0 picks a "
                              "free ephemeral port)")
    p_serve.add_argument("--store", metavar="DIR",
                         help="result store directory (default "
                              ".repro-store; created if missing)")
    p_serve.add_argument("--workers", type=int, default=4,
                         help="simulation workers per request (default 4)")
    p_serve.add_argument("--backend",
                         choices=["serial", "process"],
                         default="serial",
                         help="simulation backend (default serial)")
    p_serve.add_argument("--smoke", action="store_true",
                         help="start a throwaway server, submit one "
                              "fleet twice, assert the resubmission is "
                              "a bitwise-identical cache hit, and exit")
    p_serve.add_argument("--timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="per-request wall-clock ceiling; a "
                              "request still running after this long "
                              "gets a 504 JSON error (default: none)")

    p_ingest = sub.add_parser(
        "ingest", help="fit a streamed power-telemetry trace (JSONL of "
                       "{t_s, power_w, event} records) into a runnable "
                       "scenario")
    p_ingest.add_argument("trace", metavar="TRACE.jsonl",
                          help="telemetry trace file, one JSON record "
                               "per line")
    p_ingest.add_argument("--name", required=True,
                          help="name for the fitted scenario (and its "
                               "--out file)")
    p_ingest.add_argument("--out", metavar="DIR",
                          help="register the scenario as DIR/NAME.json "
                               "(loadable by `simulate` and `sweep "
                               "--from-json`)")
    p_ingest.add_argument("--harvester", default="calibrated_dual",
                          help="registered harvester chain to invert "
                               "the power readings through (default "
                               "calibrated_dual)")
    p_ingest.add_argument("--ambient", type=float, default=22.0,
                          help="assumed air temperature during the "
                               "trace, Celsius (default 22.0)")
    p_ingest.add_argument("--skin", type=float, default=32.0,
                          help="assumed skin temperature during the "
                               "trace, Celsius (default 32.0)")
    p_ingest.add_argument("--detection-tag", default="detection",
                          help="event tag marking one detection "
                               "(default 'detection')")
    p_ingest.add_argument("--step", type=float, default=60.0,
                          help="simulation step for the fitted "
                               "scenario, seconds (default 60)")
    p_ingest.add_argument("--json", action="store_true",
                          help="emit the fitted spec (and output path) "
                               "as JSON")

    p_learn = sub.add_parser(
        "learn", help="oracle-supervised learned policy: dataset -> "
                      "train -> evaluate")
    learn_sub = p_learn.add_subparsers(dest="learn_command", required=True,
                                       metavar="action")
    p_learn_dataset = learn_sub.add_parser(
        "dataset", help="replay the oracle teacher over a fleet into "
                        "a canonical JSONL supervision dataset")
    p_learn_dataset.add_argument("fleet",
                                 help="library fleet name (see "
                                      "`repro fleet list`)")
    p_learn_dataset.add_argument("--wearers", type=int, default=0,
                                 help="cap the fleet at this many wearers "
                                      "(0 = the whole fleet)")
    p_learn_dataset.add_argument("--stride", type=int, default=1,
                                 help="record every Nth decision step "
                                      "(default 1 = all)")
    p_learn_dataset.add_argument("--lookahead", type=float, default=21600.0,
                                 help="oracle teacher lookahead window, "
                                      "seconds (default 21600 = 6 h)")
    p_learn_dataset.add_argument("--shard", metavar="I/N",
                                 help="generate only strided wearer "
                                      "partition I of N (merge parts "
                                      "with `repro learn merge`)")
    p_learn_dataset.add_argument("--out", metavar="FILE",
                                 help="write the JSONL dataset here "
                                      "instead of stdout")
    p_learn_merge = learn_sub.add_parser(
        "merge", help="reassemble a complete shard partition into the "
                      "exact unsharded dataset")
    p_learn_merge.add_argument("files", metavar="PART.jsonl", nargs="+",
                               help="the shard files, one per partition "
                                    "position")
    p_learn_merge.add_argument("--out", metavar="FILE",
                               help="write the merged JSONL dataset here "
                                    "instead of stdout")
    p_learn_train = learn_sub.add_parser(
        "train", help="fit the rate network to a dataset and package "
                      "it as deployable learned/learned_q policies")
    p_learn_train.add_argument("dataset", metavar="DATA.jsonl",
                               help="a `repro learn dataset` file")
    p_learn_train.add_argument("--hidden", default="8",
                               help="comma-separated hidden layer widths "
                                    "(default 8)")
    p_learn_train.add_argument("--epochs", type=int, default=200,
                               help="iRPROP- epochs (default 200)")
    p_learn_train.add_argument("--seed", type=int, default=0,
                               help="weight init seed (default 0)")
    p_learn_train.add_argument("--desired-mse", type=float, default=0.0,
                               help="stop early at this training MSE "
                                    "(default 0 = run all epochs)")
    p_learn_train.add_argument("--max-rate", type=float, default=24.0,
                               help="deployed policy rate ceiling, "
                                    "detections/min (default 24)")
    p_learn_train.add_argument("--out", metavar="FILE",
                               help="write the trained policy JSON here "
                                    "instead of stdout")
    p_learn_eval = learn_sub.add_parser(
        "eval", help="race the trained policy against every built-in "
                     "on a fleet and report the oracle gap closed")
    p_learn_eval.add_argument("trained", metavar="POLICY.json",
                              help="a `repro learn train` output file")
    p_learn_eval.add_argument("fleet", nargs="?",
                              help="fleet name or spec file (default: "
                                   "the full fleet the dataset came "
                                   "from)")
    p_learn_eval.add_argument("--workers", type=int, default=4,
                              help="parallel wearer simulations "
                                   "(default 4)")
    p_learn_eval.add_argument("--backend",
                              choices=["serial", "process"],
                              default="serial",
                              help="execution backend (default serial)")
    p_learn_eval.add_argument("--no-quantized", action="store_true",
                              help="skip the fixed-point learned_q "
                                   "variant")
    p_learn_eval.add_argument("--json", action="store_true",
                              help="emit the full evaluation report "
                                   "as JSON")
    p_learn_eval.add_argument("--out", metavar="FILE",
                              help="write the JSON report here")

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro``."""
    args = build_parser().parse_args(argv)

    if args.command == "all":
        for name in ("table1", "table2", "table3", "table4",
                     "detection", "sustainability", "modes"):
            _ARTIFACTS[name]()
            print()
        return 0
    if args.command in _ARTIFACTS:
        _ARTIFACTS[args.command]()
        return 0

    from repro.errors import ReproError

    try:
        if args.command == "scenarios":
            return _cmd_scenarios(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "search":
            return _cmd_search(args)
        if args.command == "fleet":
            return _cmd_fleet(args)
        if args.command == "chaos":
            return _cmd_chaos(args)
        if args.command == "store":
            return _cmd_store(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "ingest":
            return _cmd_ingest(args)
        if args.command == "learn":
            return _cmd_learn(args)
        return _cmd_sweep(args)
    except ReproError as exc:
        # Bad scenario names, worker counts etc. are user input errors:
        # report them like one instead of dumping a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
