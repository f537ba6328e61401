"""InfiniWolf reproduction library.

A production-quality Python reproduction of "InfiniWolf: Energy
Efficient Smart Bracelet for Edge Computing with Dual Source Energy
Harvesting" (Magno et al., DATE 2020): dual-source energy harvesting
models, processor timing/energy models for the nRF52832 and the
Mr. Wolf PULP SoC, a FANN-compatible MLP stack, the stress-detection
pipeline, and a whole-system self-sustainability simulation.

Subpackages
-----------
- :mod:`repro.quant` — fixed-point arithmetic substrate.
- :mod:`repro.fann` — FANN-compatible MLP library (Networks A/B).
- :mod:`repro.timing` — calibrated cycle/energy models (Tables III/IV).
- :mod:`repro.isa` — instruction-set simulators (RV32IM, XpulpV2,
  ARMv7E-M subset) for bottom-up validation.
- :mod:`repro.harvest` — solar/TEG harvesting models (Tables I/II).
- :mod:`repro.power` — battery, fuel gauge, regulators, load models.
- :mod:`repro.sensors` — synthetic ECG/GSR and the drivedb-like
  stress dataset generator.
- :mod:`repro.features` — HRV and GSR feature extraction.
- :mod:`repro.core` — the InfiniWolf device/application/sustainability
  models and the day-in-the-life simulator.
- :mod:`repro.policies` — pluggable power-manager policies behind one
  call, ``decide(time_s, step_s, harvest_power_w, state_of_charge) ->
  rate``, plus policy grid search.
- :mod:`repro.scenarios` — the declarative scenario API: serializable
  specs, component registries, the spec->system builder, the built-in
  scenario library and the parallel batch runner.
- :mod:`repro.fleet` — fleet-scale stochastic wearer studies: seeded
  timeline samplers, per-wearer scenario generation, and population
  statistics over any sweep backend.
- :mod:`repro.lab` — emulated measurement instruments (SMU, chamber).
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
