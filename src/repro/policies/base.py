"""The one call shape every power policy implements.

The paper's power manager "opportunistically take[s] advantage of
periods of overabundant energy and survive[s] intervals when the
system is starving".  This module defines the *shape* of any such
manager, so the day-in-the-life engine can step arbitrary policies
without knowing their internals:

* :class:`Policy` — the structural protocol:
  ``decide(time_s, step_s, harvest_power_w, state_of_charge) -> rate``
  plus a ``max_rate_per_min`` ceiling the engine uses to cap per-step
  execution (a brown-out backlog can never replay above it).
* :class:`BatchPolicy` — the optional ``decide_batch`` hook: the same
  signature, element-wise over per-wearer arrays (plus the optional
  ``stack`` hook that merges k candidates of one class).
* :class:`PolicyContext` — build-time facts a policy factory may need
  (per-detection energy, the environment timeline for lookahead
  policies, the harvesting chain).

Policies that keep per-run state (forecasts, counters) should expose a
``reset()`` method; the engine calls it at the start of every run so a
reused simulation object stays deterministic.

One call and its batch twin on the same inputs:

>>> import numpy as np
>>> from repro.scenarios import PolicySpec, build_policy
>>> policy = build_policy(PolicySpec("energy_aware"),
...                       PolicyContext(detection_energy_j=570e-6))
>>> policy.decide(0.0, 60.0, 1e-4, 0.5)
10.0
>>> policy.decide_batch(0.0, 60.0, np.array([1e-4]), np.array([0.5])).tolist()
[10.0]

This module deliberately imports nothing from :mod:`repro.core` or
:mod:`repro.scenarios` — it is the shared vocabulary both layers speak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.errors import ConfigurationError

__all__ = [
    "Policy",
    "BatchPolicy",
    "PolicyContext",
]


@runtime_checkable
class Policy(Protocol):
    """Structural protocol for pluggable power-manager policies.

    Anything with a ``max_rate_per_min`` ceiling and a ``decide``
    method of this signature is a policy; no inheritance required.
    Stateful policies may additionally expose ``reset()``, called by
    the engine at the start of each run, and batchable policies may
    expose ``decide_batch`` (see :class:`BatchPolicy`) so the
    vectorized fleet engine can decide for a whole population in one
    call.

    ``decide`` is called once per step with:

    * ``time_s`` — simulation time at the start of the step;
    * ``step_s`` — duration of the coming step;
    * ``harvest_power_w`` — the effective (fault-scaled) battery intake
      during the step (the environment is piecewise-constant, so
      "recent" and "current" harvest coincide within a segment);
    * ``state_of_charge`` — battery state of charge in [0, 1], read
      after the step's harvest was banked;

    and returns the detections per minute to run during the step.  The
    engine clamps the rate to ``max_rate_per_min`` and rejects a
    negative, NaN or non-numeric one.
    """

    max_rate_per_min: float

    def decide(self, time_s: float, step_s: float, harvest_power_w: float,
               state_of_charge: float) -> float: ...


@runtime_checkable
class BatchPolicy(Policy, Protocol):
    """A policy that can also decide for N wearers at once.

    The optional hook the vectorized fleet engine
    (:mod:`repro.fleet.vector`) dispatches on: policies exposing
    ``decide_batch`` step through the array engine, everything else
    falls back to the per-wearer scalar loop.  The contract is the
    same signature as :meth:`Policy.decide`, element-wise:

    * ``harvest_power_w`` and ``state_of_charge`` are parallel float64
      arrays, one entry per wearer; ``time_s``/``step_s`` are shared
      scalars (wearers step in lockstep).
    * The return value is the per-wearer detection rate (an array
      broadcastable to the wearer count), and entry ``i`` must be
      bit-for-bit the rate ``decide`` would return for wearer ``i``'s
      floats — the scalar engine is the oracle, and the differential
      harness asserts this equivalence.
    * The engine drives one policy object per candidate row: each
      array pass (:func:`repro.fleet.vector.simulate_grid_vector`)
      steps every batchable candidate of a policy grid as rows of one
      ``(candidate, wearer)`` lane block.  It calls each candidate's
      ``reset()`` (when it has one) once at the start of the pass,
      then, once per step, ``decide_batch`` with that candidate's row:
      1-D arrays over the chunk's wearers.  A stateful policy may
      therefore keep per-lane state (one array entry per wearer),
      cleared by ``reset()``; lane ``i`` must still evolve exactly as
      a fresh scalar run of wearer ``i`` would.
    * Optional ``stack(policies)`` hook, a classmethod: given k
      policies of this class, return one object whose
      ``decide_batch`` takes the same scalars and harvest array but a
      ``(k, wearers)`` SoC block, and returns rates broadcastable to
      that block, row ``r`` bit for bit what policy ``r`` returns for
      its row.  A run of consecutive grid candidates of one class with
      this hook then decides in one call per step, its parameters
      stacked as ``(k, 1)`` columns.  The built-in ``energy_aware``,
      ``static_duty_cycle`` and ``ewma_forecast`` have it; a policy
      without it simply decides its own row.
    """

    def decide_batch(self, time_s: float, step_s: float,
                     harvest_power_w, state_of_charge): ...


@dataclass(frozen=True)
class PolicyContext:
    """Build-time facts handed to registered policy factories.

    Attributes:
        detection_energy_j: energy of one stress detection — what the
            energy-neutral rate is priced against.
        sleep_power_w: baseline draw on top of detections.
        step_s: the simulation step the policy will be driven at.
        timeline: the environment over the horizon, when the scenario
            has been built (lookahead/oracle policies need it).
        harvester: the harvesting chain, for policies that price the
            timeline themselves.
    """

    detection_energy_j: float
    sleep_power_w: float = 0.0
    step_s: float = 60.0
    timeline: object | None = None
    harvester: object | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.detection_energy_j < math.inf:
            raise ConfigurationError(
                f"detection energy must be positive and finite, got "
                f"{self.detection_energy_j!r}")
        if self.sleep_power_w < 0:
            raise ConfigurationError("sleep power cannot be negative")
        if self.step_s <= 0:
            raise ConfigurationError("step size must be positive")
