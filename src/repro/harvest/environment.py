"""Environmental conditions driving the harvesting models.

The paper characterises the transducers at five operating points:
two lighting conditions (Table I) and three thermal conditions
(Table II).  This module defines the condition value types and those
presets, plus simple time-varying profiles used by the day-in-the-life
simulation.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from repro.errors import HarvestModelError
from repro.units import kmh_to_ms

__all__ = [
    "LightingCondition",
    "ThermalCondition",
    "EnvironmentTimeline",
    "EnvironmentSample",
    "INDOOR_OFFICE_700LX",
    "OUTDOOR_SUN_30KLX",
    "DARKNESS",
    "TEG_ROOM_22C_NO_WIND",
    "TEG_ROOM_15C_NO_WIND",
    "TEG_ROOM_15C_WIND_42KMH",
]


@dataclass(frozen=True)
class LightingCondition:
    """Illumination hitting the watch face.

    Attributes:
        lux: illuminance at the panel surface.
        description: human-readable label used in reports.
    """

    lux: float
    description: str = ""

    def __post_init__(self) -> None:
        if not math.isfinite(self.lux):
            raise HarvestModelError(f"illuminance lux must be finite: "
                                    f"{self.lux}")
        if self.lux < 0:
            raise HarvestModelError(f"illuminance cannot be negative: {self.lux}")


@dataclass(frozen=True)
class ThermalCondition:
    """Thermal environment at the wrist.

    Attributes:
        ambient_c: room/air temperature in °C.
        skin_c: wrist skin temperature in °C.
        wind_ms: air speed over the watch in m/s (0 = still air).
        description: human-readable label used in reports.
    """

    ambient_c: float
    skin_c: float
    wind_ms: float = 0.0
    description: str = ""

    def __post_init__(self) -> None:
        for name in ("ambient_c", "skin_c", "wind_ms"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise HarvestModelError(
                    f"thermal {name} must be finite: {value}")
        if self.wind_ms < 0:
            raise HarvestModelError(f"wind speed cannot be negative: {self.wind_ms}")

    @property
    def body_delta_t(self) -> float:
        """Temperature difference skin minus ambient, in kelvin."""
        return self.skin_c - self.ambient_c


@dataclass(frozen=True)
class EnvironmentSample:
    """Joint lighting + thermal conditions during one timeline segment.

    Attributes:
        duration_s: how long these conditions last.
        lighting: illumination during the segment.
        thermal: thermal environment during the segment.
    """

    duration_s: float
    lighting: LightingCondition
    thermal: ThermalCondition

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise HarvestModelError("segment duration must be positive")


class EnvironmentTimeline:
    """A piecewise-constant environment over a day (or any horizon).

    Args:
        segments: ordered environment segments; total duration is their
            sum.
    """

    def __init__(self, segments: list[EnvironmentSample]) -> None:
        if not segments:
            raise HarvestModelError("a timeline needs at least one segment")
        # A tuple so the precomputed boundaries below can never go
        # stale: a timeline is frozen at construction.
        self.segments: tuple[EnvironmentSample, ...] = tuple(segments)
        # Cumulative end times of every segment, accumulated left to
        # right exactly as a linear scan would, so bisecting them gives
        # the same segment a scan over running sums does.
        self.boundaries_s: tuple[float, ...] = tuple(
            accumulate(seg.duration_s for seg in self.segments))

    @property
    def total_duration_s(self) -> float:
        """Length of the whole timeline in seconds."""
        return self.boundaries_s[-1]

    def index_at(self, t_s: float) -> int:
        """Index of the segment active at time ``t_s`` (O(log n)).

        Times at or beyond the end map to the final segment, so a
        simulation can run slightly past the horizon without errors.
        """
        if t_s < 0:
            raise HarvestModelError(f"time cannot be negative: {t_s}")
        return min(bisect_right(self.boundaries_s, t_s),
                   len(self.segments) - 1)

    def at(self, t_s: float) -> EnvironmentSample:
        """Conditions active at time ``t_s`` from the timeline start."""
        return self.segments[self.index_at(t_s)]

    def indices_at(self, times_s) -> list[int]:
        """Segment indices active at a non-decreasing sequence of times.

        The batch form of :meth:`index_at`, walked with the same
        monotone cursor the simulation engine keeps (advance while the
        time has passed the current segment's end boundary), so the
        returned indices are exactly the segments the engine's stepping
        loop evaluates at those times.  Times at or beyond the timeline
        end map to the final segment, as in :meth:`index_at`.
        """
        indices: list[int] = []
        idx = 0
        last = len(self.segments) - 1
        boundaries = self.boundaries_s
        previous = None
        for t_s in times_s:
            if t_s < 0:
                raise HarvestModelError(f"time cannot be negative: {t_s}")
            if previous is not None and t_s < previous:
                raise HarvestModelError(
                    "indices_at needs non-decreasing times (the cursor "
                    "only moves forward); use index_at for random access")
            previous = t_s
            while idx < last and t_s >= boundaries[idx]:
                idx += 1
            indices.append(idx)
        return indices

    def repeated(self, times: int) -> "EnvironmentTimeline":
        """A new timeline with these segments tiled ``times`` times.

        The multi-day building block: a one-day timeline repeated 30
        times is a deterministic month (stochastic per-day variation
        is the fleet layer's job, see :mod:`repro.fleet.samplers`).
        """
        if times < 1 or times != int(times):
            raise HarvestModelError(
                f"repeat count must be a positive integer, got {times!r}")
        return EnvironmentTimeline(list(self.segments) * int(times))

    def __iter__(self):
        return iter(self.segments)


# --- Table I lighting presets ------------------------------------------------

INDOOR_OFFICE_700LX = LightingCondition(lux=700.0, description="indoor office, 700 lx")
OUTDOOR_SUN_30KLX = LightingCondition(lux=30_000.0, description="outdoor with sun, 30 klx")
DARKNESS = LightingCondition(lux=0.0, description="darkness")

# --- Table II thermal presets ------------------------------------------------

TEG_ROOM_22C_NO_WIND = ThermalCondition(
    ambient_c=22.0, skin_c=32.0, wind_ms=0.0,
    description="room 22 C, skin 32 C, no wind",
)
TEG_ROOM_15C_NO_WIND = ThermalCondition(
    ambient_c=15.0, skin_c=30.0, wind_ms=0.0,
    description="room 15 C, skin 30 C, no wind",
)
TEG_ROOM_15C_WIND_42KMH = ThermalCondition(
    ambient_c=15.0, skin_c=30.0, wind_ms=kmh_to_ms(42.0),
    description="room 15 C, skin 30 C, 42 km/h wind",
)
