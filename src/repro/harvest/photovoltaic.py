"""Single-diode photovoltaic panel model.

The panel follows the standard five-parameter single-diode equivalent
circuit: a photocurrent source in parallel with a diode and a shunt
resistance, in series with a series resistance.  The implicit I-V
relation

    I = I_ph - I_0 * (exp((V + I*Rs) / (Ns * n * Vt)) - 1) - (V + I*Rs) / Rsh

is solved in closed form with the Lambert-W function (scipy), which
keeps I-V sweeps fast and exact.  Where the Lambert-W argument
``a * exp(x)`` would overflow a float64 (several Mlx and up), the
solver evaluates ``W(exp(x + log a))`` as the Wright omega function
instead, so V_oc and power keep rising with light instead of
collapsing to zero.

The ``*_lanes`` methods price many illuminances at once: the same
expressions in the same order, with ``np.where`` choosing each lane's
bisection bracket, so every lane equals the scalar solver bitwise.

Thin-film amorphous-silicon panels like the SP3-12 track illuminance
(lux) well across spectra, so the photocurrent is parameterised
directly per lux.  The low-light efficiency collapse measured in
Table I (0.9 mW at 700 lx vs 24.7 mW at 30 klx — only 27x power for
43x light) emerges from the shunt-leakage and series-loss physics, not
from a lookup table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import lambertw, wrightomega

from repro.errors import HarvestModelError
from repro.units import thermal_voltage

__all__ = ["PVPanelParams", "PVPanel", "IVPoint"]

#: Largest ``x`` whose ``np.exp(x)`` is finite in float64.
_EXP_MAX = float(np.log(np.finfo(np.float64).max))


@dataclass(frozen=True)
class PVPanelParams:
    """Electrical parameters of a PV panel (possibly several in parallel).

    Attributes:
        photocurrent_per_lux: short-circuit photocurrent generated per
            lux of illuminance, in A/lx.
        diode_saturation_current: diode reverse saturation current I_0, A.
        diode_ideality: diode ideality factor n (a-Si is ~1.5-2).
        cells_in_series: number of series-connected cells Ns.
        series_resistance: lumped series resistance Rs, ohm.
        shunt_resistance: lumped shunt resistance Rsh, ohm.
        temperature_c: cell temperature for the diode thermal voltage.
    """

    photocurrent_per_lux: float
    diode_saturation_current: float
    diode_ideality: float
    cells_in_series: int
    series_resistance: float
    shunt_resistance: float
    temperature_c: float = 25.0

    def __post_init__(self) -> None:
        if self.photocurrent_per_lux <= 0:
            raise HarvestModelError("photocurrent_per_lux must be positive")
        if self.diode_saturation_current <= 0:
            raise HarvestModelError("diode_saturation_current must be positive")
        if self.diode_ideality <= 0:
            raise HarvestModelError("diode_ideality must be positive")
        if self.cells_in_series < 1:
            raise HarvestModelError("cells_in_series must be >= 1")
        if self.series_resistance < 0:
            raise HarvestModelError("series_resistance cannot be negative")
        if self.shunt_resistance <= 0:
            raise HarvestModelError("shunt_resistance must be positive")


@dataclass(frozen=True)
class IVPoint:
    """One electrical operating point.

    Attributes:
        voltage_v: terminal voltage.
        current_a: terminal current (positive = delivering power).
    """

    voltage_v: float
    current_a: float

    @property
    def power_w(self) -> float:
        """Electrical power delivered at this point."""
        return self.voltage_v * self.current_a


class PVPanel:
    """A photovoltaic panel evaluated through the single-diode model.

    Args:
        params: electrical parameters of the panel assembly.
    """

    def __init__(self, params: PVPanelParams) -> None:
        self.params = params

    # -- basic electrical quantities ------------------------------------------

    def _nvt(self) -> float:
        """Combined junction thermal voltage Ns * n * Vt."""
        p = self.params
        return p.cells_in_series * p.diode_ideality * thermal_voltage(p.temperature_c)

    def photocurrent(self, lux: float) -> float:
        """Photogenerated current at an illuminance, in amperes."""
        if lux < 0:
            raise HarvestModelError(f"illuminance cannot be negative: {lux}")
        return self.params.photocurrent_per_lux * lux

    def current(self, voltage_v, lux: float):
        """Terminal current at a terminal voltage (Lambert-W closed form).

        Accepts a scalar or array of voltages; returns the matching
        shape.  Valid in the power quadrant and slightly beyond (the
        formula itself holds for any V).
        """
        i = self._current(np.asarray(voltage_v, dtype=np.float64),
                          self.photocurrent(lux))
        if np.ndim(voltage_v) == 0:
            return float(i)
        return i

    def _current(self, v, i_ph):
        """Terminal current at voltages ``v`` under photocurrents ``i_ph``.

        Shared by the scalar and lane solvers; ``v`` and ``i_ph``
        broadcast elementwise.
        """
        p = self.params
        nvt = self._nvt()
        rs, rsh, i0 = p.series_resistance, p.shunt_resistance, p.diode_saturation_current
        if rs == 0.0:
            # No series resistance: the diode equation is explicit.
            return i_ph - i0 * np.expm1(v / nvt) - v / rsh
        # Standard Lambert-W solution of the implicit diode equation,
        # W(scale * exp(x)).
        scale = rs * i0 * rsh / (nvt * (rs + rsh))
        x = rsh * (v + rs * (i_ph + i0)) / (nvt * (rs + rsh))
        over = x > _EXP_MAX
        # A numpy scalar's .any() costs more than the whole comparison.
        if over.any() if isinstance(over, np.ndarray) else over:
            # exp(x) overflows: W(exp(y)) is wrightomega(y), with
            # y = x + log(scale).  Every physical panel has scale << 1,
            # so scale * exp(x) cannot overflow where exp(x) does not.
            w = np.where(over, wrightomega(x + np.log(scale)),
                         np.real(lambertw(scale * np.exp(np.where(over, 0.0, x)))))
        else:
            w = np.real(lambertw(scale * np.exp(x)))
        return (rsh * (i_ph + i0) - v) / (rs + rsh) - (nvt / rs) * w

    def short_circuit_current(self, lux: float) -> float:
        """Terminal current with the panel shorted."""
        return self.current(0.0, lux)

    def open_circuit_voltage(self, lux: float) -> float:
        """Terminal voltage at zero current, found by bisection."""
        if self.photocurrent(lux) <= 0.0:
            return 0.0
        # The current is strictly decreasing in V, so bisection is safe.
        v_hi = self._nvt() * np.log1p(self.photocurrent(lux)
                                      / self.params.diode_saturation_current)
        v_lo = 0.0
        for _ in range(80):
            mid = 0.5 * (v_lo + v_hi)
            if self.current(mid, lux) > 0.0:
                v_lo = mid
            else:
                v_hi = mid
        return 0.5 * (v_lo + v_hi)

    def open_circuit_voltage_lanes(self, lux) -> np.ndarray:
        """:meth:`open_circuit_voltage` of every illuminance in ``lux``.

        One lockstep bisection over all lanes: the same expressions in
        the same order, with ``np.where`` keeping each lane's bracket,
        so every lane equals the scalar solver bitwise.
        """
        lux = np.asarray(lux, dtype=np.float64)
        if np.any(lux < 0):
            raise HarvestModelError(
                f"illuminance cannot be negative: {lux[lux < 0][0]}")
        i_ph = self.params.photocurrent_per_lux * lux
        v_hi = self._nvt() * np.log1p(i_ph / self.params.diode_saturation_current)
        v_lo = np.zeros_like(v_hi)
        for _ in range(80):
            mid = 0.5 * (v_lo + v_hi)
            above = self._current(mid, i_ph) > 0.0
            v_lo = np.where(above, mid, v_lo)
            v_hi = np.where(above, v_hi, mid)
        return np.where(i_ph <= 0.0, 0.0, 0.5 * (v_lo + v_hi))

    # -- curves and maximum power ----------------------------------------------

    def iv_curve(self, lux: float, num_points: int = 200) -> list[IVPoint]:
        """Sample the I-V curve from short to open circuit."""
        voc = self.open_circuit_voltage(lux)
        if voc <= 0.0:
            return [IVPoint(0.0, 0.0)]
        volts = np.linspace(0.0, voc, num_points)
        amps = self.current(volts, lux)
        return [IVPoint(float(v), float(i)) for v, i in zip(volts, amps)]

    def maximum_power_point(self, lux: float) -> IVPoint:
        """True MPP found by golden-section search over the voltage axis."""
        voc = self.open_circuit_voltage(lux)
        if voc <= 0.0:
            return IVPoint(0.0, 0.0)
        phi = (np.sqrt(5.0) - 1.0) / 2.0
        lo, hi = 0.0, voc
        for _ in range(100):
            v1 = hi - phi * (hi - lo)
            v2 = lo + phi * (hi - lo)
            if v1 * self.current(v1, lux) < v2 * self.current(v2, lux):
                lo = v1
            else:
                hi = v2
        v = 0.5 * (lo + hi)
        return IVPoint(v, self.current(v, lux))

    def operating_point_at_fraction_voc(self, lux: float, fraction: float) -> IVPoint:
        """Operating point a fractional-V_oc MPPT regulator settles at.

        The BQ25570 periodically samples the panel's open-circuit
        voltage and then regulates the input to ``fraction`` of it
        (0.8 by default in the solar circuit).
        """
        if not 0.0 < fraction < 1.0:
            raise HarvestModelError(f"MPPT fraction must lie in (0, 1): {fraction}")
        voc = self.open_circuit_voltage(lux)
        v = fraction * voc
        return IVPoint(v, self.current(v, lux)) if voc > 0 else IVPoint(0.0, 0.0)

    def power_at_fraction_voc_lanes(self, lux, fraction: float) -> np.ndarray:
        """``operating_point_at_fraction_voc(lux, fraction).power_w`` of
        every illuminance in ``lux``, bitwise equal per lane."""
        if not 0.0 < fraction < 1.0:
            raise HarvestModelError(f"MPPT fraction must lie in (0, 1): {fraction}")
        lux = np.asarray(lux, dtype=np.float64)
        voc = self.open_circuit_voltage_lanes(lux)
        v = fraction * voc
        power = v * self._current(v, self.params.photocurrent_per_lux * lux)
        return np.where(voc > 0, power, 0.0)
