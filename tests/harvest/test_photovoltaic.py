"""Single-diode PV model tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import HarvestModelError
from repro.harvest.calibrated import solar_panel_params
from repro.harvest.photovoltaic import IVPoint, PVPanel, PVPanelParams

# No illuminance may overflow exp/Lambert-W, in the scalar or the
# lane solver: every test here fails on a RuntimeWarning.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.fixture
def panel():
    return PVPanel(solar_panel_params())


class TestParamValidation:
    def test_rejects_nonpositive_photocurrent(self):
        with pytest.raises(HarvestModelError):
            solar_panel_params(photocurrent_per_lux=0.0)

    def test_rejects_negative_series_resistance(self):
        with pytest.raises(HarvestModelError):
            solar_panel_params(series_resistance=-1.0)

    def test_rejects_zero_cells(self):
        with pytest.raises(HarvestModelError):
            PVPanelParams(photocurrent_per_lux=1e-7,
                          diode_saturation_current=1e-10,
                          diode_ideality=1.8, cells_in_series=0,
                          series_resistance=10.0, shunt_resistance=1e4)


class TestIVCurve:
    def test_short_circuit_current_close_to_photocurrent(self, panel):
        lux = 10_000.0
        isc = panel.short_circuit_current(lux)
        iph = panel.photocurrent(lux)
        # Rs/Rsh losses shave a little off, but Isc ~ Iph.
        assert 0.8 * iph < isc <= iph

    def test_current_decreases_with_voltage(self, panel):
        volts = np.linspace(0.0, panel.open_circuit_voltage(10_000.0), 100)
        amps = panel.current(volts, 10_000.0)
        assert np.all(np.diff(amps) < 0)

    def test_open_circuit_voltage_zero_current(self, panel):
        voc = panel.open_circuit_voltage(10_000.0)
        assert abs(panel.current(voc, 10_000.0)) < 1e-9

    def test_voc_grows_with_light(self, panel):
        voc_dim = panel.open_circuit_voltage(100.0)
        voc_bright = panel.open_circuit_voltage(30_000.0)
        assert voc_bright > voc_dim > 0

    def test_dark_panel_produces_nothing(self, panel):
        assert panel.open_circuit_voltage(0.0) == 0.0
        assert panel.maximum_power_point(0.0).power_w == 0.0

    def test_negative_lux_rejected(self, panel):
        with pytest.raises(HarvestModelError):
            panel.current(1.0, -5.0)

    def test_iv_curve_endpoints(self, panel):
        curve = panel.iv_curve(5_000.0, num_points=50)
        assert curve[0].voltage_v == 0.0
        assert curve[-1].current_a == pytest.approx(0.0, abs=1e-6)

    def test_zero_series_resistance_branch(self):
        params = PVPanelParams(photocurrent_per_lux=5e-7,
                               diode_saturation_current=1e-10,
                               diode_ideality=1.8, cells_in_series=5,
                               series_resistance=0.0, shunt_resistance=1e5)
        panel = PVPanel(params)
        isc = panel.short_circuit_current(10_000.0)
        assert isc == pytest.approx(panel.photocurrent(10_000.0), rel=1e-6)


class TestMaximumPower:
    def test_mpp_below_voc_above_zero(self, panel):
        mpp = panel.maximum_power_point(10_000.0)
        assert 0.0 < mpp.voltage_v < panel.open_circuit_voltage(10_000.0)
        assert mpp.power_w > 0.0

    def test_mpp_beats_all_sampled_points(self, panel):
        lux = 10_000.0
        mpp = panel.maximum_power_point(lux)
        for point in panel.iv_curve(lux, num_points=100):
            assert point.power_w <= mpp.power_w * (1.0 + 1e-6)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=100.0, max_value=50_000.0))
    def test_power_monotonic_in_lux(self, lux):
        panel = PVPanel(solar_panel_params())
        p_low = panel.maximum_power_point(lux).power_w
        p_high = panel.maximum_power_point(lux * 1.5).power_w
        assert p_high > p_low

    def test_fractional_voc_point_below_mpp(self, panel):
        lux = 10_000.0
        frac = panel.operating_point_at_fraction_voc(lux, 0.8)
        mpp = panel.maximum_power_point(lux)
        assert frac.power_w <= mpp.power_w
        # The 80 % rule is close to the true MPP for PV panels.
        assert frac.power_w >= 0.85 * mpp.power_w

    def test_fraction_validation(self, panel):
        with pytest.raises(HarvestModelError):
            panel.operating_point_at_fraction_voc(1000.0, 1.5)


class TestIVPoint:
    def test_power_is_product(self):
        assert IVPoint(2.0, 0.5).power_w == 1.0


def _fleet_lux() -> list[float]:
    """Every distinct illuminance three library fleets sample at seeds 0-4."""
    import dataclasses

    from repro.fleet import get_fleet, wearer_scenarios

    lux = set()
    for name in ("office_cohort_week", "overcast_commuters_fortnight",
                 "night_shift_ward_month"):
        for seed in range(5):
            fleet = dataclasses.replace(get_fleet(name), seed=seed)
            lux.update(segment.lux for spec in wearer_scenarios(fleet)
                       for segment in spec.timeline.segments)
    return sorted(lux)


def _ulp_neighbours(*centres: float) -> list[float]:
    return [value for centre in centres
            for value in (np.nextafter(centre, -np.inf), centre,
                          np.nextafter(centre, np.inf))]


LANE_GRIDS = {
    "linear_0_100klx": lambda: np.linspace(0.0, 1e5, 5004).tolist(),
    "log_1mlx_100klx": lambda: np.logspace(-3, 5, 1000).tolist(),
    "dark": lambda: [0.0],
    "ulp_700lx_30klx": lambda: _ulp_neighbours(700.0, 30_000.0),
    "library_fleets": _fleet_lux,
}


class TestLanes:
    """The lane solver must equal the scalar solver bitwise — no
    tolerance — on every grid the fleet engine can meet."""

    @pytest.mark.parametrize("grid", sorted(LANE_GRIDS))
    def test_lanes_match_scalar_bitwise(self, panel, grid):
        lux = LANE_GRIDS[grid]()
        voc = panel.open_circuit_voltage_lanes(lux)
        power = panel.power_at_fraction_voc_lanes(lux, 0.8)
        scalar_voc = [panel.open_circuit_voltage(value) for value in lux]
        scalar_power = [panel.operating_point_at_fraction_voc(value, 0.8).power_w
                        for value in lux]
        assert voc.tolist() == scalar_voc
        assert power.tolist() == scalar_power

    def test_lanes_reject_negative_lux(self, panel):
        with pytest.raises(HarvestModelError):
            panel.open_circuit_voltage_lanes([100.0, -1.0])

    def test_lanes_validate_fraction(self, panel):
        with pytest.raises(HarvestModelError):
            panel.power_at_fraction_voc_lanes([100.0], 1.0)


class TestBrightLightEdge:
    """Above ~2.8 Mlx the Lambert-W argument overflows float64; the
    Wright-omega branch must keep the model physical there."""

    LUX = [0.0, *np.logspace(-3, 7, 241).tolist()]

    def test_voc_and_intake_monotone_and_warning_free(self):
        import warnings

        from repro.harvest.calibrated import calibrated_solar_harvester
        from repro.harvest.environment import LightingCondition

        solar = calibrated_solar_harvester()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            voc = [solar.panel.open_circuit_voltage(lux) for lux in self.LUX]
            intake = [solar.battery_intake_w(LightingCondition(lux=lux))
                      for lux in self.LUX]
            lanes = solar.panel.open_circuit_voltage_lanes(self.LUX)
        assert np.all(np.diff(voc) >= 0.0)
        assert np.all(np.diff(intake) >= 0.0)
        assert voc[-1] > 5.0 and intake[-1] > 0.04
        assert lanes.tolist() == voc

    def test_iv_curve_finite_past_overflow(self, panel):
        curve = panel.iv_curve(1e7, num_points=20)
        assert all(np.isfinite(point.current_a) for point in curve)
        assert curve[0].current_a > 0.0
