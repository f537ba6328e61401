"""HRV metric tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.features import nn50, pnn50, rmssd, sdsd, successive_differences

rr_series = st.lists(st.floats(min_value=0.3, max_value=2.0, allow_nan=False),
                     min_size=3, max_size=100).map(np.array)

#: Intervals on a 2**-10 s grid: sums and differences of grid values are
#: exact in float64, so a shift cannot re-round an interval difference
#: across the 50 ms nn50 threshold.
GRID_S = 2.0 ** -10
dyadic_rr_series = st.lists(st.integers(min_value=308, max_value=2048),
                            min_size=3, max_size=100).map(
    lambda ticks: np.array(ticks) * GRID_S)
dyadic_shifts = st.integers(min_value=-102, max_value=102).map(
    lambda ticks: ticks * GRID_S)


class TestDefinitions:
    def test_known_rmssd(self):
        rr = np.array([0.8, 0.9, 0.8])  # diffs: +0.1, -0.1
        assert rmssd(rr) == pytest.approx(0.1)

    def test_known_sdsd(self):
        rr = np.array([0.8, 0.9, 0.8])  # diffs +0.1, -0.1 -> mean 0, sd 0.1
        assert sdsd(rr) == pytest.approx(0.1)

    def test_known_nn50(self):
        rr = np.array([0.80, 0.86, 0.89, 0.80])  # diffs: 60, 30, -90 ms
        assert nn50(rr) == 2

    def test_nn50_threshold_is_exclusive(self):
        rr = np.array([0.80, 0.85])  # exactly 50 ms
        assert nn50(rr) == 0

    def test_pnn50_fraction(self):
        rr = np.array([0.80, 0.86, 0.89, 0.80])
        assert pnn50(rr) == pytest.approx(2 / 3)

    def test_successive_differences(self):
        rr = np.array([0.8, 0.9, 0.7])
        np.testing.assert_allclose(successive_differences(rr), [0.1, -0.2])


class TestValidation:
    def test_too_short_series_rejected(self):
        with pytest.raises(ConfigurationError):
            rmssd(np.array([0.8]))

    def test_nonpositive_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            sdsd(np.array([0.8, -0.1, 0.9]))

    def test_2d_input_rejected(self):
        with pytest.raises(ConfigurationError):
            nn50(np.zeros((2, 2)) + 0.8)


class TestProperties:
    @given(rr_series)
    def test_rmssd_nonnegative(self, rr):
        assert rmssd(rr) >= 0.0

    @given(rr_series)
    def test_rmssd_at_least_sdsd(self, rr):
        """RMSSD^2 = SDSD^2 + mean(diff)^2, so RMSSD >= SDSD."""
        assert rmssd(rr) >= sdsd(rr) - 1e-12

    @given(rr_series)
    def test_pythagorean_identity(self, rr):
        diffs = successive_differences(rr)
        assert rmssd(rr) ** 2 == pytest.approx(
            sdsd(rr) ** 2 + np.mean(diffs) ** 2, abs=1e-12)

    @given(rr_series)
    def test_nn50_bounded_by_pairs(self, rr):
        assert 0 <= nn50(rr) <= len(rr) - 1

    @given(rr_series)
    def test_constant_series_has_zero_variability(self, rr):
        constant = np.full_like(rr, 0.8)
        assert rmssd(constant) == 0.0
        assert sdsd(constant) == 0.0
        assert nn50(constant) == 0

    @given(dyadic_rr_series, dyadic_shifts)
    def test_shift_invariance(self, rr, shift):
        """Adding a constant to every interval leaves diffs unchanged."""
        shifted = rr + shift
        assert rmssd(shifted) == pytest.approx(rmssd(rr), abs=1e-12)
        assert nn50(shifted) == nn50(rr)

    @given(rr_series)
    def test_time_reversal_invariance(self, rr):
        assert rmssd(rr[::-1]) == pytest.approx(rmssd(rr))
        assert sdsd(rr[::-1]) == pytest.approx(sdsd(rr))
        assert nn50(rr[::-1]) == nn50(rr)
