import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmcwhar import domain_maps as dm
from fmcwhar.dsp import (
    DF2T_CHUNK,
    DspError,
    InvalidCutoff,
    IirCoeffs,
    butterworth_highpass,
    concentration,
    gaussian_windows,
    iir_filter,
    log_magnitude,
)
from fmcwhar.radar_io import EchoMatrix, RadarParams

from oracles import df2t_rows, gain_at, poles

# Order-4 high-pass at 0.0075 of Nyquist, designed independently with
# scipy.signal.butter (analog prototype + bilinear transform) and frozen.
BUTTER_4_0p0075_B = np.array([
    0.9696830640821985, -3.878732256328794, 5.818098384493191,
    -3.878732256328794, 0.9696830640821985,
])
BUTTER_4_0p0075_A = np.array([
    1.0, -3.938430361819403, 5.817179417349661,
    -3.8190340013782698, 0.9402852447678414,
])


def dft_direct(signal, window_values):
    """O(N^2) direct-sum oracle for the windowed DFT."""
    x = np.asarray(signal, dtype=np.complex128) * window_values
    n = x.size
    m = np.arange(n)
    kernel = np.exp(-2j * np.pi * np.outer(m, m) / n)
    return kernel @ x


def range_dft(chirps):
    """The chain's range DFT (``range_profiles``) of one chirp or a (n_chirps, N) stack."""
    rows = np.atleast_2d(chirps)
    params = RadarParams(5.8e9, 1e-3, rows.shape[1], 4e8)
    return dm.range_profiles(EchoMatrix(params=params, data=rows)).reshape(np.shape(chirps))


class TestWindows:
    def test_gaussian_peak_and_range(self):
        w = gaussian_windows(33, (4.0,))[0]
        assert w.max() == 1.0
        assert np.argmax(w) == 16
        assert np.all(w > 0) and np.all(w <= 1)

    @given(
        length=st.integers(min_value=2, max_value=257),
        alpha=st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_gaussian_symmetry(self, length, alpha):
        w = gaussian_windows(length, (alpha,))[0]
        np.testing.assert_allclose(w, w[::-1], rtol=0, atol=0)

    def test_invalid_alpha(self):
        with pytest.raises(DspError):
            gaussian_windows(8, (0.0,))
        with pytest.raises(DspError):
            gaussian_windows(0, (1.0,))


class TestDft:
    """``range_profiles``, the chain's range DFT, against the direct sum."""

    def test_dc_case(self):
        bins = range_dft(np.ones(8, dtype=complex))
        assert abs(bins[0] - 8.0) < 1e-12
        assert np.all(np.abs(bins[1:]) < 1e-12)

    def test_on_grid_tone(self):
        m = np.arange(16)
        bins = range_dft(np.exp(2j * np.pi * 3 * m / 16))
        assert abs(abs(bins[3]) - 16.0) < 1e-9
        others = np.delete(np.abs(bins), 3)
        assert np.all(others < 1e-9)

    def test_matches_direct_sum_n64(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        oracle = dft_direct(x, np.ones(64))
        assert np.max(np.abs(range_dft(x) - oracle)) / np.max(np.abs(oracle)) < 1e-9

    @pytest.mark.parametrize("n", [7, 24, 100, 128, 199, 256])
    def test_matches_direct_sum_all_sizes(self, n):
        rng = np.random.default_rng(n)
        chirps = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        for x, bins in zip(chirps, range_dft(chirps)):
            oracle = dft_direct(x, np.ones(n))
            assert np.max(np.abs(bins - oracle)) / np.max(np.abs(oracle)) < 1e-9

    @given(seed=st.integers(0, 2**31), n=st.integers(2, 128))
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, seed, n):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a, b = complex(rng.standard_normal(), rng.standard_normal()), 2.5 - 0.5j
        lhs = range_dft(a * x + b * y)
        rhs = a * range_dft(x) + b * range_dft(y)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1.0, np.max(np.abs(rhs)))

    @given(seed=st.integers(0, 2**31), n=st.integers(1, 256))
    @settings(max_examples=40, deadline=None)
    def test_parseval(self, seed, n):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        bins = range_dft(x)
        time_energy = np.sum(np.abs(x) ** 2)
        freq_energy = np.sum(np.abs(bins) ** 2) / n
        assert abs(time_energy - freq_energy) <= 1e-9 * time_energy


class TestButterworth:
    def test_dc_gain_is_zero(self):
        c = butterworth_highpass(4, 0.0075)
        assert abs(gain_at(c, 0.0)) <= 1e-10

    def test_nyquist_gain_is_one(self):
        c = butterworth_highpass(4, 0.0075)
        assert abs(abs(gain_at(c, 1.0)) - 1.0) < 1e-6

    def test_cutoff_gain_is_half_power(self):
        c = butterworth_highpass(4, 0.0075)
        assert abs(gain_at(c, 0.0075)) == pytest.approx(2 ** -0.5, rel=0.01)

    def test_matches_bilinear_transform_oracle(self):
        c = butterworth_highpass(4, 0.0075)
        np.testing.assert_allclose(c.b, BUTTER_4_0p0075_B, rtol=0, atol=1e-8)
        np.testing.assert_allclose(c.a, BUTTER_4_0p0075_A, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("order,cutoff", [(1, 0.1), (2, 0.0075), (4, 0.0075),
                                              (4, 0.3), (6, 0.05)])
    def test_poles_inside_unit_circle(self, order, cutoff):
        c = butterworth_highpass(order, cutoff)
        assert np.all(np.abs(poles(c)) < 1.0)

    @pytest.mark.parametrize("order,cutoff", [(2, 0.2), (3, 0.5), (5, 0.01)])
    def test_matches_scipy_for_other_designs(self, order, cutoff):
        scipy_signal = pytest.importorskip("scipy.signal")
        b, a = scipy_signal.butter(order, cutoff, btype="highpass")
        c = butterworth_highpass(order, cutoff)
        np.testing.assert_allclose(c.b, b, rtol=0, atol=1e-10)
        np.testing.assert_allclose(c.a, a, rtol=0, atol=1e-10)

    def test_invalid_cutoff(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(InvalidCutoff):
                butterworth_highpass(4, bad)

    def test_coeff_normalization(self):
        c = IirCoeffs(b=[2.0, 0.0], a=[2.0, 1.0])
        assert c.a[0] == 1.0
        assert c.b[0] == 1.0
        assert c.a[1] == 0.5


class TestIirFilter:
    def test_zero_input_zero_output(self):
        c = butterworth_highpass(4, 0.0075)
        out = iir_filter(c, np.zeros(64))
        np.testing.assert_array_equal(out, np.zeros(64))

    def test_identity_filter(self):
        c = IirCoeffs(b=[1, 0, 0, 0, 0], a=[1, 0, 0, 0, 0])
        x = np.zeros(16)
        x[0] = 1.0
        np.testing.assert_allclose(iir_filter(c, x), x, atol=0)

    def test_dc_rejection_steady_state(self):
        c = butterworth_highpass(4, 0.0075)
        y = iir_filter(c, np.ones(4096))
        assert abs(y[4095]) <= 1e-6

    def test_matches_scipy_lfilter(self):
        scipy_signal = pytest.importorskip("scipy.signal")
        rng = np.random.default_rng(3)
        x = rng.standard_normal(500)
        c = butterworth_highpass(4, 0.0075)
        np.testing.assert_allclose(
            iir_filter(c, x), scipy_signal.lfilter(c.b, c.a, x), rtol=0, atol=1e-10
        )

    def test_axis_and_complex_lanes(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((200, 5)) + 1j * rng.standard_normal((200, 5))
        c = butterworth_highpass(4, 0.0075)
        cols = iir_filter(c, x, axis=0)
        for j in range(5):
            np.testing.assert_allclose(cols[:, j], iir_filter(c, x[:, j]), atol=1e-12)
        # Real and imaginary parts filter independently under real coefficients.
        np.testing.assert_allclose(cols.real, iir_filter(c, x.real, axis=0), atol=1e-12)
        np.testing.assert_allclose(cols.imag, iir_filter(c, x.imag, axis=0), atol=1e-12)

    @pytest.mark.parametrize("complex_lanes", [False, True])
    def test_in_place_out_matches_fresh_output(self, complex_lanes):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((400, 6))
        if complex_lanes:
            x = x + 1j * rng.standard_normal((400, 6))
        c = butterworth_highpass(4, 0.0075)
        fresh = iir_filter(c, x, axis=0)
        xt = np.ascontiguousarray(x.T)
        assert iir_filter(c, xt, axis=1, out=xt) is xt
        np.testing.assert_array_equal(xt.T, fresh, strict=True)

    def test_in_place_matches_scipy_lfilter(self):
        scipy_signal = pytest.importorskip("scipy.signal")
        rng = np.random.default_rng(3)
        x = rng.standard_normal(500)
        c = butterworth_highpass(4, 0.0075)
        expected = scipy_signal.lfilter(c.b, c.a, x)
        iir_filter(c, x, out=x)
        np.testing.assert_allclose(x, expected, rtol=0, atol=1e-10)

    def test_out_must_match_shape_and_dtype(self):
        c = butterworth_highpass(4, 0.0075)
        x = np.ones((8, 3))
        with pytest.raises(DspError):
            iir_filter(c, x, out=np.empty((8, 2)))
        with pytest.raises(DspError):
            iir_filter(c, x, out=np.empty((8, 3), dtype=np.complex128))

    def test_zero_d_input_is_rejected(self):
        with pytest.raises(DspError, match="at least one axis"):
            iir_filter(butterworth_highpass(4, 0.0075), 3.0)

    @pytest.mark.parametrize("axis", [2, -3])
    def test_axis_out_of_range_is_rejected(self, axis):
        with pytest.raises(DspError, match="out of range"):
            iir_filter(butterworth_highpass(4, 0.0075), np.ones((8, 3)), axis=axis)

    @pytest.mark.parametrize("overlap", ["out_ahead", "out_behind", "out_transposed"])
    def test_out_overlapping_x_is_rejected(self, overlap):
        c = butterworth_highpass(4, 0.0075)
        buf = np.random.default_rng(5).standard_normal(49)
        before = buf.copy()
        x, out = {
            "out_ahead": (buf[:-1], buf[1:]),
            "out_behind": (buf[1:], buf[:-1]),
            "out_transposed": (buf.reshape(7, 7), buf.reshape(7, 7).T),
        }[overlap]
        with pytest.raises(DspError, match="overlaps"):
            iir_filter(c, x, out=out)
        np.testing.assert_array_equal(buf, before)


# One design per tap count; a[0] != 1 on the one- and three-tap designs.
# The two-pulse canceller's zero feedback tap lets a signed zero in the
# state reach the output.
DESIGNS = {
    "1tap": IirCoeffs(b=[1.5], a=[2.0]),
    "2pulse": IirCoeffs(b=[1.0, -1.0], a=[1.0, 0.0]),
    "2tap": butterworth_highpass(1, 0.1),
    "3tap": IirCoeffs(b=[0.2, -0.3, 0.1], a=[1.6, -0.4, 0.25]),
    "mti": butterworth_highpass(4, 0.0075),
}

# (shape, axis): 1-D, 2-D and 3-D inputs along every axis.
LAYOUTS = [
    ((37,), 0),
    ((37, 4), 0), ((4, 37), 1), ((4, 37), -1),
    ((37, 3, 2), 0), ((3, 37, 2), 1), ((3, 2, 37), -1),
]


def _lanes(rng, shape, complex_lanes):
    x = rng.standard_normal(shape)
    if complex_lanes:
        x = x + 1j * rng.standard_normal(shape)
    return x


class TestDf2tMatchesRowLoop:
    """The broadcast DF2T is byte-identical to the row loop it replaced."""

    @pytest.mark.parametrize("complex_lanes", [False, True])
    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_every_layout_and_out_buffer(self, design, complex_lanes):
        c = DESIGNS[design]
        rng = np.random.default_rng(11)
        for shape, axis in LAYOUTS:
            x = _lanes(rng, shape, complex_lanes)
            expected = df2t_rows(c.b, c.a, x, axis).tobytes()
            where = f"shape {shape}, axis {axis}"
            assert iir_filter(c, x, axis=axis).tobytes() == expected, where
            in_place = x.copy()
            assert iir_filter(c, in_place, axis=axis, out=in_place) is in_place
            assert in_place.tobytes() == expected, where
            transposed = np.empty(shape[::-1], dtype=x.dtype).T
            iir_filter(c, x, axis=axis, out=transposed)
            assert transposed.tobytes() == expected, where

    @pytest.mark.parametrize("in_place", [False, True])
    @pytest.mark.parametrize("complex_lanes", [False, True])
    @pytest.mark.parametrize("design", sorted(DESIGNS))
    @pytest.mark.parametrize("n", [1, DF2T_CHUNK - 1, DF2T_CHUNK, DF2T_CHUNK + 1,
                                   2 * DF2T_CHUNK + 3])
    def test_chunk_boundaries(self, n, design, complex_lanes, in_place):
        c = DESIGNS[design]
        x = _lanes(np.random.default_rng(n), (n, 3), complex_lanes)
        x[::4, 1] = -0.0
        expected = df2t_rows(c.b, c.a, x).tobytes()
        out = x if in_place else None
        assert iir_filter(c, x, out=out).tobytes() == expected

    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_no_lanes(self, design):
        c = DESIGNS[design]
        x = np.empty((2 * DF2T_CHUNK + 3, 0))
        y = iir_filter(c, x)
        assert y.shape == x.shape and y.dtype == np.float64
        assert y.tobytes() == df2t_rows(c.b, c.a, x).tobytes()

    @pytest.mark.parametrize("complex_lanes", [False, True])
    @pytest.mark.parametrize("design", ["2pulse", "2tap", "3tap", "mti"])
    def test_multi_tap_matches_scipy_bit_for_bit(self, design, complex_lanes):
        scipy_signal = pytest.importorskip("scipy.signal")
        c = DESIGNS[design]
        x = _lanes(np.random.default_rng(12), (300, 5), complex_lanes)
        x[:, 1] *= 0.0
        x[::3, 2] = -0.0
        expected = scipy_signal.lfilter(c.b, c.a, x, axis=0)
        assert iir_filter(c, x).tobytes() == expected.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), design=st.sampled_from(sorted(DESIGNS)),
           complex_lanes=st.booleans())
    def test_signed_zeros_and_zero_lanes(self, data, design, complex_lanes):
        c = DESIGNS[design]
        n = data.draw(st.integers(1, 12), label="samples")
        n_lanes = data.draw(st.integers(1, 4), label="lanes")
        value = st.one_of(
            st.sampled_from([0.0, -0.0]),
            st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
        )
        values = st.lists(value, min_size=n * n_lanes, max_size=n * n_lanes)
        zero_lanes = np.array(data.draw(
            st.lists(st.booleans(), min_size=n_lanes, max_size=n_lanes),
            label="zero_lanes"))
        x = np.empty((n, n_lanes), dtype=complex if complex_lanes else float)
        parts = (x.real, x.imag) if complex_lanes else (x,)
        for part in parts:
            part[...] = np.reshape(data.draw(values), (n, n_lanes))
            part[:, zero_lanes] *= 0.0  # keeps each zero's sign
        expected = df2t_rows(c.b, c.a, x).tobytes()
        assert iir_filter(c, x).tobytes() == expected
        assert iir_filter(c, x, out=x).tobytes() == expected


class TestLogMagnitude:
    def test_reference_points(self):
        assert log_magnitude(np.array([1.0]))[0] == 0.0
        assert log_magnitude(np.array([10.0]))[0] == pytest.approx(20.0)
        assert log_magnitude(np.array([0.0]))[0] == pytest.approx(-240.0)

    def test_complex_input_uses_modulus(self):
        assert log_magnitude(np.array([3 + 4j]))[0] == pytest.approx(20 * np.log10(5))


class TestConcentration:
    def test_single_bin(self):
        mag = np.zeros(64)
        mag[10] = 3.0
        assert concentration(mag) == pytest.approx(1.0, rel=1e-9)

    def test_n_equal_bins_closed_form(self):
        # (N A)^2 / (N A^2 + eps) ~= N, evaluated directly from the formula.
        for n in (2, 8, 33):
            mag = np.full(n, 0.7)
            expected = (n * 0.7) ** 2 / (n * 0.49 + 1e-12)
            assert concentration(mag) == pytest.approx(expected, rel=1e-12)
            assert concentration(mag) == pytest.approx(n, rel=1e-9)

    def test_zero_spectrum(self):
        assert concentration(np.zeros(16)) == 0.0

    def test_reduces_along_axis(self):
        rng = np.random.default_rng(7)
        mags = rng.uniform(0.0, 2.0, size=(3, 5, 16))
        for axis in (0, 1, -1):
            per_lane = np.apply_along_axis(concentration, axis, mags)
            np.testing.assert_array_equal(concentration(mags, axis=axis), per_lane)

    def test_rejects_negative(self):
        with pytest.raises(DspError):
            concentration(np.array([1.0, -0.5]))

    @given(
        seed=st.integers(0, 2**31),
        scale=st.floats(min_value=1.0, max_value=1e6),
    )
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, seed, scale):
        rng = np.random.default_rng(seed)
        v = rng.uniform(0.1, 2.0, size=32)
        base = concentration(v)
        scaled = concentration(scale * v)
        assert base * (1 - 1e-6) <= scaled <= base * (1 + 1e-6)
