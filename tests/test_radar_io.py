import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmcwhar import radar_io
from fmcwhar.radar_io import (
    EchoMatrix,
    EmptyPayload,
    NonPositiveParam,
    RadarIoError,
    RadarParams,
    ShapeMismatch,
    TruncatedHeader,
    parse_dat,
    write_dat,
)

GLASGOW = RadarParams(5.8e9, 1e-3, 128, 4e8)


def ascii_stream(header, entries):
    lines = [repr(float(h)) for h in header]
    for v in entries:
        v = complex(v)
        sign = "+" if v.imag >= 0 else ""
        lines.append(f"{v.real!r}{sign}{v.imag!r}i")
    return ("\n".join(lines) + "\n").encode()


def test_parse_exact_division():
    rng = np.random.default_rng(0)
    payload = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    params, echo, discarded = parse_dat(ascii_stream([5.8e9, 1e-3, 128, 4e8], payload))
    assert params == GLASGOW
    assert echo.data.shape == (2, 128)
    assert discarded == 0
    np.testing.assert_array_equal(echo.data.reshape(-1), payload)


def test_parse_discards_partial_chirp():
    payload = np.arange(300) + 0j
    params, echo, discarded = parse_dat(ascii_stream([5.8e9, 1e-3, 128, 4e8], payload))
    assert echo.data.shape == (2, 128)
    assert discarded == 44
    # Row-major reshape: element (n, m) is payload entry n*N_s + m.
    assert echo.data[1, 3] == payload[1 * 128 + 3]


def test_glasgow_header_derived_constants():
    assert GLASGOW.chirp_slope_hz_per_s == pytest.approx(4.0e11)
    assert GLASGOW.wavelength_m == pytest.approx(0.05169, abs=5e-6)
    assert GLASGOW.sample_rate_hz == pytest.approx(128e3)


def test_truncated_header():
    with pytest.raises(TruncatedHeader):
        parse_dat(b"5.8e9\n1e-3\n128\n")
    with pytest.raises(TruncatedHeader, match="3 entries"):
        parse_dat(b"5.8e9\n\n1e-3\n  \n128\n\n")


def test_ascii_errors_name_their_line():
    # Blank lines count toward the line number but hold no entry.
    raw = b"5.8e9\n0.001\n\n2\n4e8\n1+2i\n3-4x\n"
    with pytest.raises(radar_io.RadarIoError, match="line 7: cannot parse entry '3-4x'"):
        parse_dat(raw)
    with pytest.raises(radar_io.RadarIoError, match="line 3: cannot parse"):
        parse_dat(b"5.8e9\n0.001\nabc\n4e8\n")


def test_ascii_non_finite_sample():
    with pytest.raises(radar_io.NonFiniteSample, match="payload entry 2"):
        parse_dat(b"5.8e9\n0.001\n2\n4e8\n1+2i\nnan\n")


def test_nonpositive_param():
    with pytest.raises(NonPositiveParam):
        parse_dat(ascii_stream([5.8e9, -1e-3, 128, 4e8], np.ones(128)))


@pytest.mark.parametrize("field", range(4))
def test_param_must_be_a_number(field):
    for bad in (True, "128"):
        values = [5.8e9, 1e-3, 128, 4e8]
        values[field] = bad
        with pytest.raises(NonPositiveParam, match="must be a number"):
            RadarParams(*values)


def test_empty_payload():
    with pytest.raises(EmptyPayload):
        parse_dat(ascii_stream([5.8e9, 1e-3, 128, 4e8], np.ones(100)))


def test_echo_shape_must_match_params():
    with pytest.raises(ShapeMismatch):
        EchoMatrix(params=GLASGOW, data=np.zeros((2, 64), dtype=complex))


@pytest.mark.parametrize("codec", ["ascii", "binary"])
def test_round_trip_2x128(codec):
    rng = np.random.default_rng(1)
    data = rng.standard_normal((2, 128)) + 1j * rng.standard_normal((2, 128))
    echo = EchoMatrix(params=GLASGOW, data=data)
    raw = write_dat(GLASGOW, echo, codec=codec)
    params2, echo2, discarded = parse_dat(raw, codec=codec)
    assert params2 == GLASGOW
    assert discarded == 0
    np.testing.assert_array_equal(echo2.data, data)
    # Byte-identical on a second pass.
    assert write_dat(params2, echo2, codec=codec) == raw


@pytest.mark.parametrize("codec", ["ascii", "binary"])
def test_round_trip_1x1(codec):
    params = RadarParams(5.8e9, 1e-3, 1, 4e8)
    echo = EchoMatrix(params=params, data=np.array([[0.25 - 3.5j]]))
    raw = write_dat(params, echo, codec=codec)
    _, echo2, _ = parse_dat(raw, codec=codec)
    np.testing.assert_array_equal(echo2.data, echo.data)
    assert write_dat(params, echo2, codec=codec) == raw


def test_round_trip_synth_fall_scene(tmp_path):
    from fmcwhar import synth

    scene = synth.activity_template("fall", seed=7)
    params = RadarParams(5.8e9, 1e-3, 64, 4e8)
    echo = synth.generate(scene, params)
    for name in ("fall.dat", "fall.datb"):
        path = tmp_path / name
        radar_io.save_recording(path, params, echo)
        params2, echo2, discarded = radar_io.load_recording(path)
        assert params2 == params
        assert discarded == 0
        np.testing.assert_array_equal(echo2.data, echo.data)


def test_write_rejects_mismatched_params():
    other = RadarParams(2.4e9, 1e-3, 128, 4e8)
    echo = EchoMatrix(params=GLASGOW, data=np.zeros((1, 128), dtype=complex))
    with pytest.raises(ShapeMismatch):
        write_dat(other, echo)


@given(st.binary(max_size=512))
@settings(max_examples=200, deadline=None)
def test_parser_never_panics_on_garbage(raw):
    for codec in ("ascii", "binary"):
        try:
            parse_dat(raw, codec=codec)
        except RadarIoError:
            pass


@given(
    n_chirps=st.integers(min_value=1, max_value=4),
    n_s=st.integers(min_value=1, max_value=16),
    codec=st.sampled_from(["ascii", "binary"]),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=50, deadline=None)
def test_round_trip_property(n_chirps, n_s, codec, seed):
    rng = np.random.default_rng(seed)
    params = RadarParams(5.8e9, 1e-3, n_s, 4e8)
    data = rng.standard_normal((n_chirps, n_s)) + 1j * rng.standard_normal((n_chirps, n_s))
    echo = EchoMatrix(params=params, data=data)
    raw = write_dat(params, echo, codec=codec)
    params2, echo2, _ = parse_dat(raw, codec=codec)
    assert params2 == params
    np.testing.assert_array_equal(echo2.data, data)


def test_ascii_accepts_matlab_and_python_suffixes():
    raw = b"5.8e9\n0.001\n2\n4e8\n1+2i\n3-4j\n-5.0\n0.5i\n"
    params, echo, _ = parse_dat(raw)
    assert params.samples_per_chirp == 2
    np.testing.assert_array_equal(
        echo.data, np.array([[1 + 2j, 3 - 4j], [-5.0 + 0j, 0.5j]])
    )
