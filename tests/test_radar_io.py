import math
import os
import random
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmcwhar import domain_maps as dm
from fmcwhar import radar_io
from fmcwhar.augment import AugmentError, AugmentPolicy
from fmcwhar.nn.config import StageSpec, preset
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
from fmcwhar.training import TrainConfig, TrainingError
from oracles import _traced_peak, parse_ascii_reference, write_dat_reference

GLASGOW = RadarParams(5.8e9, 1e-3, 128, 4e8)

# What an ASCII stream is built from: the ASCII line boundaries of
# splitlines(), the in-line whitespace it keeps, numbers with the spellings
# complex() knows, and the imaginary markers.
LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]
INLINE_SPACE = [" ", "\t", "\x1f"]
FINITE = ["0", "1", "2.5", "0.0", "-0.0", "+0.0", "-3e-2", "1e300", "7_5"]
NUMBERS = FINITE + ["inf", "Inf", "-infinity", "nan", "NaN"]
MARKERS = ["i", "I", "j", "J"]
ASCII_ALPHABET = "".join(sorted(set("".join(
    LINE_BREAKS + INLINE_SPACE + NUMBERS + MARKERS + ["()+-x"]))))
VALID_HEADER = "5.8e9\n1e-3\n2\n4e8\n"
# Parser block sizes that put a block edge after nearly every line.
SMALL_BLOCKS = [1, 7]


def ascii_stream(header, entries):
    lines = [repr(float(h)) for h in header]
    lines.extend(f"{v.real!r}{v.imag:+}i" for v in map(complex, entries))
    return ("\n".join(lines) + "\n").encode()


def _random_line(rng, noise):
    """One line of a stream: a real, imaginary or complex entry, sometimes
    parenthesized or garbage, with in-line whitespace strewn in; the more
    noise, the more garbage and non-finite numbers."""
    if rng.random() < noise:
        return "".join(rng.choices(ASCII_ALPHABET, k=rng.randint(0, 6)))
    numbers = NUMBERS if rng.random() < noise else FINITE
    parts = [rng.choice(numbers)]
    form = rng.choices(["real", "imag", "complex", "paren"], weights=[4, 4, 10, 1])[0]
    if form != "real":
        if form != "imag":
            parts += [rng.choice("+-"), rng.choice(numbers).lstrip("+-")]
        parts.append(rng.choice(MARKERS))
    if form == "paren":
        parts = ["(", *parts, ")"]
    spaced = []
    for part in parts:
        if rng.random() < 0.2:
            spaced.append(rng.choice(INLINE_SPACE))
        spaced.append(part)
    return "".join(spaced)


def _random_ascii_stream(rng):
    noise = rng.choice([0.0, 0.02, 0.1, 0.3])
    lines = [] if rng.random() < 0.2 else VALID_HEADER.split()
    lines += [_random_line(rng, noise) for _ in range(rng.randint(0, 8))]
    for _ in range(rng.randint(0, 2)):
        lines.insert(rng.randint(0, len(lines)), rng.choice(["", *INLINE_SPACE]))
    text = "".join(line + rng.choice(LINE_BREAKS) for line in lines)
    return text[:-1] if text and rng.random() < 0.3 else text


def _outcome(parse, raw):
    try:
        params, echo, discarded = parse(raw)
    except RadarIoError as exc:
        return type(exc), str(exc)
    return params, echo.data.tobytes(), discarded


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


def test_sample_count_must_fit_a_float():
    with pytest.raises(NonPositiveParam, match="finite and > 0"):
        RadarParams(5.8e9, 1e-3, 10**400, 4e8)


# Every record that ``check_field_types`` guards, with the error it raises.
FIELD_RULE_RECORDS = [
    (GLASGOW, NonPositiveParam),
    (dm.Axis("time", "s", 0.0, 1.0), dm.DomainMapError),
    (StageSpec(8, 3, 1, 1), ValueError),
    (preset("toy"), ValueError),
    (TrainConfig(), TrainingError),
    (AugmentPolicy(), AugmentError),
]


def _field_cases(types, values):
    """One case per field of ``types`` in every guarded record, and per
    (label, value) pair that ``values`` gives for the field's type."""
    for record, error in FIELD_RULE_RECORDS:
        for f in fields(record):
            if f.type in types:
                for label, value in values(f.type):
                    yield pytest.param(record, f.name, value, error,
                                       id=f"{type(record).__name__}.{f.name}-{label}")


def _numeric_field_cases():
    """Every value the rule rejects in a numeric field."""
    common = [("true", True), ("string", "1"), ("null", None), ("nan", math.nan),
              ("inf", math.inf), ("minus_inf", -math.inf)]
    extra = {"int": [("fraction", 1.5)], "float": [("huge_int", 10**400)]}
    return _field_cases(extra, lambda kind: common + extra[kind])


@pytest.mark.parametrize("record, name, value, error", _numeric_field_cases())
def test_numeric_field_rule(record, name, value, error):
    with pytest.raises(error):
        replace(record, **{name: value})


@pytest.mark.parametrize("record, name, value, error", _field_cases(
    {"str"}, lambda kind: [("null", None), ("int", 5), ("true", True), ("list", ["toy"])]))
def test_string_field_rule(record, name, value, error):
    with pytest.raises(error, match="must be a string"):
        replace(record, **{name: value})


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


@pytest.mark.parametrize("codec", ["ascii", "binary"])
def test_round_trip_keeps_signed_zeros(codec):
    params = RadarParams(5.8e9, 1e-3, 3, 4e8)
    data = np.empty((2, 3), dtype=np.complex128)
    data.real = [[0.0, -0.0, 0.0], [-0.0, 2.0, -2.0]]
    data.imag = [[0.0, 0.0, -0.0], [-0.0, -0.0, -0.0]]
    raw = write_dat(params, EchoMatrix(params=params, data=data), codec=codec)
    _, echo2, _ = parse_dat(raw, codec=codec)
    np.testing.assert_array_equal(echo2.data, data)
    np.testing.assert_array_equal(np.signbit(echo2.data.real), np.signbit(data.real))
    np.testing.assert_array_equal(np.signbit(echo2.data.imag), np.signbit(data.imag))
    assert write_dat(params, echo2, codec=codec) == raw


def test_bulk_pass_agrees_with_per_line_rule():
    rng = random.Random(7)
    accepted = rejected = parsed = 0
    for _ in range(3000):
        raw = _random_ascii_stream(rng).encode("ascii")
        bulk = radar_io._entries_bulk(raw)
        if bulk is None:
            rejected += 1
        else:
            accepted += 1
            header, payload = radar_io._entries_per_line(raw)
            assert np.array(bulk[0], np.complex128).tobytes() == \
                np.array(header, np.complex128).tobytes(), raw
            assert bulk[1].tobytes() == payload.tobytes(), raw
        outcome = _outcome(parse_dat, raw)
        assert outcome == _outcome(parse_ascii_reference, raw), raw
        parsed += isinstance(outcome[0], RadarParams)
    # Each side of the split, and the whole parse, is exercised.
    assert min(accepted, rejected, parsed) > 500, (accepted, rejected, parsed)


@pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["lf", "crlf"])
def test_clean_input_takes_the_bulk_pass(monkeypatch, newline):
    from fmcwhar import synth

    params = RadarParams(5.8e9, 1e-3, 64, 4e8)
    echo = synth.generate(synth.activity_template("walk", seed=3), params)
    raw = write_dat(params, echo, codec="ascii").replace(b"\n", newline)

    def per_line_rule(token, lineno):
        raise AssertionError(f"line {lineno} fell back to the per-line rule")

    monkeypatch.setattr(radar_io, "_parse_complex_token", per_line_rule)
    params2, echo2, discarded = parse_dat(raw)
    assert params2 == params
    assert discarded == 0
    np.testing.assert_array_equal(echo2.data, echo.data)


@pytest.mark.parametrize("block_bytes", SMALL_BLOCKS)
def test_bulk_pass_agrees_with_per_line_rule_in_small_blocks(monkeypatch, block_bytes):
    monkeypatch.setattr(radar_io, "_PARSE_BLOCK_BYTES", block_bytes)
    test_bulk_pass_agrees_with_per_line_rule()


@pytest.mark.parametrize("block_bytes", SMALL_BLOCKS)
@pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["lf", "crlf"])
def test_clean_input_takes_the_bulk_pass_in_small_blocks(monkeypatch, newline, block_bytes):
    monkeypatch.setattr(radar_io, "_PARSE_BLOCK_BYTES", block_bytes)
    test_clean_input_takes_the_bulk_pass(monkeypatch, newline)


@pytest.mark.parametrize("block_bytes", [radar_io._PARSE_BLOCK_BYTES, *SMALL_BLOCKS])
@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_line_blocks_end_after_a_newline(monkeypatch, newline, block_bytes):
    monkeypatch.setattr(radar_io, "_PARSE_BLOCK_BYTES", block_bytes)
    raw = ascii_stream([5.8e9, 1e-3, 2, 4e8], np.arange(40) * (1 - 0.5j))
    raw = raw.replace(b"\n", newline)
    blocks = list(radar_io._line_blocks(raw))
    assert b"".join(blocks) == raw
    assert all(block.endswith(b"\n") for block in blocks[:-1])
    # Every line is its own block at one byte; a CR-only stream is one block.
    if newline == b"\r":
        assert blocks == [raw]
    elif block_bytes == 1:
        assert len(blocks) == raw.count(b"\n")


# Values whose text is hardest to get right: signed zeros, subnormals, exact
# integers beyond 2**53, the extremes of the float range.
EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16,
            9007199254740994.0, 1.7976931348623157e308, -1.7976931348623157e308,
            0.1, -1 / 3, 1e-7, 123456789.125]


def _values_echo(n_s=8, n_random=3000, seed=11):
    rng = np.random.default_rng(seed)
    parts = np.array(EXTREMES)
    extreme = (parts[:, None] + 1j * parts[None, :]).reshape(-1)
    scale = 10.0 ** rng.integers(-300, 300, size=n_random)
    noisy = (rng.standard_normal(n_random) * scale
             + 1j * rng.standard_normal(n_random) * scale[::-1])
    flat = np.concatenate([extreme, noisy])
    flat = flat[: flat.size // n_s * n_s]
    params = RadarParams(5.8e9, 1e-3, n_s, 4e8)
    return params, EchoMatrix(params=params, data=flat.reshape(-1, n_s))


@pytest.mark.parametrize("block_entries", [radar_io._WRITE_BLOCK_ENTRIES, 1, 7])
@pytest.mark.parametrize("codec", ["ascii", "binary"])
def test_write_matches_unblocked_writer(monkeypatch, codec, block_entries):
    monkeypatch.setattr(radar_io, "_WRITE_BLOCK_ENTRIES", block_entries)
    params, echo = _values_echo()
    assert np.signbit(echo.data.imag).any() and (echo.data.imag == 0).any()
    raw = write_dat(params, echo, codec=codec)
    assert raw == write_dat_reference(params, echo, codec=codec)
    _, echo2, _ = parse_dat(raw, codec=codec)
    assert echo2.data.tobytes() == echo.data.tobytes()


@pytest.mark.parametrize("codec", ["ascii", "binary"])
def test_write_of_a_strided_echo(codec):
    params, echo = _values_echo(n_s=4)
    strided = EchoMatrix(params=params, data=echo.data[::2])
    assert not strided.data.flags.c_contiguous
    assert write_dat(params, strided, codec) == write_dat_reference(params, strided, codec)


@pytest.mark.parametrize("name", ["rec.dat", "rec.datb"])
def test_saved_file_holds_the_written_bytes(tmp_path, name):
    params, echo = _values_echo()
    radar_io.save_recording(tmp_path / name, params, echo)
    codec = radar_io.codec_for_path(name)
    assert (tmp_path / name).read_bytes() == write_dat(params, echo, codec=codec)
    assert os.listdir(tmp_path) == [name]


@pytest.mark.parametrize("previous", [None, b"previous recording"], ids=["new", "existing"])
@pytest.mark.parametrize("name", ["rec.dat", "rec.datb"])
def test_failed_save_leaves_the_target_as_it_was(monkeypatch, tmp_path, name, previous):
    params, echo = _values_echo()
    path = tmp_path / name
    if previous is not None:
        path.write_bytes(previous)
    encode = radar_io._encode_blocks

    def fail_after_first_block(params, echo, codec):
        yield next(iter(encode(params, echo, codec)))
        raise OSError("disk full")

    monkeypatch.setattr(radar_io, "_encode_blocks", fail_after_first_block)
    with pytest.raises(OSError, match="disk full"):
        radar_io.save_recording(path, params, echo)
    if previous is None:
        assert os.listdir(tmp_path) == []
    else:
        assert os.listdir(tmp_path) == [name]
        assert path.read_bytes() == previous


def test_save_with_mismatched_params_writes_nothing(tmp_path):
    path = tmp_path / "rec.dat"
    path.write_bytes(b"previous recording")
    other = RadarParams(2.4e9, 1e-3, 128, 4e8)
    echo = EchoMatrix(params=GLASGOW, data=np.zeros((1, 128), dtype=complex))
    with pytest.raises(ShapeMismatch):
        radar_io.save_recording(path, other, echo)
    assert os.listdir(tmp_path) == ["rec.dat"]
    assert path.read_bytes() == b"previous recording"


def test_binary_rejects_trailing_bytes():
    echo = EchoMatrix(params=GLASGOW, data=np.ones((2, 128), dtype=complex))
    raw = write_dat(GLASGOW, echo, codec="binary")
    assert parse_dat(raw, codec="binary").discarded_entries == 0
    expected = len(raw)
    for tail in (b"\0", bytes(16), bytes(24)):
        with pytest.raises(RadarIoError, match=f"trailing bytes: header declares 256 "
                                               f"entries \\({expected} bytes\\), "
                                               f"stream holds {expected + len(tail)}"):
            parse_dat(raw + tail, codec="binary")


@pytest.fixture(scope="module")
def toy_walk():
    from fmcwhar import synth, training

    params = training.TOY_RADAR_PARAMS
    return params, synth.generate(synth.activity_template("walk", seed=3), params)


def test_ascii_parse_memory(toy_walk):
    params, echo = toy_walk
    raw = write_dat(params, echo, codec="ascii")
    parsed, peak = _traced_peak(parse_dat, raw, "ascii")
    assert parsed.echo.data.tobytes() == echo.data.tobytes()
    assert peak <= 2.0 * echo.data.nbytes, peak / echo.data.nbytes


# One bad last line, for each way a stream falls back to the per-line rule:
# a parenthesized entry, an entry only the per-line rule reads, a garbage
# entry, a non-ASCII byte.
@pytest.mark.parametrize("bad_line", [b"(1+2i)\n", b"1+infi\n", b"3-4x\n", b"\xff\n"],
                         ids=["paren", "inf", "garbage", "non_ascii"])
def test_rejected_ascii_parse_memory(toy_walk, bad_line):
    params, echo = toy_walk
    raw = write_dat(params, echo, codec="ascii") + bad_line
    outcome, peak = _traced_peak(_outcome, parse_dat, raw)
    assert outcome == _outcome(parse_ascii_reference, raw)
    assert issubclass(outcome[0], RadarIoError), outcome
    assert peak <= 2.0 * echo.data.nbytes, peak / echo.data.nbytes


@pytest.mark.parametrize("codec, bound", [("ascii", 1.5), ("binary", 1.5)])
def test_write_memory(toy_walk, codec, bound):
    params, echo = toy_walk
    raw, peak = _traced_peak(write_dat, params, echo, codec)
    assert peak <= bound * len(raw), peak / len(raw)


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


@given(st.sampled_from(["", VALID_HEADER]), st.text(ASCII_ALPHABET, max_size=256))
@settings(max_examples=200, deadline=None)
def test_parser_never_panics_on_ascii_garbage(header, text):
    try:
        parse_dat((header + text).encode("ascii"))
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
