"""Reading and writing raw FMCW radar recordings.

Two codecs are supported, selected by file extension:

- ``.dat``  ASCII, one entry per line. Lines 1-4 hold the real-valued
  header (carrier frequency, chirp duration, samples per chirp,
  bandwidth); every following line is one complex echo sample written
  as ``re+imi`` (Matlab-style trailing ``i``; ``j`` is accepted too).
- ``.datb`` binary, little-endian: magic ``FMCW``, u32 version=1,
  4 x f64 header, u64 payload count, then interleaved (re, im) f64
  pairs. The stream must hold exactly the bytes its header declares.

Both codecs work in bounded blocks. The ASCII parser cuts the raw bytes
right after a ``\n`` once a block reaches ``_PARSE_BLOCK_BYTES``, so no
entry straddles two blocks, and runs its translate-and-split pass, or
the per-line rule where that pass cannot take the stream, on one block
at a time. The writer yields the header, then the ASCII payload in
blocks of ``_WRITE_BLOCK_ENTRIES`` entries or the binary payload as one
view of the echo's buffer. ``write_dat`` joins the blocks once;
``save_recording`` writes them to a temporary sibling file that replaces
the target only when every block is written.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import numbers
import os
import struct
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s

_DATB_MAGIC = b"FMCW"
_DATB_VERSION = 1
_DATB_HEADER = struct.Struct("<4sI4dQ")

# Block sizes of the ASCII codec: the parser's blocks end at the first '\n'
# this many bytes in or later, the writer formats this many entries at a time.
_PARSE_BLOCK_BYTES = 256 * 1024
_WRITE_BLOCK_ENTRIES = 8192


class RadarIoError(ValueError):
    """Base class for recording parse/write failures."""


class TruncatedHeader(RadarIoError):
    """Stream ended before the four header entries."""


class NonPositiveParam(RadarIoError):
    """A header parameter was not a positive finite number."""


class EmptyPayload(RadarIoError):
    """Stream contains no complete chirp."""


class NonFiniteSample(RadarIoError):
    """An echo sample is NaN or infinite."""


class ShapeMismatch(RadarIoError):
    """Echo matrix does not agree with its parameter block."""


def _finite(value) -> bool:
    """Whether the number ``value`` is finite as a float; an int too large
    for a float is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def check_field_types(record, error, minimum=None) -> None:
    """Raise ``error`` for the first ``str``, ``int`` or ``float`` field of
    the dataclass ``record`` that breaks the one field rule:

    - a ``str`` field holds a string;
    - a numeric field holds a number, never a bool, string or None: configs
      arrive as JSON, and bool subclasses int, but a JSON true is no count,
      seed or rate;
    - an ``int`` field holds an integer, at least ``minimum`` when given;
    - a ``float`` field is finite as a float, so NaN, an infinity and a
      JSON integer too large for a float are all rejected.
    """
    for f in fields(record):
        value = getattr(record, f.name)
        if f.type == "str" and not isinstance(value, str):
            raise error(f"{f.name} must be a string, got {value!r}")
        if f.type not in ("int", "float"):
            continue
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise error(f"{f.name} must be a number, got {value!r}")
        if f.type == "int" and not isinstance(value, int):
            raise error(f"{f.name} must be an integer, got {value!r}")
        if f.type == "int" and minimum is not None and value < minimum:
            raise error(f"{f.name} must be >= {minimum}, got {value!r}")
        if f.type == "float" and not _finite(value):
            raise error(f"{f.name} must be finite, got {value!r}")


def read_json_object(path, error) -> dict:
    """The JSON object in the file at ``path``. Raises ``error`` for a file
    that does not decode, whatever the cause (bad syntax or encoding, an
    integer of more digits than Python converts, nesting too deep), and for
    a value that is not an object; a missing file raises as ``open`` does."""
    raw = Path(path).read_bytes()
    try:
        value = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise error(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise error(f"{path}: not a JSON object")
    return value


@dataclass(frozen=True)
class RadarParams:
    """FMCW system parameters; every downstream resolution derives from these."""

    carrier_freq_hz: float
    chirp_duration_s: float
    samples_per_chirp: int
    bandwidth_hz: float

    def __post_init__(self):
        # The parsers read every header entry as a float: 128.0 samples is 128.
        if isinstance(self.samples_per_chirp, float) and self.samples_per_chirp.is_integer():
            object.__setattr__(self, "samples_per_chirp", int(self.samples_per_chirp))
        check_field_types(self, NonPositiveParam)
        # Every rate derives from the sample count as a float, so it must fit one too.
        for f in fields(self):
            value = getattr(self, f.name)
            if not (value > 0 and _finite(value)):
                raise NonPositiveParam(f"{f.name} must be finite and > 0, got {value!r}")

    @property
    def sample_rate_hz(self) -> float:
        return self.samples_per_chirp / self.chirp_duration_s

    @property
    def chirp_slope_hz_per_s(self) -> float:
        return self.bandwidth_hz / self.chirp_duration_s

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq_hz

    @property
    def chirp_rate_hz(self) -> float:
        """Chirp repetition frequency (slow-time sampling rate)."""
        return 1.0 / self.chirp_duration_s

    @property
    def range_bin_m(self) -> float:
        """Range extent of one fast-time DFT bin: c / (2 B)."""
        return SPEED_OF_LIGHT / (2.0 * self.bandwidth_hz)


@dataclass(frozen=True)
class EchoMatrix:
    """Complex slow-time x fast-time sample grid, one row per chirp."""

    params: RadarParams
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.complex128)
        if data.ndim != 2:
            raise ShapeMismatch(f"echo data must be 2-D, got ndim={data.ndim}")
        if data.shape[0] < 1:
            raise ShapeMismatch("echo must hold at least one chirp")
        if data.shape[1] != self.params.samples_per_chirp:
            raise ShapeMismatch(
                f"echo has {data.shape[1]} samples per chirp, "
                f"params say {self.params.samples_per_chirp}"
            )
        object.__setattr__(self, "data", data)

    @property
    def n_chirps(self) -> int:
        return self.data.shape[0]


class ParsedRecording(NamedTuple):
    params: RadarParams
    echo: EchoMatrix
    discarded_entries: int


def _parse_complex_token(token: str, lineno: int) -> complex:
    s = "".join(token.split())
    if not s:
        raise RadarIoError(f"line {lineno}: empty entry")
    # Matlab files use a trailing 'i'; don't touch 'inf'/'nan' spellings.
    if s[-1] in "iI":
        s = s[:-1] + "j"
    try:
        return complex(s)
    except ValueError as exc:
        raise RadarIoError(f"line {lineno}: cannot parse entry {token!r}") from exc


# The bulk pass deletes in-line whitespace (what str.split() drops but
# splitlines() keeps) and reads every Matlab 'i' marker as Python's 'j'.
_BULK_TABLE = str.maketrans("iI", "jj", " \t\x1f")


def _line_blocks(raw: bytes) -> Iterator[bytes]:
    """``raw`` in consecutive blocks, each cut right after the first '\n' at
    or beyond ``_PARSE_BLOCK_BYTES`` into it; a stream with no later '\n'
    (a CR-only one, say) ends in one block."""
    start = 0
    while start < len(raw):
        end = raw.find(b"\n", start + _PARSE_BLOCK_BYTES - 1) + 1 or len(raw)
        yield raw[start:end]
        start = end


def _entries_bulk(raw: bytes) -> tuple[list[complex], np.ndarray] | None:
    """The entries of an ASCII stream in one pass over its text, or None
    where the pass cannot take the stream and the per-line rule must run.

    After the translation the only whitespace left is the line boundaries,
    so ``split()`` yields the non-blank lines. Every block ends in a '\n',
    so the blocks' tokens are the whole text's. A valid entry holds a 'j'
    only at its end, unless it is parenthesized: '(1+2i)', which the
    per-line rule rejects, is left to that rule.
    """
    if b")" in raw:
        return None
    tokens = itertools.chain.from_iterable(
        block.decode("ascii").translate(_BULK_TABLE).split() for block in _line_blocks(raw))
    values = map(complex, tokens)
    try:
        return list(itertools.islice(values, 4)), np.fromiter(values, dtype=np.complex128)
    except ValueError:  # not ASCII, or an entry complex() rejects
        return None


def _entries_per_line(raw: bytes) -> tuple[list[complex], np.ndarray]:
    """The entries of an ASCII stream one line at a time: the definition of
    the format, whose errors name their line.

    It holds one ``_line_blocks`` block's text at a time. Every block ends a
    line, so the running line numbers are the whole text's, and a non-ASCII
    byte is reported at its place in the whole stream, before any line is
    read, as a decode of the whole text would report it."""
    if not raw.isascii():
        offset = 0
        for block in _line_blocks(raw):
            try:
                block.decode("ascii")
            except UnicodeDecodeError as exc:
                exc = UnicodeDecodeError(exc.encoding, raw, offset + exc.start,
                                         offset + exc.end, exc.reason)
                raise RadarIoError(f"not an ASCII recording: {exc}") from exc
            offset += len(block)
    lines = itertools.chain.from_iterable(
        block.decode("ascii").splitlines() for block in _line_blocks(raw))
    entries = (_parse_complex_token(line, lineno)
               for lineno, line in enumerate(lines, start=1) if line.strip())
    return list(itertools.islice(entries, 4)), np.fromiter(entries, dtype=np.complex128)


def _entries_from_ascii(raw: bytes) -> tuple[list[complex], np.ndarray]:
    header, payload = _entries_bulk(raw) or _entries_per_line(raw)
    if len(header) < 4:
        raise TruncatedHeader(f"stream holds {len(header)} entries, header needs 4")
    return header, payload


def _entries_from_binary(raw: bytes) -> tuple[list[complex], np.ndarray]:
    if len(raw) < _DATB_HEADER.size:
        raise TruncatedHeader(
            f"binary stream holds {len(raw)} bytes, header needs {_DATB_HEADER.size}"
        )
    magic, version, f0, tc, ns, bw, count = _DATB_HEADER.unpack_from(raw)
    if magic != _DATB_MAGIC:
        raise RadarIoError(f"bad magic {magic!r}, expected {_DATB_MAGIC!r}")
    if version != _DATB_VERSION:
        raise RadarIoError(f"unsupported version {version}")
    expected = _DATB_HEADER.size + 16 * count
    if len(raw) < expected:
        raise RadarIoError(
            f"payload truncated: header declares {count} entries "
            f"({expected} bytes), stream holds {len(raw)}"
        )
    if len(raw) > expected:
        raise RadarIoError(
            f"trailing bytes: header declares {count} entries "
            f"({expected} bytes), stream holds {len(raw)}"
        )
    payload = np.frombuffer(raw, dtype="<c16", count=count, offset=_DATB_HEADER.size)
    return [complex(f0), complex(tc), complex(ns), complex(bw)], payload.astype(np.complex128)


def parse_dat(raw: bytes, codec: str = "ascii") -> ParsedRecording:
    """Parse a raw recording into (params, echo, discarded entry count).

    The first four entries populate the parameter block in the order
    carrier frequency, chirp duration, samples per chirp, bandwidth.
    Remaining entries are reshaped row-major into (n_chirps, N_s); a
    trailing partial chirp is dropped and reported, never zero-padded.
    A NaN or infinite sample anywhere in the payload is rejected.
    """
    if codec == "ascii":
        header, payload = _entries_from_ascii(raw)
    elif codec == "binary":
        header, payload = _entries_from_binary(raw)
    else:
        raise ValueError(f"unknown codec {codec!r}")

    for i, value in enumerate(header):
        if value.imag != 0.0:
            raise RadarIoError(f"header entry {i + 1} is not real-valued: {value}")
    params = RadarParams(
        carrier_freq_hz=header[0].real,
        chirp_duration_s=header[1].real,
        samples_per_chirp=header[2].real,
        bandwidth_hz=header[3].real,
    )

    finite = np.isfinite(payload)
    if not finite.all():
        first = int(np.argmin(finite))
        raise NonFiniteSample(
            f"payload entry {first + 1} is not finite: {complex(payload[first])}"
        )
    n_s = params.samples_per_chirp
    n_chirps = payload.size // n_s
    discarded = payload.size - n_chirps * n_s
    if n_chirps == 0:
        raise EmptyPayload(
            f"payload holds {payload.size} entries, fewer than one chirp ({n_s})"
        )
    echo = EchoMatrix(params=params, data=payload[: n_chirps * n_s].reshape(n_chirps, n_s))
    return ParsedRecording(params, echo, discarded)


def _ascii_blocks(params: RadarParams, flat: np.ndarray) -> Iterator[bytes]:
    header = (params.carrier_freq_hz, params.chirp_duration_s,
              params.samples_per_chirp, params.bandwidth_hz)
    yield "".join(f"{float(value)!r}\n" for value in header).encode("ascii")
    for start in range(0, flat.size, _WRITE_BLOCK_ENTRIES):
        entries = flat[start:start + _WRITE_BLOCK_ENTRIES].tolist()
        # The '+' flag writes a sign before every imaginary part, -0.0's too.
        yield "".join(map("{0.real!r}{0.imag:+}i\n".format, entries)).encode("ascii")


def _encode_blocks(params: RadarParams, echo: EchoMatrix, codec: str) -> Iterable[bytes]:
    """The bytes of a recording as a sequence of bytes-like blocks. Checks the
    arguments at once; the ASCII blocks are formatted as they are taken."""
    if echo.params != params:
        raise ShapeMismatch("echo parameter block differs from the one being written")
    flat = echo.data.reshape(-1)
    if codec == "ascii":
        return _ascii_blocks(params, flat)
    if codec == "binary":
        head = _DATB_HEADER.pack(
            _DATB_MAGIC,
            _DATB_VERSION,
            float(params.carrier_freq_hz),
            float(params.chirp_duration_s),
            float(params.samples_per_chirp),
            float(params.bandwidth_hz),
            flat.size,
        )
        # '<c16' is the interleaved (re, im) f64 layout: the payload is a view.
        return head, np.ascontiguousarray(flat, dtype="<c16").data
    raise ValueError(f"unknown codec {codec!r}")


def write_dat(params: RadarParams, echo: EchoMatrix, codec: str = "ascii") -> bytes:
    """Serialize a recording; parse_dat(write_dat(p, e)) reproduces both values."""
    # Each block goes into the buffer as it is formatted, and getvalue()
    # hands that buffer over: no list of blocks beside a joined copy.
    out = io.BytesIO()
    out.writelines(_encode_blocks(params, echo, codec))
    return out.getvalue()


def codec_for_path(path) -> str:
    return "binary" if str(path).endswith(".datb") else "ascii"


def load_recording(path) -> ParsedRecording:
    """Read a .dat (ASCII) or .datb (binary) recording from disk."""
    with open(path, "rb") as fh:
        raw = fh.read()
    return parse_dat(raw, codec=codec_for_path(path))


def save_recording(path, params: RadarParams, echo: EchoMatrix) -> None:
    """Write a recording block by block to a temporary sibling of ``path``,
    then move it into place: a failed save leaves ``path`` as it was."""
    blocks = _encode_blocks(params, echo, codec_for_path(path))
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(blocks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
