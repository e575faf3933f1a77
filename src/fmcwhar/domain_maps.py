"""Range-Time, Doppler-Time and Range-Doppler spectrograms from echo matrices.

Pipeline per domain:

- RTM: fast-time DFT per chirp -> magnitude -> optional slow-time MTI
  high-pass (order 4, cutoff 0.0075 of Nyquist) on each range bin's
  magnitude sequence -> log magnitude. Rows are slow time, columns range.
- DTM: fast-time DFT -> complex MTI along slow time -> per range bin in
  [r1, r2], a short-time transform of ``min(ASTFT_LENGTH, n_chirps)``-chirp
  frames every ``ASTFT_HOP`` chirps whose Gaussian window is re-selected
  at every frame by minimizing the spectral concentration factor ->
  magnitudes summed over range bins -> log magnitude. Rows are Doppler
  (zero-centered), columns time frames. The frames split into contiguous
  spans, one per worker thread (see ``_workers``); each span sums the
  bins in order, so the map does not depend on the split.
- RDM: fast-time DFT -> complex MTI -> slow-time DFT per range bin ->
  FFT-shift -> log magnitude. Rows are range bins, columns Doppler.

The MTI filter for the DTM/RDM paths runs on the complex range profiles
(real and imaginary parts independently); Doppler extraction needs the
phase, which magnitude-only filtering would destroy.

The three domains share one front end: ``domain_maps`` runs one range
FFT and one MTI pass per recording, over a lane buffer holding both the
complex profiles and the RT magnitudes packed two to a complex lane.
The per-domain functions are thin wrappers over the same builders, so
their maps equal the shared path's bit for bit.

All map values are stored in dB so every domain shares one value scale.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from enum import Enum

import numpy as np

from . import _workers, dsp
from .radar_io import (EchoMatrix, RadarParams, check_field_types, read_f32,
                       read_json_object, write_f32)

MTI_ORDER = 4
MTI_CUTOFF_NORM = 0.0075

# The adaptive short-time transform: frames of up to 128 chirps (fewer on
# a shorter recording) every 16 chirps. Its default bank is 8 Gaussian
# windows from wide to narrow effective width, and its default range
# interval covers typical indoor activity extents.
ASTFT_LENGTH = 128
ASTFT_HOP = 16
DEFAULT_ASTFT_ALPHAS = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
DEFAULT_RANGE_INTERVAL_M = (0.5, 5.0)


class DomainMapError(ValueError):
    pass


class BankEmpty(DomainMapError):
    pass


class RangeIntervalOutOfBounds(DomainMapError):
    pass


class Domain(Enum):
    RANGE_TIME = "rt"
    DOPPLER_TIME = "dt"
    RANGE_DOPPLER = "rd"


@dataclass(frozen=True)
class Axis:
    name: str
    unit: str
    start: float
    step: float

    def __post_init__(self):
        check_field_types(self, DomainMapError)
        if not self.step > 0:
            raise DomainMapError(f"axis step must be > 0, got {self.step}")

    def centers(self, n: int) -> np.ndarray:
        return self.start + self.step * np.arange(n)


@dataclass(frozen=True)
class SpectroMap:
    """Real-valued 2-D map (dB) with domain tag and axis metadata."""

    domain: Domain
    values: np.ndarray
    row_axis: Axis
    col_axis: Axis
    params: RadarParams

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.size == 0:
            raise DomainMapError("map values must form a non-empty 2-D matrix")
        if not np.all(np.isfinite(values)):
            raise DomainMapError("map values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True)
class AstftConfig:
    """Window bank and range interval of the adaptive short-time transform.

    The bank is one Gaussian window per ``alphas`` entry, each of
    ``min(ASTFT_LENGTH, n_chirps)`` samples, and frames are centred every
    ``ASTFT_HOP`` chirps; both are fixed when the map is built. Range
    bins ``range_bin_lo`` to ``range_bin_hi`` are summed.
    """

    alphas: tuple[float, ...]
    range_bin_lo: int
    range_bin_hi: int

    def __post_init__(self):
        alphas = tuple(self.alphas)
        if not alphas:
            raise BankEmpty("window bank must hold at least one window")
        # Strictly increasing from 0: every alpha is also > 0 (and not NaN).
        if not all(a < b for a, b in zip((0.0,) + alphas, alphas)):
            raise DomainMapError(
                f"bank alpha values must be > 0 and strictly increasing, got {alphas}")
        if not 0 <= self.range_bin_lo <= self.range_bin_hi:
            raise RangeIntervalOutOfBounds(
                f"need 0 <= r1 <= r2, got [{self.range_bin_lo}, {self.range_bin_hi}]"
            )
        object.__setattr__(self, "alphas", alphas)

    @classmethod
    def default_for(cls, params: RadarParams) -> "AstftConfig":
        lo_m, hi_m = DEFAULT_RANGE_INTERVAL_M
        r1 = max(0, int(np.ceil(lo_m / params.range_bin_m)))
        r2 = min(params.samples_per_chirp - 1, int(np.floor(hi_m / params.range_bin_m)))
        return cls(DEFAULT_ASTFT_ALPHAS, range_bin_lo=r1, range_bin_hi=max(r2, r1))


def range_profiles(echo: EchoMatrix, out: np.ndarray | None = None) -> np.ndarray:
    """Complex range profiles: unwindowed fast-time DFT per chirp.

    ``out``, as in numpy, receives the (n_chirps, N) result.
    """
    return np.fft.fft(echo.data, axis=1, out=out)


def _mti_coeffs() -> dsp.IirCoeffs:
    return dsp.butterworth_highpass(order=MTI_ORDER, cutoff_norm=MTI_CUTOFF_NORM)


def _front_end(echo: EchoMatrix, rt: bool, doppler: bool, rt_mti: bool = True):
    """One range FFT and at most one MTI pass for every requested domain.

    Returns ``(profiles, packed)``: the MTI-filtered complex range
    profiles (n_chirps, N) behind the DT and RD maps, and the RT
    magnitudes packed two range bins to a complex lane (bins
    ``0..ceil(N/2)-1`` in the real parts, the rest in the imaginary
    parts). Either is None when its domains are not requested. Both live
    in one lane buffer filtered in place by a single ``iir_filter`` call;
    the MTI coefficients are real, so the two halves of a packed lane
    filter independently. Without ``rt_mti`` the packed lanes skip it.
    """
    n_chirps, n = echo.data.shape
    half = (n + 1) // 2
    lanes = np.empty((n_chirps, (n if doppler else 0) + (half if rt else 0)),
                     dtype=np.complex128)
    # The range FFT writes straight into the profile lanes when DT or RD
    # need them, so no second full-size complex copy exists.
    profiles = range_profiles(echo, out=lanes[:, :n] if doppler else None)
    if rt:
        packed = lanes[:, lanes.shape[1] - half:]
        np.abs(profiles[:, :half], out=packed.real)
        np.abs(profiles[:, half:], out=packed.imag[:, : n - half])
        packed.imag[:, n - half:] = 0.0
    del profiles
    filtered = lanes if rt_mti or not rt else lanes[:, : lanes.shape[1] - half]
    if filtered.shape[1]:
        dsp.iir_filter(_mti_coeffs(), filtered, axis=0, out=filtered)
    return (lanes[:, :n] if doppler else None), (packed if rt else None)


def _range_time(params: RadarParams, packed: np.ndarray) -> SpectroMap:
    n_imag = params.samples_per_chirp - packed.shape[1]
    mags = np.concatenate((packed.real, packed.imag[:, :n_imag]), axis=1)
    return SpectroMap(
        domain=Domain.RANGE_TIME,
        values=dsp.log_magnitude(mags),
        row_axis=Axis("slow time", "s", 0.0, params.chirp_duration_s),
        col_axis=Axis("range", "m", 0.0, params.range_bin_m),
        params=params,
    )


def range_time_map(echo: EchoMatrix, mti: bool = True) -> SpectroMap:
    """Range-Time map; MTI filters the magnitude sequence at each range bin."""
    _, packed = _front_end(echo, rt=True, doppler=False, rt_mti=mti)
    return _range_time(echo.params, packed)


def _doppler_time(params: RadarParams, profiles: np.ndarray, cfg: AstftConfig):
    """The DT map and its (n_bins, n_frames) window selections."""
    n_chirps, n_range = profiles.shape
    if cfg.range_bin_hi >= n_range:
        raise RangeIntervalOutOfBounds(
            f"r2 = {cfg.range_bin_hi} outside the {n_range} range bins")
    length = min(ASTFT_LENGTH, n_chirps)
    # (n_alpha, L), complex so that the workers' multiplies cast nothing:
    # a cast would fill ufunc buffers from each worker's own malloc arena.
    windows = dsp.gaussian_windows(length, cfg.alphas).astype(np.complex128)

    # Frame f covers chirps f*hop - L//2 .. f*hop - L//2 + L - 1, zero
    # outside the recording: a (n_bins, n_frames, L) view of one
    # zero-padded, bin-major copy of the interval's profiles.
    lo, hi = cfg.range_bin_lo, cfg.range_bin_hi + 1
    padded = np.zeros((hi - lo, n_chirps + length - 1), dtype=profiles.dtype)
    padded[:, length // 2:length // 2 + n_chirps] = profiles[:, lo:hi].T
    frames = np.lib.stride_tricks.sliding_window_view(padded, length, axis=1)[:, ::ASTFT_HOP]
    n_bins, n_frames = frames.shape[:2]
    accum = np.empty((n_frames, length))
    selections = np.empty((n_bins, n_frames), dtype=np.intp)
    # One bin's buffers, frame-major so that each span's rows are contiguous.
    spectra = np.empty((n_frames, len(windows), length), dtype=np.complex128)
    mags = np.empty(spectra.shape)
    selected = np.empty((n_frames, length))

    def astft_span(span, spectra, mags, selected):
        """Frames ``span`` of every bin into ``accum`` and ``selections``.

        The bins are walked in order, so each frame sums them in the same
        order whatever the spans are.
        """
        # |X|^2 reuses the spectra's memory: they are dead once ``mags`` holds them.
        squares = spectra.view(np.float64).reshape(-1)[:mags.size].reshape(mags.shape)
        frame_rows = np.arange(len(mags)) * len(windows)
        total = accum[span]
        for i, bin_frames in enumerate(frames[:, span]):
            np.multiply(bin_frames[:, None, :], windows, out=spectra)
            np.fft.fft(spectra, axis=2, out=spectra)
            np.abs(spectra, out=mags)  # (n, n_alpha, L)
            # The first minimum wins ties.
            chosen = np.argmin(dsp.concentration(mags, squares=squares), axis=1)
            selections[i, span] = chosen
            # mags[frame, chosen] per frame; "clip" keeps take from buffering ``out``.
            np.take(mags.reshape(-1, length), frame_rows + chosen, axis=0,
                    out=selected, mode="clip")
            if i:
                total += selected
            else:
                total[...] = selected

    _workers.run(astft_span, [(span, spectra[span], mags[span], selected[span])
                              for span in _workers.split(n_frames)])

    doppler_by_frame = np.fft.fftshift(accum, axes=1)  # center zero Doppler
    values = dsp.log_magnitude(doppler_by_frame.T)

    prf = params.chirp_rate_hz
    doppler_step = prf / length
    spectro = SpectroMap(
        domain=Domain.DOPPLER_TIME,
        values=values,
        row_axis=Axis("Doppler", "Hz", -doppler_step * (length // 2), doppler_step),
        col_axis=Axis("time", "s", 0.0, ASTFT_HOP * params.chirp_duration_s),
        params=params,
    )
    return spectro, selections


def doppler_time_map(
    echo: EchoMatrix,
    cfg: AstftConfig | None = None,
    return_selection: bool = False,
):
    """Doppler-Time map via the adaptive short-time transform.

    At every frame and range bin the Gaussian window minimizing the
    spectral concentration factor is selected (ties break to the lowest
    bank index); the chosen magnitude spectra are summed over the range
    interval. ``cfg`` defaults to ``AstftConfig.default_for(echo.params)``.
    With ``return_selection`` the (n_bins, n_frames) matrix of selected
    bank indices is returned alongside the map.
    """
    if cfg is None:
        cfg = AstftConfig.default_for(echo.params)
    profiles, _ = _front_end(echo, rt=False, doppler=True)
    result, selections = _doppler_time(echo.params, profiles, cfg)
    return (result, selections) if return_selection else result


def _range_doppler(params: RadarParams, profiles: np.ndarray, out=None) -> SpectroMap:
    """The RD map; ``out``, as in numpy, receives the slow-time DFT and
    may be ``profiles`` itself once nothing else reads them."""
    n_c = profiles.shape[0]
    # dB before the shift: the shift only permutes, and it then copies
    # real values instead of complex ones.
    doppler_db = dsp.log_magnitude(np.fft.fft(profiles, axis=0, out=out))
    values = np.fft.fftshift(doppler_db, axes=0)  # (n_doppler, n_range)
    doppler_step = params.chirp_rate_hz / n_c
    return SpectroMap(
        domain=Domain.RANGE_DOPPLER,
        values=values.T,  # rows range, cols Doppler
        row_axis=Axis("range", "m", 0.0, params.range_bin_m),
        col_axis=Axis("Doppler", "Hz", -doppler_step * (n_c // 2), doppler_step),
        params=params,
    )


def range_doppler_map(echo: EchoMatrix) -> SpectroMap:
    """Range-Doppler map: slow-time DFT of the MTI-filtered range profiles."""
    profiles, _ = _front_end(echo, rt=False, doppler=True)
    return _range_doppler(echo.params, profiles, out=profiles)


def domain_maps(echo: EchoMatrix, mti: bool = True, domains=tuple(Domain)):
    """Yield the requested maps of one recording, in the order requested.

    All of them come from one shared front end: one range FFT and one
    MTI pass (see ``_front_end``). The maps equal those of
    ``range_time_map(echo, mti)``, ``doppler_time_map(echo)`` and
    ``range_doppler_map(echo)``; ``mti`` applies to the RT map only, as
    there. Maps are built one at a time, so a caller can shrink or store
    each before the next exists.

    The generator drops ``echo`` once the range FFT has read it, and the
    RD map's slow-time DFT overwrites the profiles when no later map
    reads them; the maps are the same either way.
    """
    try:
        domains = [Domain(d) for d in domains]
    except ValueError as exc:
        raise DomainMapError(f"{exc}; the domains are rt, dt and rd") from exc
    doppler = any(d is not Domain.RANGE_TIME for d in domains)
    profiles, packed = _front_end(echo, rt=Domain.RANGE_TIME in domains,
                                  doppler=doppler, rt_mti=mti)
    params = echo.params
    del echo
    for i, domain in enumerate(domains):
        if domain is Domain.RANGE_TIME:
            yield _range_time(params, packed)
        elif domain is Domain.DOPPLER_TIME:
            yield _doppler_time(params, profiles, AstftConfig.default_for(params))[0]
        else:
            reread = any(d is not Domain.RANGE_TIME for d in domains[i + 1:])
            yield _range_doppler(params, profiles, out=None if reread else profiles)


def resize_bilinear(spectro: SpectroMap, out_h: int, out_w: int) -> SpectroMap:
    """Bilinear resize with half-pixel sample centers (corner alignment off)."""
    if out_h < 1 or out_w < 1:
        raise DomainMapError(f"output shape must be positive, got {out_h}x{out_w}")
    values = _resize_bilinear_array(spectro.values, out_h, out_w)

    def rescaled(axis: Axis, n_in: int, n_out: int) -> Axis:
        scale = n_in / n_out
        return Axis(axis.name, axis.unit, axis.start + (0.5 * scale - 0.5) * axis.step,
                    axis.step * scale)

    in_h, in_w = spectro.shape
    return replace(
        spectro,
        values=values,
        row_axis=rescaled(spectro.row_axis, in_h, out_h),
        col_axis=rescaled(spectro.col_axis, in_w, out_w),
    )


def _resize_bilinear_array(values: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    in_h, in_w = values.shape

    def sample_coords(n_in, n_out):
        coords = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
        coords = np.clip(coords, 0.0, n_in - 1.0)
        lo = np.floor(coords).astype(int)
        hi = np.minimum(lo + 1, n_in - 1)
        frac = coords - lo
        return lo, hi, frac

    r_lo, r_hi, r_f = sample_coords(in_h, out_h)
    c_lo, c_hi, c_f = sample_coords(in_w, out_w)
    # np.ix_ gathers only the sampled points, never whole rows: the RD
    # map arrives as a transposed view, where a row is a strided gather.
    def at(rows, cols):
        return values[np.ix_(rows, cols)]

    top = at(r_lo, c_lo) * (1 - c_f) + at(r_lo, c_hi) * c_f
    bot = at(r_hi, c_lo) * (1 - c_f) + at(r_hi, c_hi) * c_f
    return top * (1 - r_f[:, None]) + bot * r_f[:, None]


# ---------------------------------------------------------------------------
# File formats: .smap (a float32 blob, see ``radar_io.write_f32``) + JSON
# sidecar, and an 8-bit min-max normalized PGM for eyeballing.

def sidecar_path(path) -> str:
    """The JSON sidecar beside the .smap payload at ``path``."""
    base = str(path)
    return (base[: -len(".smap")] if base.endswith(".smap") else base) + ".json"


def save_spectro_map(spectro: SpectroMap, path) -> None:
    """Write the payload at ``path``, then its sidecar."""
    meta = {
        "domain": spectro.domain.value,
        "shape": list(spectro.shape),
        "row_axis": asdict(spectro.row_axis),
        "col_axis": asdict(spectro.col_axis),
        "params": asdict(spectro.params),
    }
    with open(path, "wb") as fh:
        write_f32(fh, spectro.values, DomainMapError)
    with open(sidecar_path(path), "w") as fh:
        json.dump(meta, fh, indent=2)


def load_spectro_map(path) -> SpectroMap:
    meta = read_json_object(sidecar_path(path), DomainMapError)
    try:
        domain = Domain(meta["domain"])
        rows, cols = meta["shape"]
        row_axis, col_axis = Axis(**meta["row_axis"]), Axis(**meta["col_axis"])
        params = RadarParams(**meta["params"])
    except (TypeError, ValueError, KeyError) as exc:
        raise DomainMapError(
            f"{path}: malformed sidecar ({type(exc).__name__}: {exc})") from exc
    if not all(type(n) is int and n > 0 for n in (rows, cols)):
        raise DomainMapError(
            f"{path}: sidecar shape {meta['shape']!r} is not two positive integers")
    values = read_f32(path, rows * cols, DomainMapError)
    return SpectroMap(
        domain=domain,
        values=values.astype(np.float64).reshape(rows, cols),
        row_axis=row_axis,
        col_axis=col_axis,
        params=params,
    )


def write_pgm(spectro: SpectroMap, path) -> None:
    """8-bit binary PGM, min-max normalized."""
    values = spectro.values
    lo, hi = float(values.min()), float(values.max())
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    pixels = np.round((values - lo) * scale).astype(np.uint8)
    header = f"P5\n{values.shape[1]} {values.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(pixels.tobytes())
