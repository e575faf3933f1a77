"""Range-Time, Doppler-Time and Range-Doppler spectrograms from echo matrices.

Pipeline per domain:

- RTM: fast-time DFT per chirp -> magnitude -> optional slow-time MTI
  high-pass (order 4, cutoff 0.0075 of Nyquist) on each range bin's
  magnitude sequence -> log magnitude. Rows are slow time, columns range.
- DTM: fast-time DFT -> complex MTI along slow time -> per range bin in
  [r1, r2], a short-time transform whose Gaussian window is re-selected
  at every frame by minimizing the spectral concentration factor ->
  magnitudes summed over range bins -> log magnitude. Rows are Doppler
  (zero-centered), columns time frames.
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

from . import dsp
from .radar_io import EchoMatrix, RadarParams

LOG_FLOOR_EPS = 1e-12

MTI_ORDER = 4
MTI_CUTOFF_NORM = 0.0075

# Defaults for the adaptive short-time transform: 8 Gaussian windows from
# wide to narrow effective width, 128-chirp frames, hop of 16 chirps, and
# a range interval covering typical indoor activity extents.
DEFAULT_ASTFT_ALPHAS = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
DEFAULT_ASTFT_LENGTH = 128
DEFAULT_ASTFT_HOP = 16
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
    """Window bank and frame layout for the adaptive short-time transform."""

    window_bank: tuple[dsp.WindowSpec, ...]
    hop: int
    range_bin_lo: int
    range_bin_hi: int

    def __post_init__(self):
        bank = tuple(self.window_bank)
        if not bank:
            raise BankEmpty("window bank must hold at least one window")
        lengths = {w.length for w in bank}
        if len(lengths) != 1:
            raise DomainMapError(f"bank windows must share one length, got {sorted(lengths)}")
        alphas = [w.alpha for w in bank if w.kind is dsp.WindowKind.GAUSSIAN]
        if len(alphas) == len(bank) and any(
            a >= b for a, b in zip(alphas, alphas[1:])
        ):
            raise DomainMapError("bank alpha values must be strictly increasing")
        if self.hop < 1:
            raise DomainMapError(f"hop must be >= 1, got {self.hop}")
        if not 0 <= self.range_bin_lo <= self.range_bin_hi:
            raise RangeIntervalOutOfBounds(
                f"need 0 <= r1 <= r2, got [{self.range_bin_lo}, {self.range_bin_hi}]"
            )
        object.__setattr__(self, "window_bank", bank)

    @property
    def window_length(self) -> int:
        return self.window_bank[0].length

    @classmethod
    def default_for(cls, params: RadarParams, n_chirps: int) -> "AstftConfig":
        length = min(DEFAULT_ASTFT_LENGTH, n_chirps)
        bank = tuple(dsp.WindowSpec.gaussian(length, a) for a in DEFAULT_ASTFT_ALPHAS)
        lo_m, hi_m = DEFAULT_RANGE_INTERVAL_M
        r1 = max(0, int(np.ceil(lo_m / params.range_bin_m)))
        r2 = min(params.samples_per_chirp - 1, int(np.floor(hi_m / params.range_bin_m)))
        r2 = max(r2, r1)
        return cls(window_bank=bank, hop=DEFAULT_ASTFT_HOP, range_bin_lo=r1, range_bin_hi=r2)

    def validate_against(self, echo: EchoMatrix) -> None:
        if self.window_length > echo.n_chirps:
            raise DomainMapError(
                f"window length {self.window_length} exceeds chirp count {echo.n_chirps}"
            )
        if self.range_bin_hi >= echo.params.samples_per_chirp:
            raise RangeIntervalOutOfBounds(
                f"r2 = {self.range_bin_hi} outside the {echo.params.samples_per_chirp} range bins"
            )


def range_profiles(echo: EchoMatrix, out: np.ndarray | None = None) -> np.ndarray:
    """Complex range profiles: rectangular-window fast-time DFT per chirp.

    ``out``, as in numpy, receives the (n_chirps, N) result.
    """
    return np.fft.fft(echo.data, axis=1, out=out)


def _mti_coeffs() -> dsp.IirCoeffs:
    return dsp.butterworth_highpass(order=MTI_ORDER, cutoff_norm=MTI_CUTOFF_NORM)


def mti_filter_complex(profiles: np.ndarray) -> np.ndarray:
    """Slow-time MTI high-pass on complex profiles (per quadrature)."""
    return dsp.iir_filter(_mti_coeffs(), profiles, axis=0)


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
        mags = np.abs(profiles)
        packed = lanes[:, lanes.shape[1] - half:]
        packed.real = mags[:, :half]
        packed.imag[:, : n - half] = mags[:, half:]
        packed.imag[:, n - half:] = 0.0
        del mags
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
        values=dsp.log_magnitude(mags, LOG_FLOOR_EPS),
        row_axis=Axis("slow time", "s", 0.0, params.chirp_duration_s),
        col_axis=Axis("range", "m", 0.0, params.range_bin_m),
        params=params,
    )


def range_time_map(echo: EchoMatrix, mti: bool = True) -> SpectroMap:
    """Range-Time map; MTI filters the magnitude sequence at each range bin."""
    _, packed = _front_end(echo, rt=True, doppler=False, rt_mti=mti)
    return _range_time(echo.params, packed)


def _frame_segments(signal: np.ndarray, length: int, hop: int) -> np.ndarray:
    """(n_frames, length) matrix of window-length segments centered at
    multiples of ``hop``; positions outside the signal are zero."""
    n = signal.shape[0]
    centers = np.arange(0, n, hop)
    offsets = centers[:, None] + (np.arange(length) - length // 2)[None, :]
    valid = (offsets >= 0) & (offsets < n)
    return np.where(valid, signal[np.clip(offsets, 0, n - 1)], 0.0)


def _doppler_time(params: RadarParams, profiles: np.ndarray, cfg: AstftConfig):
    """The DT map and its (n_bins, n_frames) window selections."""
    length = cfg.window_length
    windows = np.stack([w.values() for w in cfg.window_bank])  # (n_alpha, L)

    bins = range(cfg.range_bin_lo, cfg.range_bin_hi + 1)
    accum = None
    selections = []
    for r in bins:
        segments = _frame_segments(profiles[:, r], length, cfg.hop)  # (n_frames, L)
        spectra = np.fft.fft(segments[None, :, :] * windows[:, None, :], axis=2)
        mags = np.abs(spectra)  # (n_alpha, n_frames, L)
        s1 = mags.sum(axis=2)
        s2 = np.square(mags).sum(axis=2)
        conc = s1 * s1 / (s2 + 1e-12)
        chosen = np.argmin(conc, axis=0)  # first minimum wins ties
        selected = mags[chosen, np.arange(mags.shape[1]), :]  # (n_frames, L)
        del spectra, mags  # free before the next bin's FFT
        accum = selected if accum is None else accum + selected
        selections.append(chosen)

    doppler_by_frame = np.fft.fftshift(accum, axes=1)  # center zero Doppler
    values = dsp.log_magnitude(doppler_by_frame.T, LOG_FLOOR_EPS)

    prf = params.chirp_rate_hz
    doppler_step = prf / length
    spectro = SpectroMap(
        domain=Domain.DOPPLER_TIME,
        values=values,
        row_axis=Axis("Doppler", "Hz", -doppler_step * (length // 2), doppler_step),
        col_axis=Axis("time", "s", 0.0, cfg.hop * params.chirp_duration_s),
        params=params,
    )
    return spectro, np.stack(selections)


def _astft_config(echo: EchoMatrix, cfg: AstftConfig | None) -> AstftConfig:
    if cfg is None:
        cfg = AstftConfig.default_for(echo.params, echo.n_chirps)
    cfg.validate_against(echo)
    return cfg


def doppler_time_map(
    echo: EchoMatrix,
    cfg: AstftConfig | None = None,
    return_selection: bool = False,
):
    """Doppler-Time map via the adaptive short-time transform.

    At every frame and range bin the Gaussian window minimizing the
    spectral concentration factor is selected (ties break to the lowest
    bank index); the chosen magnitude spectra are summed over the range
    interval. With ``return_selection`` the (n_bins, n_frames) matrix of
    selected bank indices is returned alongside the map.
    """
    cfg = _astft_config(echo, cfg)
    profiles, _ = _front_end(echo, rt=False, doppler=True)
    result, selections = _doppler_time(echo.params, profiles, cfg)
    return (result, selections) if return_selection else result


def _range_doppler(params: RadarParams, profiles: np.ndarray) -> SpectroMap:
    n_c = profiles.shape[0]
    # dB before the shift: the shift only permutes, and it then copies
    # real values instead of complex ones.
    doppler_db = dsp.log_magnitude(np.fft.fft(profiles, axis=0), LOG_FLOOR_EPS)
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
    return _range_doppler(echo.params, profiles)


def domain_maps(echo: EchoMatrix, mti: bool = True, domains=tuple(Domain)):
    """Yield the requested maps of one recording, in the order requested.

    All of them come from one shared front end: one range FFT and one
    MTI pass (see ``_front_end``). The maps equal those of
    ``range_time_map(echo, mti)``, ``doppler_time_map(echo)`` and
    ``range_doppler_map(echo)``; ``mti`` applies to the RT map only, as
    there. Maps are built one at a time, so a caller can shrink or store
    each before the next exists.
    """
    domains = [Domain(d) for d in domains]
    doppler = any(d is not Domain.RANGE_TIME for d in domains)
    cfg = _astft_config(echo, None) if Domain.DOPPLER_TIME in domains else None
    profiles, packed = _front_end(echo, rt=Domain.RANGE_TIME in domains,
                                  doppler=doppler, rt_mti=mti)
    for domain in domains:
        if domain is Domain.RANGE_TIME:
            yield _range_time(echo.params, packed)
        elif domain is Domain.DOPPLER_TIME:
            yield _doppler_time(echo.params, profiles, cfg)[0]
        else:
            yield _range_doppler(echo.params, profiles)


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
    top = values[r_lo][:, c_lo] * (1 - c_f) + values[r_lo][:, c_hi] * c_f
    bot = values[r_hi][:, c_lo] * (1 - c_f) + values[r_hi][:, c_hi] * c_f
    return top * (1 - r_f[:, None]) + bot * r_f[:, None]


# ---------------------------------------------------------------------------
# File formats: .smap (f32 little-endian, row-major) + JSON sidecar, and an
# 8-bit min-max normalized PGM for eyeballing.

def _sidecar_path(path) -> str:
    base = str(path)
    return (base[: -len(".smap")] if base.endswith(".smap") else base) + ".json"


def save_spectro_map(spectro: SpectroMap, path) -> None:
    meta = {
        "domain": spectro.domain.value,
        "shape": list(spectro.shape),
        "row_axis": asdict(spectro.row_axis),
        "col_axis": asdict(spectro.col_axis),
        "params": asdict(spectro.params),
    }
    with open(_sidecar_path(path), "w") as fh:
        json.dump(meta, fh, indent=2)
    spectro.values.astype("<f4").tofile(path)


def load_spectro_map(path) -> SpectroMap:
    with open(_sidecar_path(path)) as fh:
        meta = json.load(fh)
    try:
        domain = Domain(meta["domain"])
    except ValueError:
        raise DomainMapError(
            f"{path}: unknown domain {meta['domain']!r} in sidecar") from None
    shape = tuple(meta["shape"])
    values = np.fromfile(path, dtype="<f4")
    if values.size != shape[0] * shape[1]:
        raise DomainMapError(
            f"{path}: payload holds {values.size} values, sidecar says {shape}"
        )
    def axis(d):
        return Axis(d["name"], d["unit"], d["start"], d["step"])
    return SpectroMap(
        domain=domain,
        values=values.astype(np.float64).reshape(shape),
        row_axis=axis(meta["row_axis"]),
        col_axis=axis(meta["col_axis"]),
        params=RadarParams(**meta["params"]),
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
