"""Numeric kernels of the map chain: the Gaussian window bank and the
spectral concentration factor of the adaptive short-time transform, the
Butterworth high-pass and its IIR filter for MTI, and log magnitude.

Every function here keeps no state and leaves its arguments unchanged,
except that ``iir_filter`` writes into ``out`` (which may be its input).
Calls are safe from many threads as long as no two write the same buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


LOG_FLOOR_EPS = 1e-12  # -240 dB
CONCENTRATION_EPS = 1e-12
# Samples per chunk of the DF2T loop: one b*x multiply covers a chunk.
DF2T_CHUNK = 32


class DspError(ValueError):
    pass


class InvalidCutoff(DspError):
    pass


def gaussian_windows(length: int, alphas) -> np.ndarray:
    """(len(alphas), length) matrix of Gaussian analysis windows, one row
    per shape ``alpha``.

    w[k] = exp(-alpha * ((k - (L-1)/2) / ((L-1)/2))**2); larger alpha
    means a narrower effective window. A one-sample window is 1.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    if length < 1:
        raise DspError(f"window length must be >= 1, got {length}")
    if not np.all(alphas > 0):
        raise DspError(f"Gaussian windows need alpha > 0, got {alphas.tolist()}")
    if length == 1:
        return np.ones((alphas.size, 1))
    half = (length - 1) / 2.0
    k = np.arange(length)
    return np.exp(-alphas[:, None] * ((k - half) / half) ** 2)


@dataclass(frozen=True)
class IirCoeffs:
    """Transfer-function coefficients b/a with a[0] normalized to 1."""

    b: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.b, dtype=np.float64)
        a = np.asarray(self.a, dtype=np.float64)
        if b.ndim != 1 or a.ndim != 1 or b.size != a.size or a.size < 1:
            raise DspError("b and a must be 1-D vectors of equal length")
        if a[0] == 0:
            raise DspError("a[0] must be nonzero")
        if a[0] != 1.0:
            b = b / a[0]
            a = a / a[0]
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "a", a)


def butterworth_highpass(order: int, cutoff_norm: float) -> IirCoeffs:
    """Digital Butterworth high-pass via analog prototype + bilinear transform.

    ``cutoff_norm`` is the -3 dB frequency as a fraction of Nyquist. The
    design pre-warps the cutoff so the discrete response hits 1/sqrt(2)
    exactly at the requested frequency.
    """
    if not 0.0 < cutoff_norm < 1.0:
        raise InvalidCutoff(f"cutoff must lie in (0, 1), got {cutoff_norm}")
    if order < 1:
        raise DspError(f"order must be >= 1, got {order}")

    fs = 2.0
    warped = 2.0 * fs * math.tan(math.pi * cutoff_norm / fs)

    # Analog low-pass prototype: poles evenly spaced on the left unit semicircle.
    k = np.arange(1, order + 1)
    theta = math.pi * (2 * k - 1) / (2 * order) + math.pi / 2
    p_lp = np.exp(1j * theta)

    # Low-pass -> high-pass: s -> warped / s. Zeros move to s = 0, and the
    # prototype's unit DC gain becomes the high-pass gain at infinity.
    p_hp = warped / p_lp
    z_hp = np.zeros(order, dtype=np.complex128)
    k_hp = 1.0 / np.real(np.prod(-p_lp))

    # Bilinear transform with T = 1/fs: s = 2 fs (z-1)/(z+1).
    two_fs = 2.0 * fs
    z_d = (two_fs + z_hp) / (two_fs - z_hp)
    p_d = (two_fs + p_hp) / (two_fs - p_hp)
    k_d = k_hp * np.real(np.prod(two_fs - z_hp) / np.prod(two_fs - p_hp))

    b = np.real(k_d * np.poly(z_d))
    a = np.real(np.poly(p_d))
    return IirCoeffs(b=b, a=a)


def iir_filter(coeffs: IirCoeffs, x, axis: int = 0, out=None):
    """Causal direct-form IIR filtering with zero initial state.

    y[n] = sum_k b[k] x[n-k] - sum_{k>=1} a[k] y[n-k], evaluated along
    ``axis``. Output length equals input length. ``out``, as in numpy,
    receives the result and is returned; it may be ``x`` itself, which
    filters in place with the same arithmetic. An ``out`` that overlaps
    ``x`` any other way raises ``DspError``.
    """
    x = np.asarray(x)
    if x.ndim == 0:
        raise DspError("input must have at least one axis")
    if not -x.ndim <= axis < x.ndim:
        raise DspError(f"axis {axis} is out of range for a {x.ndim}-D input")
    if x.shape[axis] < 1:
        raise DspError("input must hold at least one sample")
    out_dtype = np.result_type(x.dtype, np.float64)
    if out is None:
        out = np.empty(x.shape, dtype=out_dtype)
    elif out.shape != x.shape or out.dtype != out_dtype:
        raise DspError(
            f"out must have shape {x.shape} and dtype {out_dtype}, "
            f"got {out.shape} and {out.dtype}"
        )
    elif np.shares_memory(out, x) and (
            out.ctypes.data != x.ctypes.data or out.strides != x.strides):
        raise DspError("out overlaps x without being the same view of it")
    _lfilter_df2t(coeffs.b, coeffs.a, np.moveaxis(x, axis, 0), np.moveaxis(out, axis, 0))
    return out


def _lfilter_df2t(b: np.ndarray, a: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
    """Direct form II transposed along axis 0 into ``y``; lanes on the
    remaining axes.

    Samples run in chunks of ``DF2T_CHUNK``. One multiply per chunk takes
    every ``b[j] * x[n]`` product into ``tb``. The state has no array of
    its own: it is a window ``w = buf[i:i+p+1]`` sliding down one chunk
    buffer, so each step makes three numpy calls over all lanes into
    buffers allocated once per call:

        w += tb[:, i]         # w[0] is y[n]; w[j] is s[j] + b[j] x[n]
        t_a = a[1:] * w[0]
        w[1:] -= t_a          # the next state, one row further down

    The window's last row holds -0.0, the additive identity, so the last
    state row updates in the same broadcast as the others. At the end of
    a chunk its outputs ``buf[:n]`` go to ``y`` and its last ``p`` state
    rows move to the top. Coefficient rows are stored in the lane dtype,
    which is the cast numpy applies to a real coefficient anyway, and
    IEEE addition commutes, signed zeros included: every element sees
    the same operations as scipy's DF2T, so with two or more taps the
    output matches scipy's ``lfilter`` bit for bit. A chunk writes its
    ``y`` rows only after its multiply has read all its ``x`` rows, so
    ``y`` may be ``x``.
    """
    if x.ndim == 1:
        x, y = x[:, None], y[:, None]
    p = b.size - 1
    lanes, dtype = x.shape[1:], y.dtype
    col = (-1,) + (1,) * len(lanes)
    b_rows = np.full((p + 1, 1) + lanes, b.reshape(col)[:, None], dtype=dtype)
    a_rows = np.full((p,) + lanes, a[1:].reshape(col), dtype=dtype)
    # -0.0 in every part: a plain -0.0 would leave +0.0 in a complex
    # row's imaginary part, and x + (+0.0) turns x = -0.0 into +0.0.
    neg_zero = np.negative(np.zeros(lanes, dtype=dtype))
    buf = np.empty((DF2T_CHUNK + p + 1,) + lanes, dtype=dtype)
    buf[:p] = 0.0
    buf[p:] = neg_zero
    tb = np.empty((p + 1, DF2T_CHUNK) + lanes, dtype=dtype)
    t_a = np.empty((p,) + lanes, dtype=dtype)
    steps = [(buf[i:i + p + 1], tb[:, i], buf[i], buf[i + 1:i + p + 1])
             for i in range(DF2T_CHUNK)]
    add, multiply, subtract = np.add, np.multiply, np.subtract
    for c0 in range(0, x.shape[0], DF2T_CHUNK):
        n = min(DF2T_CHUNK, x.shape[0] - c0)
        multiply(b_rows, x[c0:c0 + n], out=tb[:, :n])
        for w, tb_i, w0, w_tail in steps[:n]:
            add(w, tb_i, out=w)
            multiply(a_rows, w0, out=t_a)
            subtract(w_tail, t_a, out=w_tail)
        y[c0:c0 + n] = buf[:n]
        buf[:p] = buf[n:n + p]
        buf[p:] = neg_zero


def log_magnitude(x) -> np.ndarray:
    """Elementwise 20 log10(max(|x|, LOG_FLOOR_EPS)) of a float or complex
    array; the floor keeps zeros finite."""
    mag = np.abs(x)
    # In place on the one fresh array: no further full-size temporaries.
    np.maximum(mag, LOG_FLOOR_EPS, out=mag)
    np.log10(mag, out=mag)
    mag *= 20.0
    return mag


def concentration(mag: np.ndarray, axis: int = -1, squares=None) -> np.ndarray:
    """Spectral concentration factor (sum|X|)^2 / (sum|X|^2 + CONCENTRATION_EPS)
    of the magnitude spectra along ``axis``.

    Small values mean energy packed into few bins; a single occupied bin
    gives ~1, N equal bins give ~N. Minimizing this over a window bank
    picks the window with the most concentrated spectrum. ``squares``, an
    array of ``mag``'s shape, receives |X|^2 in place of a temporary.
    """
    if np.any(mag < 0):
        raise DspError("spectrum magnitudes must be non-negative")
    s1 = mag.sum(axis=axis)
    s2 = np.square(mag, out=squares).sum(axis=axis)
    return s1 * s1 / (s2 + CONCENTRATION_EPS)
