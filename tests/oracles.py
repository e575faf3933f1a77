"""Shared oracles: closed-form single-scatterer scenes and tap-loop convs.

A constant-velocity point target has beat frequency 2 k R(t) / c and
Doppler 2 v / lambda, so every map's peak position can be predicted
exactly. Scene durations are capped so range migration stays within
about two bins, keeping the joint Range-Doppler argmax well defined.

The conv reference walks the k x k kernel taps one at a time: each tap
is a strided slice of the padded input, so forward, input gradient and
weight gradient are each a sum of k*k small contractions. Like the
layers, the conv, batch-norm and CBAM references take channel-major
(C, B, H, W) feature maps.

The filter reference runs direct form II transposed one state row at a
time, with scalar coefficients, as scipy's ``lfilter`` does. The MTI
profiles come from the public range DFT and filter kernels, outside the
shared front end.

The batch-norm and Adam references are the unfused forms: one numpy
expression per formula, each allocating its own temporaries.

The IIR response helpers evaluate a filter's transfer function and
poles directly from its coefficients, and the stratified split is the
per-class train/val/test partition; only tests use them.

The per-branch model reference runs each branch's backbone on its own,
as three passes, where the model runs them as one grouped pass.
``layer_attributes`` lists the attribute names of every layer of a model,
the grouped backbone's included, so a test can compare a used model with
a freshly built one and find any forward state that outlived its use.

The CBAM reference is the gate as it ran before the fused pass: each max
pool keeps its argmax index, every pool gradient is scattered into a
tensor of zeros and summed, and the spatial conv is a ``Conv2d`` run
through its own forward and backward. ``Conv2d`` has no bias, so
``_SpatialAttentionReference`` adds the gate's bias itself.

The ASCII ``.dat`` reference is the parser as it ran before the bulk
pass: every non-blank line goes through its own ``complex()`` call. The
writer reference is ``write_dat`` as it ran before the block writer: the
whole ASCII text is formatted as one list of lines, and the binary payload
is interleaved into a float64 copy.

The synth reference is ``synth.generate`` as it ran before the block
render: each scatterer's phase, exponential and product are full-size
(n_chirps, samples_per_chirp) arrays, and the noise is drawn as two
full-size normal arrays, the real parts first.

``_traced_peak`` is the one ``tracemalloc`` probe behind the memory
guards: it reports the peak bytes a call allocated while it ran.
"""

import cmath
import itertools
import math
import struct
import tracemalloc

import numpy as np

from fmcwhar import domain_maps as dm
from fmcwhar import dsp, synth
from fmcwhar.nn import ChannelAttention, Conv2d, Layer
from fmcwhar.nn.attention import CBAM_REDUCTION, SPATIAL_KERNEL
from fmcwhar.nn.layers import sigmoid
from fmcwhar.nn.model import BRANCHES
from fmcwhar.radar_io import (
    EchoMatrix,
    EmptyPayload,
    NonFiniteSample,
    ParsedRecording,
    RadarIoError,
    RadarParams,
    SPEED_OF_LIGHT,
    TruncatedHeader,
)
from fmcwhar.training import TrainingError

GLASGOW_PARAMS = RadarParams(5.8e9, 1e-3, 128, 4e8)


def expected_range_bin(params, r_m):
    return 2 * params.bandwidth_hz * r_m / SPEED_OF_LIGHT


def expected_doppler_hz(params, v):
    return 2 * v / params.wavelength_m


def scene_astft_config(params, r_min, r_max):
    """Default window bank, range interval widened to cover the trajectory."""
    lo = max(0, int(np.floor(r_min / params.range_bin_m)) - 2)
    hi = min(params.samples_per_chirp - 1,
             int(np.ceil(r_max / params.range_bin_m)) + 2)
    return dm.AstftConfig(dm.DEFAULT_ASTFT_ALPHAS, range_bin_lo=lo, range_bin_hi=max(hi, lo))


def check_scene_bins(r0, v, seed, params=GLASGOW_PARAMS, noise_std=0.05):
    """Run one scene through all three maps.

    Returns (rtm_ok, dtm_ok, rdm_ok): whether each map's argmax lands
    within one bin (plus half a bin of rounding slack) of the closed-form
    prediction.
    """
    t_c = params.chirp_duration_s
    n_c = int(np.clip(0.7 / (abs(v) * t_c), 256, 512)) if v != 0 else 512
    duration = n_c * t_c
    if v > 0 and r0 - v * duration < 0.6:
        v = -v  # flip to receding so the range stays positive

    echo = synth.generate(
        synth.Scene(
            scatterers=(synth.Scatterer(r0, v),),
            duration_s=duration, noise_std=noise_std, seed=seed,
        ),
        params,
    )

    row = 3 * n_c // 4
    rtm = dm.range_time_map(echo, mti=False)
    rtm_ok = abs(
        np.argmax(rtm.values[row]) - expected_range_bin(params, r0 - v * row * t_c)
    ) <= 1.5

    r_lo, r_hi = sorted((r0, r0 - v * duration))
    cfg = scene_astft_config(params, r_lo, r_hi)
    dtm = dm.doppler_time_map(echo, cfg)
    freqs = dtm.row_axis.centers(dtm.shape[0])
    frame = dtm.shape[1] // 2
    dtm_ok = abs(
        freqs[np.argmax(dtm.values[:, frame])] - expected_doppler_hz(params, v)
    ) <= 1.5 * dtm.row_axis.step

    rdm = dm.range_doppler_map(echo)
    r_idx, d_idx = np.unravel_index(np.argmax(rdm.values), rdm.shape)
    rdm_ok = (
        abs(r_idx - expected_range_bin(params, r0 - v * 0.5 * duration)) <= 1.5
        and abs(
            rdm.col_axis.centers(rdm.shape[1])[d_idx] - expected_doppler_hz(params, v)
        ) <= 1.5 * rdm.col_axis.step
    )
    return rtm_ok, dtm_ok, rdm_ok


def mti_profiles(echo):
    """MTI-filtered complex range profiles: the order-4 high-pass along slow time."""
    coeffs = dsp.butterworth_highpass(dm.MTI_ORDER, dm.MTI_CUTOFF_NORM)
    return dsp.iir_filter(coeffs, dm.range_profiles(echo), axis=0)


def gain_at(coeffs, freq_norm):
    """Frequency response H(e^{j pi f}) of ``dsp.IirCoeffs`` with f as a
    fraction of Nyquist."""
    z = cmath.exp(1j * math.pi * freq_norm)
    zk = z ** -np.arange(coeffs.b.size)
    return complex(np.dot(coeffs.b, zk) / np.dot(coeffs.a, zk))


def poles(coeffs):
    return np.roots(coeffs.a)


class TooFewSamples(TrainingError):
    pass


def stratified_split(labels, split=(0.6, 0.2, 0.2), seed=0):
    """Per-class proportional train/val/test index sets, seeded and disjoint."""
    labels = np.asarray(labels)
    rng = synth.seeded_rng(seed)
    train, val, test = [], [], []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        if idx.size < 5:
            raise TooFewSamples(f"class {cls} has {idx.size} samples, need >= 5")
        idx = rng.permutation(idx)
        n_train = int(np.floor(split[0] * idx.size))
        n_val = int(np.floor(split[1] * idx.size))
        train.extend(idx[:n_train])
        val.extend(idx[n_train: n_train + n_val])
        test.extend(idx[n_train + n_val:])
    return np.sort(train), np.sort(val), np.sort(test)


def channel_first(x):
    """A (B, C, H, W) draw as the C-contiguous (C, B, H, W) map layers take."""
    return np.ascontiguousarray(x.transpose(1, 0, 2, 3))


def conv_taps(x, w, dout, stride, padding, groups=1):
    """Tap-loop conv of a (C, B, H, W) ``x``: (out, dx, g_w) for a dense or
    depthwise weight.

    A dense weight is (O, C / groups, k, k), and each of the ``groups``
    channel groups runs as a conv of its own; a depthwise one is (C, k, k).
    ``dout`` is the upstream gradient, shaped like ``out``.
    """
    if groups > 1:
        parts = [conv_taps(xg, wg, dg, stride, padding) for xg, wg, dg in zip(
            np.split(x, groups), np.split(w, groups), np.split(dout, groups))]
        return tuple(np.concatenate(p) for p in zip(*parts))
    k, s, p = w.shape[-1], stride, padding
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    h_out = (xp.shape[2] - k) // s + 1
    w_out = (xp.shape[3] - k) // s + 1
    depthwise = w.ndim == 3
    out = 0.0
    dxp = np.zeros_like(xp)
    g_w = np.zeros_like(w)
    for i in range(k):
        for j in range(k):
            tap = (slice(None), slice(None),
                   slice(i, i + s * h_out, s), slice(j, j + s * w_out, s))
            if depthwise:
                out = out + xp[tap] * w[:, i, j, None, None, None]
                dxp[tap] += dout * w[:, i, j, None, None, None]
                g_w[:, i, j] = np.einsum("cbhw,cbhw->c", dout, xp[tap])
            else:
                out = out + np.einsum("cbhw,oc->obhw", xp[tap], w[:, :, i, j])
                dxp[tap] += np.einsum("obhw,oc->cbhw", dout, w[:, :, i, j])
                g_w[:, :, i, j] = np.einsum("obhw,cbhw->oc", dout, xp[tap])
    dx = dxp[:, :, p: xp.shape[2] - p, p: xp.shape[3] - p]
    return out, dx, g_w


def batchnorm_reference(x, gamma, beta, running_mean, running_var, dout, train,
                        momentum=0.1, eps=1e-5):
    """Unfused batch norm of a (C, B, H, W) ``x``: (out, dx, g_gamma, g_beta,
    running_mean, running_var).

    The running statistics are returned updated (train mode) or as given.
    """
    axes, col = (1, 2, 3), (slice(None), None, None, None)
    running_mean, running_var = running_mean.copy(), running_var.copy()
    if train:
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        n = x[0].size
        unbiased = var * n / max(1, n - 1)
        running_mean += momentum * (mean - running_mean)
        running_var += momentum * (unbiased - running_var)
    else:
        mean, var = running_mean, running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x - mean[col]) * inv_std[col]
    out = gamma[col] * x_hat + beta[col]
    g_gamma = np.sum(dout * x_hat, axis=axes)
    g_beta = np.sum(dout, axis=axes)
    dxhat = dout * gamma[col]
    scale = inv_std[col]
    if train:
        n = dout[0].size
        sum_dxhat = dxhat.sum(axis=axes, keepdims=True)
        sum_dxhat_xhat = (dxhat * x_hat).sum(axis=axes, keepdims=True)
        dx = scale * (dxhat - sum_dxhat / n - x_hat * sum_dxhat_xhat / n)
    else:
        dx = dxhat * scale
    return out, dx, g_gamma, g_beta, running_mean, running_var


def adam_reference(p, g, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam step on copies: (p, m, v) after it. t starts at 1."""
    m = m + (1.0 - beta1) * (g - m)
    v = v + (1.0 - beta2) * (g * g - v)
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    return p - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


def df2t_rows(b, a, x, axis=0):
    """Row-loop DF2T: y[n] = b[0] x[n] + s[0], then each state row in turn.

    ``b`` and ``a`` are normalized so that ``a[0] == 1``; returns a fresh
    array shaped like ``x``.
    """
    x = np.moveaxis(np.asarray(x), axis, 0)
    y = np.empty(x.shape, dtype=np.result_type(x.dtype, np.float64))
    n_taps = b.size
    state = np.zeros((n_taps - 1,) + x.shape[1:], dtype=y.dtype)
    for n in range(x.shape[0]):
        xn = x[n]
        yn = b[0] * xn + state[0] if n_taps > 1 else b[0] * xn
        if n_taps > 1:
            for i in range(n_taps - 2):
                state[i] = state[i + 1] + b[i + 1] * xn - a[i + 1] * yn
            state[-1] = b[-1] * xn - a[-1] * yn
        y[n] = yn
    return np.moveaxis(y, 0, axis)


def per_branch_forward(model, xs, train):
    """``MultiDomainModel.forward`` with every branch run alone, backbone
    included, on its (B, C, H, W) maps transposed to (C, B, H, W)."""
    feats = [getattr(model, name).forward(x.transpose(1, 0, 2, 3), train)
             for name, x in zip(BRANCHES, xs)]
    return model.fusion.forward(*feats, train)


def layer_attributes(model):
    """{(root, layer path): sorted attribute names} over every layer of the
    model and of its grouped backbone."""
    return {(root, prefix): sorted(vars(layer))
            for root, top in (("model", model), ("grouped", model._backbone))
            for prefix, layer in top._layers()}


def per_branch_backward(model, dlogits):
    """``MultiDomainModel.backward`` with every branch run alone."""
    return tuple(getattr(model, name).backward(d)
                 for name, d in zip(BRANCHES, model.fusion.backward(dlogits)))


class _ChannelAttentionReference(ChannelAttention):
    """The channel gate with its pool gradients scattered into zeros."""

    def backward(self, dout):
        x_shape, mx_idx, cache_avg, cache_max, gate = self._cache
        dgate = dout[:, :, 0, 0] * gate * (1.0 - gate)
        davg = self._mlp_backward(dgate, cache_avg)
        dmax = self._mlp_backward(dgate, cache_max)
        c, b, h, w = x_shape
        dflat = np.zeros((c, b, h * w))
        dflat[np.arange(c)[:, None], np.arange(b)[None, :], mx_idx] = dmax
        dx = dflat.reshape(x_shape)
        dx += (davg / (h * w))[:, :, None, None]
        return dx


class _SpatialAttentionReference(Layer):
    """The spatial gate with argmax channel pooling and a ``Conv2d``, whose
    bias ``conv.b`` it adds itself."""

    def __init__(self, groups):
        super().__init__()
        self.groups = groups
        conv = self.register_child("conv", Conv2d(2 * groups, groups, SPATIAL_KERNEL,
                                                  groups=groups))
        conv.register_param("b", np.zeros(groups))

    def forward(self, x, train=False):
        c, b, h, w = x.shape
        x5 = x.reshape(self.groups, c // self.groups, b, h, w)
        avg = x5.mean(axis=1, keepdims=True)
        mx_idx = x5.argmax(axis=1)[:, None]
        mx = np.take_along_axis(x5, mx_idx, axis=1)
        stacked = np.concatenate([avg, mx], axis=1).reshape(2 * self.groups, b, h, w)
        gate = sigmoid(self.conv.forward(stacked) + self.conv.b[:, None, None, None])
        self._cache = (x5.shape, mx_idx, gate)
        return gate

    def backward(self, dout):
        x5_shape, mx_idx, gate = self._cache
        g, c, b, h, w = x5_shape
        dpre = dout * gate * (1.0 - gate)
        self.conv.g_b += dpre.sum(axis=(1, 2, 3))
        dstacked = self.conv.backward(dpre).reshape(g, 2, b, h, w)
        dx = np.zeros(x5_shape)
        np.put_along_axis(dx, mx_idx, dstacked[:, 1:], axis=1)
        dx += dstacked[:, :1] / c
        return dx.reshape(g * c, b, h, w)


class CbamReference(Layer):
    """``Cbam`` as it ran before the fused gate, with the same parameter
    names; ``load`` copies another gate's weights into it."""

    def __init__(self, channels, reduction=CBAM_REDUCTION, groups=1):
        super().__init__()
        self.groups = groups
        self.register_child("channel", _ChannelAttentionReference(channels, reduction, groups))
        self.register_child("spatial", _SpatialAttentionReference(groups))

    def load(self, other):
        params = self.params()
        for name, value in other.params().items():
            params[name][...] = value
        return self

    def forward(self, x, train=False):
        c, b, h, w = x.shape
        m_c = self.channel.forward(x, train)
        gated = m_c * x
        m_s = self.spatial.forward(gated, train)
        self._cache = (x, m_c, gated, m_s)
        return (gated.reshape(self.groups, -1, b, h, w) * m_s[:, None]).reshape(x.shape)

    def backward(self, dout):
        x, m_c, gated, m_s = self._cache
        c, b, h, w = x.shape
        dout5 = dout.reshape(self.groups, -1, b, h, w)
        dgated = (dout5 * m_s[:, None]).reshape(x.shape)
        dm_s = (dout5 * gated.reshape(dout5.shape)).sum(axis=1)
        dgated += self.spatial.backward(dm_s)
        dx = dgated * m_c
        dx += self.channel.backward((dgated * x).sum(axis=(2, 3), keepdims=True))
        return dx


def _ascii_token_reference(token, lineno):
    s = "".join(token.split())
    if not s:
        raise RadarIoError(f"line {lineno}: empty entry")
    if s[-1] in "iI":
        s = s[:-1] + "j"
    try:
        return complex(s)
    except ValueError as exc:
        raise RadarIoError(f"line {lineno}: cannot parse entry {token!r}") from exc


def parse_ascii_reference(raw):
    """``radar_io.parse_dat(raw, "ascii")`` one line at a time."""
    try:
        lines = raw.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise RadarIoError(f"not an ASCII recording: {exc}") from exc
    entries = (_ascii_token_reference(line, lineno)
               for lineno, line in enumerate(lines, start=1) if line.strip())
    header = list(itertools.islice(entries, 4))
    if len(header) < 4:
        raise TruncatedHeader(f"stream holds {len(header)} entries, header needs 4")
    payload = np.fromiter(entries, dtype=np.complex128)
    for i, value in enumerate(header):
        if value.imag != 0.0:
            raise RadarIoError(f"header entry {i + 1} is not real-valued: {value}")
    params = RadarParams(*(value.real for value in header))
    finite = np.isfinite(payload)
    if not finite.all():
        first = int(np.argmin(finite))
        raise NonFiniteSample(
            f"payload entry {first + 1} is not finite: {complex(payload[first])}"
        )
    n_s = params.samples_per_chirp
    n_chirps = payload.size // n_s
    if n_chirps == 0:
        raise EmptyPayload(
            f"payload holds {payload.size} entries, fewer than one chirp ({n_s})"
        )
    echo = EchoMatrix(params, payload[: n_chirps * n_s].reshape(n_chirps, n_s))
    return ParsedRecording(params, echo, payload.size - n_chirps * n_s)


def write_dat_reference(params, echo, codec="ascii"):
    """``radar_io.write_dat`` in one piece, without blocks."""
    header = [float(params.carrier_freq_hz), float(params.chirp_duration_s),
              float(params.samples_per_chirp), float(params.bandwidth_hz)]
    flat = echo.data.reshape(-1)
    if codec == "ascii":
        lines = [repr(value) for value in header]
        lines.extend(map("{0.real!r}{0.imag:+}i".format, flat.tolist()))
        return ("\n".join(lines) + "\n").encode("ascii")
    head = struct.pack("<4sI4dQ", b"FMCW", 1, *header, flat.size)
    interleaved = np.empty(2 * flat.size, dtype="<f8")
    interleaved[0::2] = flat.real
    interleaved[1::2] = flat.imag
    return head + interleaved.tobytes()


def generate_reference(scene, params):
    """``synth.generate`` in one piece, without render blocks."""
    n_c = scene.n_chirps(params)
    n_s = params.samples_per_chirp
    t_chirp = np.arange(n_c) * params.chirp_duration_s
    t_fast = np.arange(n_s) / params.sample_rate_hz

    data = np.zeros((n_c, n_s), dtype=np.complex128)
    k_slope = params.chirp_slope_hz_per_s
    lam = params.wavelength_m
    for sc in scene.scatterers:
        r = sc.range_at(t_chirp)
        if np.any(r <= 0):
            raise synth.RangeWentNonpositive(
                f"scatterer starting at {sc.r0_m} m reached R <= 0 during the scene"
            )
        f_beat = 2.0 * k_slope * r / SPEED_OF_LIGHT
        phase = (2.0 * math.pi) * f_beat[:, None] * t_fast[None, :] \
            - (4.0 * math.pi / lam) * r[:, None]
        data += sc.amplitude * np.exp(1j * phase)

    if scene.noise_std > 0:
        rng = synth.seeded_rng(scene.seed)
        data += scene.noise_std * (
            rng.standard_normal(data.shape) + 1j * rng.standard_normal(data.shape)
        )

    return EchoMatrix(params=params, data=data)


def _traced_peak(fn, *args):
    """``fn(*args)`` and the peak bytes traced while it ran. ``fn`` may
    call ``tracemalloc.reset_peak()`` to leave its set-up out of the peak."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
