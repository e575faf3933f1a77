"""Finite-difference verification of every backward pass.

Each case builds a small layer with seeded weights, defines the scalar
loss sum(output * R) for a fixed random projection R, and compares the
analytic gradients (input and every parameter) against central
differences with step 1e-6 in float64. The error metric is

    |analytic - numeric| / max(|analytic|, |numeric|, 1e-3)

elementwise: true relative error wherever gradients are of sensible
magnitude, absolute against 1e-3 below that, which keeps the check
meaningful where finite-difference noise would swamp a tiny ratio.
Inputs are nudged away from activation kinks so the differences are
two-sided smooth.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import partial

import numpy as np

from .attention import Cbam, ChannelAttention, SpatialAttention
from .blocks import MBConv
from .heads import FusionClassifier, RdHead, SequenceReshape
from .layers import (
    BatchNorm2d,
    Conv2d,
    DepthwiseConv2d,
    Layer,
    Linear,
    Sequential,
    Swish,
)
from .recurrent import Lstm

DEFAULT_EPS = 1e-6
DEFAULT_TOLERANCE = 1e-4


@dataclass(frozen=True)
class GradCheckResult:
    name: str
    max_rel_error: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < DEFAULT_TOLERANCE


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3)
    return float(np.max(np.abs(analytic - numeric) / denom))


def numerical_grad(f, x: np.ndarray) -> np.ndarray:
    """Central differences of a scalar function, elementwise over x."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + DEFAULT_EPS
        f_plus = f()
        flat[i] = orig - DEFAULT_EPS
        f_minus = f()
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * DEFAULT_EPS)
    return grad


def _away_from_kinks(rng, shape, margin=0.2):
    x = rng.standard_normal(shape)
    return x + margin * np.sign(x)


def _channel_first(x):
    """A (B, C, H, W) draw as the C-contiguous (C, B, H, W) map layers take."""
    return np.ascontiguousarray(x.transpose(1, 0, 2, 3))


def check_layer(name, layer, x, forward=None, backward=None) -> GradCheckResult:
    """Compare analytic input/parameter gradients against central differences.

    ``forward`` and ``backward`` replace ``layer.forward(x)`` and
    ``layer.backward`` where the case is not a plain one-input layer;
    ``layer`` still supplies the parameters and their gradients.
    """
    fwd = forward if forward is not None else (
        lambda: layer.forward(x, train=False))
    bwd = backward if backward is not None else layer.backward
    # crc32, not hash(): str hashes are salted per process.
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    out = fwd()
    projection = rng.standard_normal(out.shape)

    def loss():
        return float(np.sum(fwd() * projection))

    layer.zero_grads()
    out = fwd()
    dx = bwd(projection)

    errors = [max_rel_error(dx, numerical_grad(loss, x))]
    analytic_grads = {k: v.copy() for k, v in layer.grads().items()}
    for pname, pvalue in layer.params().items():
        errors.append(max_rel_error(analytic_grads[pname], numerical_grad(loss, pvalue)))
    return GradCheckResult(name=name, max_rel_error=max(errors))


def _case_conv(rng):
    layer = Conv2d(3, 4, 3, stride=2, rng=rng)
    return layer, _channel_first(_away_from_kinks(rng, (2, 3, 8, 8)))


def _case_conv_pointwise(rng):
    return Conv2d(3, 4, 1, rng=rng), _channel_first(rng.standard_normal((2, 3, 5, 6)))


def _case_conv_stride1(rng):
    first = Conv2d(3, 4, 3, rng=rng)
    second = Conv2d(4, 2, 5, rng=rng)
    x = _channel_first(rng.standard_normal((2, 3, 7, 6)))
    return Sequential(first=first, second=second), x


def _case_conv_grouped(rng):
    layer = Conv2d(4, 6, 3, stride=2, groups=2, rng=rng)
    return layer, _channel_first(_away_from_kinks(rng, (2, 4, 8, 8)))


def _case_conv_grouped_pointwise(rng):
    return Conv2d(4, 6, 1, groups=2, rng=rng), _channel_first(rng.standard_normal((2, 4, 5, 6)))


def _case_depthwise(rng):
    layer = DepthwiseConv2d(4, 3, stride=1, rng=rng)
    return layer, _channel_first(_away_from_kinks(rng, (2, 4, 6, 6)))


def _case_batchnorm(rng, swish=False):
    layer = BatchNorm2d(5, swish=swish)
    layer.running_mean = rng.standard_normal(5) * 0.3
    layer.running_var = rng.uniform(0.5, 1.5, 5)
    layer.gamma[...] = rng.uniform(0.5, 1.5, 5)
    layer.beta[...] = rng.standard_normal(5) * 0.2
    return layer, _channel_first(_away_from_kinks(rng, (2, 5, 4, 4)))


def _case_batchnorm_train(rng, swish=False):
    layer = BatchNorm2d(3, swish=swish)
    layer.gamma[...] = rng.uniform(0.5, 1.5, 3)
    x = _channel_first(_away_from_kinks(rng, (3, 3, 4, 4)))
    return layer, x, (lambda: layer.forward(x, train=True))


def _case_swish(rng):
    return Swish(), _channel_first(rng.standard_normal((2, 3, 5, 5)))


def _case_linear(rng):
    return Linear(7, 4, rng=rng), rng.standard_normal((3, 7))


def _case_cbam_channel(rng):
    layer = ChannelAttention(8, reduction=4, rng=rng)
    return layer, _channel_first(_away_from_kinks(rng, (2, 8, 5, 5)))


def _case_cbam_spatial(rng):
    return SpatialAttention(rng=rng), _channel_first(_away_from_kinks(rng, (2, 4, 8, 8)))


def _case_cbam(rng):
    return Cbam(6, reduction=3, rng=rng), _channel_first(_away_from_kinks(rng, (2, 6, 7, 7)))


def _case_cbam_grouped(rng):
    layer = Cbam(8, reduction=2, groups=2, rng=rng)
    return layer, _channel_first(_away_from_kinks(rng, (2, 8, 6, 6)))


def _case_mbconv(rng):
    layer = MBConv(4, 4, 3, expand_ratio=2, stride=1, cbam_reduction=4, rng=rng)
    x = _channel_first(_away_from_kinks(rng, (1, 4, 8, 8)))
    _set_bn_eval_stats(layer, rng)
    return layer, x


def _case_mbconv_stride2(rng):
    layer = MBConv(3, 5, 5, expand_ratio=2, stride=2, cbam_reduction=4, rng=rng)
    x = _channel_first(_away_from_kinks(rng, (2, 3, 8, 8)))
    _set_bn_eval_stats(layer, rng)
    return layer, x


def _case_mbconv_grouped(rng):
    layer = MBConv(4, 4, 3, expand_ratio=2, stride=1, cbam_reduction=2, groups=2, rng=rng)
    x = _channel_first(_away_from_kinks(rng, (1, 4, 8, 8)))
    _set_bn_eval_stats(layer, rng)
    return layer, x


def _set_bn_eval_stats(layer, rng):
    for _, bn in layer._layers():
        if isinstance(bn, BatchNorm2d):
            bn.running_mean = rng.standard_normal(bn.channels) * 0.1
            bn.running_var = rng.uniform(0.8, 1.2, bn.channels)


def _case_lstm(rng):
    return Lstm(6, 5, rng=rng), rng.standard_normal((2, 5, 6))


def _case_sequence_reshape(rng):
    return SequenceReshape(), _channel_first(rng.standard_normal((2, 3, 4, 5)))


def _case_rd_head(rng):
    return RdHead(6, 4, rng=rng), rng.standard_normal((2, 5, 6))


def _case_fusion(rng):
    layer = FusionClassifier(5, 6, rng=rng)
    x = rng.standard_normal((2, 15))

    def fwd():
        return layer.forward(x[:, :5], x[:, 5:10], x[:, 10:], train=False)

    def bwd(dout):
        return np.concatenate(layer.backward(dout), axis=1)

    return layer, x, fwd, bwd


def _case_cross_entropy(rng):
    from ..training import cross_entropy

    logits = rng.standard_normal((4, 6))
    labels = rng.integers(0, 6, size=4)

    def fwd():
        loss, _ = cross_entropy(logits, labels)
        return np.array([loss])

    def bwd(dout):
        _, grad = cross_entropy(logits, labels)
        return grad * dout  # dout is the scalar projection weight

    return Layer(), logits, fwd, bwd


# Each case in exactly one group; ``run_gradcheck("all")`` runs every group.
GROUPS = {
    "conv": {"conv": _case_conv, "conv_pointwise": _case_conv_pointwise,
             "conv_stride1": _case_conv_stride1, "conv_grouped": _case_conv_grouped,
             "conv_grouped_pointwise": _case_conv_grouped_pointwise,
             "depthwise": _case_depthwise},
    "bn": {"batchnorm": _case_batchnorm, "batchnorm_train": _case_batchnorm_train,
           "batchnorm_swish": partial(_case_batchnorm, swish=True),
           "batchnorm_swish_train": partial(_case_batchnorm_train, swish=True)},
    "activations": {"swish": _case_swish},
    "cbam": {"cbam_channel": _case_cbam_channel, "cbam_spatial": _case_cbam_spatial,
             "cbam": _case_cbam, "cbam_grouped": _case_cbam_grouped},
    "mbconv": {"mbconv": _case_mbconv, "mbconv_stride2": _case_mbconv_stride2,
               "mbconv_grouped": _case_mbconv_grouped},
    "lstm": {"lstm": _case_lstm},
    "heads": {"linear": _case_linear, "sequence_reshape": _case_sequence_reshape,
              "rd_head": _case_rd_head, "fusion": _case_fusion},
    "loss": {"cross_entropy": _case_cross_entropy},
}


def run_gradcheck(module: str = "all") -> list[GradCheckResult]:
    """Run the finite-difference suite for one group of ``GROUPS``, or "all"."""
    groups = GROUPS.values() if module == "all" else [GROUPS[module]]
    return [check_layer(name, *build(np.random.default_rng(7)))
            for cases in groups for name, build in cases.items()]
