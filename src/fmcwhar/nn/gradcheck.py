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
    ReLU,
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
    layer = Conv2d(3, 4, 3, stride=2, bias=True, rng=rng)
    return layer, _away_from_kinks(rng, (2, 3, 8, 8))


def _case_conv_pointwise(rng):
    layer = Conv2d(3, 4, 1, bias=True, rng=rng)
    layer.b[...] = rng.standard_normal(4)
    return layer, rng.standard_normal((2, 3, 5, 6))


def _case_conv_stride1(rng):
    first = Conv2d(3, 4, 3, bias=True, rng=rng)
    second = Conv2d(4, 2, 5, bias=True, rng=rng)
    for conv in (first, second):
        conv.b[...] = rng.standard_normal(conv.out_channels)
    return Sequential(first=first, second=second), rng.standard_normal((2, 3, 7, 6))


def _case_depthwise(rng):
    layer = DepthwiseConv2d(4, 3, stride=1, rng=rng)
    return layer, _away_from_kinks(rng, (2, 4, 6, 6))


def _case_batchnorm(rng):
    layer = BatchNorm2d(5)
    layer.running_mean = rng.standard_normal(5) * 0.3
    layer.running_var = rng.uniform(0.5, 1.5, 5)
    layer.gamma[...] = rng.uniform(0.5, 1.5, 5)
    layer.beta[...] = rng.standard_normal(5) * 0.2
    return layer, _away_from_kinks(rng, (2, 5, 4, 4))


def _case_batchnorm_train(rng):
    layer = BatchNorm2d(3)
    layer.gamma[...] = rng.uniform(0.5, 1.5, 3)
    x = _away_from_kinks(rng, (3, 3, 4, 4))
    return layer, x, (lambda: layer.forward(x, train=True))


def _case_relu(rng):
    return ReLU(), _away_from_kinks(rng, (2, 3, 5, 5))


def _case_swish(rng):
    return Swish(), rng.standard_normal((2, 3, 5, 5))


def _case_linear(rng):
    return Linear(7, 4, rng=rng), rng.standard_normal((3, 7))


def _case_cbam_channel(rng):
    return ChannelAttention(8, reduction=4, rng=rng), _away_from_kinks(rng, (2, 8, 5, 5))


def _case_cbam_spatial(rng):
    return SpatialAttention(rng=rng), _away_from_kinks(rng, (2, 4, 8, 8))


def _case_cbam(rng):
    return Cbam(6, reduction=3, rng=rng), _away_from_kinks(rng, (2, 6, 7, 7))


def _case_mbconv(rng):
    layer = MBConv(4, 4, 3, expand_ratio=2, stride=1, cbam_reduction=4, rng=rng)
    x = _away_from_kinks(rng, (1, 4, 8, 8))
    _set_bn_eval_stats(layer, rng)
    return layer, x


def _case_mbconv_stride2(rng):
    layer = MBConv(3, 5, 5, expand_ratio=2, stride=2, cbam_reduction=4, rng=rng)
    x = _away_from_kinks(rng, (2, 3, 8, 8))
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
    return SequenceReshape("hxc"), rng.standard_normal((2, 3, 4, 5))


def _case_sequence_reshape_pooled(rng):
    return SequenceReshape("c"), rng.standard_normal((2, 3, 4, 5))


def _case_rd_head(rng):
    return RdHead(6, 4, rng=rng), rng.standard_normal((2, 5, 6))


def _case_fusion(rng):
    layer = FusionClassifier(5, 6, dropout_p=0.2, rng=rng)
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


CASES = {
    "conv": _case_conv,
    "conv_pointwise": _case_conv_pointwise,
    "conv_stride1": _case_conv_stride1,
    "depthwise": _case_depthwise,
    "batchnorm": _case_batchnorm,
    "batchnorm_train": _case_batchnorm_train,
    "relu": _case_relu,
    "swish": _case_swish,
    "linear": _case_linear,
    "cbam_channel": _case_cbam_channel,
    "cbam_spatial": _case_cbam_spatial,
    "cbam": _case_cbam,
    "mbconv": _case_mbconv,
    "mbconv_stride2": _case_mbconv_stride2,
    "lstm": _case_lstm,
    "sequence_reshape": _case_sequence_reshape,
    "sequence_reshape_pooled": _case_sequence_reshape_pooled,
    "rd_head": _case_rd_head,
    "fusion": _case_fusion,
    "cross_entropy": _case_cross_entropy,
}

MODULE_GROUPS = {
    "all": list(CASES),
    "conv": ["conv", "conv_pointwise", "conv_stride1", "depthwise"],
    "bn": ["batchnorm", "batchnorm_train"],
    "activations": ["relu", "swish"],
    "cbam": ["cbam_channel", "cbam_spatial", "cbam"],
    "mbconv": ["mbconv", "mbconv_stride2"],
    "lstm": ["lstm"],
    "heads": ["sequence_reshape", "sequence_reshape_pooled", "rd_head", "fusion"],
    "loss": ["cross_entropy"],
}


def run_gradcheck(module: str = "all") -> list[GradCheckResult]:
    """Run the finite-difference suite for one module group (or everything)."""
    if module in MODULE_GROUPS:
        names = MODULE_GROUPS[module]
    elif module in CASES:
        names = [module]
    else:
        raise KeyError(
            f"unknown gradcheck module {module!r}; "
            f"choose from {sorted(set(MODULE_GROUPS) | set(CASES))}"
        )
    results = []
    for name in names:
        built = CASES[name](np.random.default_rng(7))
        results.append(check_layer(name, *built))
    return results
