"""Channel and spatial attention: CBAM blocks.

Channel attention squeezes the feature map with global average and max
pooling, runs both through one shared two-layer MLP (reduction 16, ReLU
in between, no biases) and gates channels with the sigmoid of the sum.
Spatial attention pools across channels, stacks the average and max
planes and gates positions through a padded 7x7 convolution with bias.
Both gates multiply the input sequentially: channels first, space second.
"""

from __future__ import annotations

import math

import numpy as np

from .layers import (
    Conv2d,
    Layer,
    ShapeMismatch,
    channel_avg_pool,
    channel_avg_pool_backward,
    channel_max_pool,
    channel_max_pool_backward,
    check_tensor4,
    fan_in_uniform,
    global_avg_pool,
    global_avg_pool_backward,
    global_max_pool,
    global_max_pool_backward,
    sigmoid,
)

SPATIAL_KERNEL = 7
CBAM_REDUCTION = 16


def mlp_width(channels: int, reduction: int) -> int:
    """Hidden width of the shared channel-attention MLP."""
    return max(1, math.ceil(channels / reduction))


class ChannelAttention(Layer):
    def __init__(self, channels, reduction=CBAM_REDUCTION, rng=None):
        super().__init__()
        self.channels = channels
        self.hidden = mlp_width(channels, reduction)
        rng = rng or np.random.default_rng(0)
        self.register_param("w1", fan_in_uniform(rng, (self.hidden, channels), channels))
        self.register_param("w2", fan_in_uniform(rng, (channels, self.hidden), self.hidden))

    def _mlp(self, v):
        h_pre = v @ self.w1.T
        h = np.maximum(h_pre, 0.0)
        return h @ self.w2.T, (v, h_pre, h)

    def _mlp_backward(self, dout, cache):
        v, h_pre, h = cache
        self.g_w2 += dout.T @ h
        dh = (dout @ self.w2) * (h_pre > 0)
        self.g_w1 += dh.T @ v
        return dh @ self.w1

    def forward(self, x, train: bool = False):
        x = check_tensor4(x)
        if x.shape[1] != self.channels:
            raise ShapeMismatch(
                f"channel attention built for {self.channels} channels, got {x.shape[1]}"
            )
        avg = global_avg_pool(x)
        mx, mx_idx = global_max_pool(x)
        out_avg, cache_avg = self._mlp(avg)
        out_max, cache_max = self._mlp(mx)
        gate = sigmoid(out_avg + out_max)
        self._cache = (x.shape, mx_idx, cache_avg, cache_max, gate)
        return gate[:, :, None, None]

    def backward(self, dout):
        x_shape, mx_idx, cache_avg, cache_max, gate = self._cache
        dgate = dout[:, :, 0, 0] * gate * (1.0 - gate)
        davg = self._mlp_backward(dgate, cache_avg)
        dmax = self._mlp_backward(dgate, cache_max)
        return (global_avg_pool_backward(davg, x_shape)
                + global_max_pool_backward(dmax, mx_idx, x_shape))


class SpatialAttention(Layer):
    def __init__(self, rng=None):
        super().__init__()
        self.conv = self.register_child(
            "conv", Conv2d(2, 1, SPATIAL_KERNEL, bias=True, rng=rng)
        )

    def forward(self, x, train: bool = False):
        x = check_tensor4(x)
        avg = channel_avg_pool(x)
        mx, mx_idx = channel_max_pool(x)
        stacked = np.concatenate([avg, mx], axis=1)
        pre = self.conv.forward(stacked)
        gate = sigmoid(pre)
        self._cache = (x.shape, mx_idx, gate)
        return gate

    def backward(self, dout):
        x_shape, mx_idx, gate = self._cache
        dpre = dout * gate * (1.0 - gate)
        dstacked = self.conv.backward(dpre)
        return (channel_avg_pool_backward(dstacked[:, :1], x_shape)
                + channel_max_pool_backward(dstacked[:, 1:], mx_idx, x_shape))


class Cbam(Layer):
    """Sequential channel-then-spatial gating: out = M_s * (M_c * x)."""

    def __init__(self, channels, reduction=CBAM_REDUCTION, rng=None):
        super().__init__()
        self.register_child("channel", ChannelAttention(channels, reduction, rng=rng))
        self.register_child("spatial", SpatialAttention(rng=rng))

    def forward(self, x, train: bool = False):
        m_c = self.channel.forward(x, train=train)
        gated = m_c * x
        m_s = self.spatial.forward(gated, train=train)
        self._cache = (x, m_c, gated, m_s)
        return m_s * gated

    def backward(self, dout):
        x, m_c, gated, m_s = self._cache
        dgated = dout * m_s
        dm_s = (dout * gated).sum(axis=1, keepdims=True)
        dgated += self.spatial.backward(dm_s)
        dx = dgated * m_c
        dm_c = (dgated * x).sum(axis=(2, 3), keepdims=True)
        dx += self.channel.backward(dm_c)
        return dx
