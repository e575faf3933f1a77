"""Channel and spatial attention: CBAM blocks.

Channel attention squeezes the feature map with global average and max
pooling, runs both through one shared two-layer MLP (reduction 16, ReLU
in between, no biases) and gates channels with the sigmoid of the sum.
Spatial attention pools across channels, stacks the average and max
planes and gates positions through a padded 7x7 convolution with bias.
Both gates multiply the input sequentially: channels first, space second.
With ``groups`` G the channels form G groups, each gated as if it ran
alone; the model's three branches run that way as one pass.
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
    """CBAM channel gate; with ``groups`` G, each of the G channel groups
    has its own MLP, whose weights are rows of ``w1`` and ``w2`` in group
    order."""

    def __init__(self, channels, reduction=CBAM_REDUCTION, groups=1, rng=None):
        super().__init__()
        self.channels = channels
        self.groups = groups
        self.hidden = mlp_width(channels // groups, reduction)
        rng = rng or np.random.default_rng(0)
        c = channels // groups
        self.register_param("w1", fan_in_uniform(rng, (groups * self.hidden, c), c))
        self.register_param("w2", fan_in_uniform(rng, (channels, self.hidden), self.hidden))

    def _mlp(self, v):
        """Per-group MLP of (B, C) pooled features, run as (G, B, C / G)."""
        g = self.groups
        v = v.reshape(len(v), g, -1).transpose(1, 0, 2)
        h_pre = v @ self.w1.reshape(g, self.hidden, -1).transpose(0, 2, 1)
        h = np.maximum(h_pre, 0.0)
        out = h @ self.w2.reshape(g, -1, self.hidden).transpose(0, 2, 1)
        return _ungroup(out), (v, h_pre, h)

    def _mlp_backward(self, dout, cache):
        v, h_pre, h = cache
        g = self.groups
        dout = dout.reshape(len(dout), g, -1).transpose(1, 0, 2)
        w1, w2 = self.w1.reshape(g, self.hidden, -1), self.w2.reshape(g, -1, self.hidden)
        self.g_w2 += (dout.transpose(0, 2, 1) @ h).reshape(self.w2.shape)
        dh = (dout @ w2) * (h_pre > 0)
        self.g_w1 += (dh.transpose(0, 2, 1) @ v).reshape(self.w1.shape)
        return _ungroup(dh @ w1)

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
        dx = global_max_pool_backward(dmax, mx_idx, x_shape)
        dx += global_avg_pool_backward(davg, x_shape)
        return dx


def _ungroup(a):
    """(G, B, n) -> (B, G * n)."""
    return a.transpose(1, 0, 2).reshape(a.shape[1], -1)


def _split_groups(x, groups):
    """(B, C, H, W) -> (B, G, C / G, H, W), a view."""
    b, c, h, w = x.shape
    return x.reshape(b, groups, c // groups, h, w)


class SpatialAttention(Layer):
    """CBAM spatial gate: (B, G, H, W), one plane per channel group, from
    each group's average and max planes through a 2G -> G grouped conv."""

    def __init__(self, groups=1, rng=None):
        super().__init__()
        self.groups = groups
        self.conv = self.register_child("conv", Conv2d(
            2 * groups, groups, SPATIAL_KERNEL, bias=True, groups=groups, rng=rng))

    def forward(self, x, train: bool = False):
        x5 = _split_groups(check_tensor4(x), self.groups)
        b, g, _, h, w = x5.shape
        avg = channel_avg_pool(x5)
        mx, mx_idx = channel_max_pool(x5)
        stacked = np.concatenate([avg, mx], axis=2).reshape(b, 2 * g, h, w)
        pre = self.conv.forward(stacked)
        gate = sigmoid(pre)
        self._cache = (x5.shape, mx_idx, gate)
        return gate

    def backward(self, dout):
        x5_shape, mx_idx, gate = self._cache
        # Laid out like the gate, as in Swish.backward.
        dpre = np.multiply(dout, gate, out=np.empty_like(gate))
        dpre *= 1.0 - gate
        b, g, c, h, w = x5_shape
        dstacked = self.conv.backward(dpre).reshape(b, g, 2, h, w)
        dx = channel_max_pool_backward(dstacked[:, :, 1:], mx_idx, x5_shape)
        dx += channel_avg_pool_backward(dstacked[:, :, :1], x5_shape)
        return dx.reshape(b, g * c, h, w)


class Cbam(Layer):
    """Sequential channel-then-spatial gating: out = M_s * (M_c * x).

    With ``groups`` G, the channels form G groups gated independently:
    the group's own channel MLP and spatial plane, as if each ran alone.
    """

    def __init__(self, channels, reduction=CBAM_REDUCTION, groups=1, rng=None):
        super().__init__()
        self.groups = groups
        self.register_child("channel", ChannelAttention(channels, reduction, groups, rng=rng))
        self.register_child("spatial", SpatialAttention(groups, rng=rng))

    def forward(self, x, train: bool = False):
        m_c = self.channel.forward(x, train=train)
        gated = m_c * x
        m_s = self.spatial.forward(gated, train=train)
        self._cache = (x, m_c, gated, m_s)
        return (_split_groups(gated, self.groups) * m_s[:, :, None]).reshape(x.shape)

    def backward(self, dout):
        x, m_c, gated, m_s = self._cache
        dout5 = _split_groups(dout, self.groups)
        dgated = (dout5 * m_s[:, :, None]).reshape(x.shape)
        dm_s = (dout5 * _split_groups(gated, self.groups)).sum(axis=2)
        dgated += self.spatial.backward(dm_s)
        dx = dgated * m_c
        dm_c = (dgated * x).sum(axis=(2, 3), keepdims=True)
        dx += self.channel.backward(dm_c)
        return dx
