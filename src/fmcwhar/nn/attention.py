"""Channel and spatial attention: CBAM blocks.

Channel attention squeezes the feature map with global average and max
pooling, runs both through one shared two-layer MLP (reduction 16, ReLU
in between, no biases) and gates channels with the sigmoid of the sum.
Spatial attention pools across channels, stacks the average and max
planes and gates positions through a padded 7x7 convolution with bias.
Both gates multiply the input sequentially: channels first, space second.
With ``groups`` G the channels form G groups, each a block of rows of
the (C, B, H, W) input, gated as if it ran alone; the model's three
branches run that way as one pass.

In backward, ``Cbam`` passes its own gradient buffers to both gates, so
every pool gradient is added in place: one broadcast add per average
pool and a masked or indexed add at the max positions, no scatter into
zeros.
"""

from __future__ import annotations

import math

import numpy as np

from .layers import (
    Layer,
    check_tensor4,
    fan_in_uniform,
    padded_rows,
    sigmoid,
    toeplitz_conv,
    toeplitz_conv_backward,
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
        """Per-group MLP of (C, B) pooled features, run as (G, C / G, B)."""
        g = self.groups
        v = v.reshape(g, -1, v.shape[1])
        h_pre = self.w1.reshape(g, self.hidden, -1) @ v
        h = np.maximum(h_pre, 0.0)
        out = self.w2.reshape(g, -1, self.hidden) @ h
        return out.reshape(self.channels, -1), (v, h_pre, h)

    def _mlp_backward(self, dout, cache):
        v, h_pre, h = cache
        g = self.groups
        dout = dout.reshape(g, -1, dout.shape[1])
        w1, w2 = self.w1.reshape(g, self.hidden, -1), self.w2.reshape(g, -1, self.hidden)
        self.g_w2 += (dout @ h.transpose(0, 2, 1)).reshape(self.w2.shape)
        dh = (w2.transpose(0, 2, 1) @ dout) * (h_pre > 0)
        self.g_w1 += (dh @ v.transpose(0, 2, 1)).reshape(self.w1.shape)
        return (w1.transpose(0, 2, 1) @ dh).reshape(self.channels, -1)

    def forward(self, x, train: bool = False):
        x = check_tensor4(x, self.channels)
        c, b, h, w = x.shape
        flat = x.reshape(c, b, h * w)
        mx_idx = flat.argmax(axis=2)
        avg = flat.mean(axis=2)
        mx = flat[np.arange(c)[:, None], np.arange(b), mx_idx]
        out_avg, cache_avg = self._mlp(avg)
        out_max, cache_max = self._mlp(mx)
        gate = sigmoid(out_avg + out_max)
        self._stash((x.shape, mx_idx, cache_avg, cache_max, gate))
        return gate[:, :, None, None]

    def backward(self, dout, dx=None):
        """The input gradient, added in place into ``dx`` when given."""
        x_shape, mx_idx, cache_avg, cache_max, gate = self._take()
        dgate = dout[:, :, 0, 0] * gate * (1.0 - gate)
        davg = self._mlp_backward(dgate, cache_avg)
        dmax = self._mlp_backward(dgate, cache_max)
        c, b, h, w = x_shape
        if dx is None:
            dx = np.zeros(x_shape)
        dx += (davg / (h * w))[:, :, None, None]
        rows, cols = np.divmod(mx_idx, w)
        dx[np.arange(c)[:, None], np.arange(b), rows, cols] += dmax
        return dx


class SpatialAttention(Layer):
    """CBAM spatial gate: (G, B, H, W), one plane per channel group, from
    each group's average and max planes through a 2G -> G grouped k7 conv.

    The planes go straight into the interior of a ``padded_rows`` buffer
    (G, B, Hp, 2, Wp), whose padded row r of sample b holds its average
    row and its max row side by side, and ``toeplitz_conv`` runs the conv
    on that buffer as it does for every windowed conv. The child ``conv``
    only holds the weights, ``w`` (G, 2, k, k) and ``b`` (G,): group g's
    average and max kernels, then its bias; ``w[:, None]`` is the kernel's
    (G, 1, 2, k, k) weight, one output per group.
    """

    def __init__(self, groups=1, rng=None):
        super().__init__()
        self.groups = groups
        rng = rng or np.random.default_rng(0)
        k = SPATIAL_KERNEL
        conv = self.register_child("conv", Layer())
        conv.register_param("w", fan_in_uniform(rng, (groups, 2, k, k), 2 * k * k))
        conv.register_param("b", np.zeros(groups))

    def forward(self, x, train: bool = False):
        x = check_tensor4(x)
        c, b, h, w = x.shape
        g = self.groups
        x5 = x.reshape(g, c // g, b, h, w)
        rows, planes = padded_rows(g, 2, b, h, w, SPATIAL_KERNEL, 1)
        np.mean(x5, axis=1, out=planes[:, 0])
        np.max(x5, axis=1, out=planes[:, 1])
        pre = toeplitz_conv(rows, self.conv.w[:, None], 1, h)
        pre += self.conv.b[:, None, None, None]
        gate = sigmoid(pre)
        self._stash((x5, rows, planes, gate))
        return gate

    def backward(self, dout, dx=None):
        """The input gradient, added in place into ``dx`` when given."""
        x5, rows, planes, gate = self._take()
        g, c, b, h, w = x5.shape
        dpre = dout * gate
        dpre *= 1.0 - gate
        self.conv.g_b += dpre.sum(axis=(1, 2, 3))
        g_w5, dplanes = toeplitz_conv_backward(rows, self.conv.w[:, None], dpre, 1, h)
        self.conv.g_w += g_w5[:, 0]
        if dx is None:
            dx = np.zeros((g * c, b, h, w))
        dx5 = dx.reshape(x5.shape)
        dx5 += (dplanes[:, 0] / c)[:, None]
        # The first channel that attains the max takes its gradient, as
        # argmax picks it. For finite inputs every position has one hit
        # unless channels tie there; only then does the first-hit walk run.
        hit = x5 == planes[:, 1:]
        if np.count_nonzero(hit) != hit[:, 0].size:
            open_ = ~hit[:, 0]
            for j in range(1, c):
                hit[:, j] &= open_
                open_ ^= hit[:, j]
        # A mask multiply and an add: cheaper than a masked add.
        dx5 += hit * dplanes[:, 1:]
        return dx


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
        self._stash((x, m_c, gated, m_s))
        # A group of channels is a block of rows: (G, C / G, B, H, W).
        return (gated.reshape(self.groups, -1, *x.shape[1:]) * m_s[:, None]).reshape(x.shape)

    def backward(self, dout):
        x, m_c, gated, m_s = self._take()
        dout5 = dout.reshape(self.groups, -1, *dout.shape[1:])
        dgated = (dout5 * m_s[:, None]).reshape(x.shape)
        dm_s = (dout5 * gated.reshape(dout5.shape)).sum(axis=1)
        self.spatial.backward(dm_s, dgated)
        dx = dgated * m_c
        dm_c = (dgated * x).sum(axis=(2, 3), keepdims=True)
        return self.channel.backward(dm_c, dx)
