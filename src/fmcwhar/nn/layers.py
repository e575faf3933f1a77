"""Core layers: convolutions, batch norm, activations, linear, dropout.

Every layer follows the same contract: ``forward(x, train=False)``
returns the output and stashes whatever the backward pass needs;
``backward(dout)`` returns the gradient with respect to the input and
accumulates parameter gradients into ``self.g_*`` arrays. Parameters
and their gradients are exposed through ``params()`` / ``grads()`` as
flat name->array dicts, with child layers namespaced by dots.

Feature maps are channel-major: every conv, batch norm and activation
takes and returns C-contiguous (C, B, H, W) arrays, so a channel is one
row of B*H*W values and a block of channels is a block of rows.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided


class ShapeMismatch(ValueError):
    pass


def check_tensor4(x) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 4:
        raise ShapeMismatch(
            f"expected a channel-major (C, B, H, W) tensor, got shape {x.shape}")
    return x


def fan_in_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) initialization."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Layer:
    """Base class: parameter registry plus child namespacing."""

    def __init__(self):
        self._param_names: list[str] = []
        self._buffer_names: list[str] = []
        self._children: list[tuple[str, "Layer"]] = []

    def register_param(self, name: str, value: np.ndarray) -> np.ndarray:
        setattr(self, name, value)
        setattr(self, "g_" + name, np.zeros(value.shape))
        self._param_names.append(name)
        return value

    def register_buffer(self, name: str, value: np.ndarray) -> np.ndarray:
        """Non-trainable state that still belongs in checkpoints."""
        setattr(self, name, value)
        self._buffer_names.append(name)
        return value

    def register_child(self, name: str, child: "Layer") -> "Layer":
        setattr(self, name, child)
        self._children.append((name, child))
        return child

    def _layers(self, prefix: str = ""):
        """(dotted prefix, layer) for this layer and every descendant."""
        yield prefix, self
        for child_name, child in self._children:
            yield from child._layers(f"{prefix}{child_name}.")

    def _walk(self, registry: str, attr_prefix: str = "") -> dict[str, np.ndarray]:
        return {
            prefix + name: getattr(layer, attr_prefix + name)
            for prefix, layer in self._layers()
            for name in getattr(layer, registry)
        }

    def params(self) -> dict[str, np.ndarray]:
        return self._walk("_param_names")

    def buffers(self) -> dict[str, np.ndarray]:
        return self._walk("_buffer_names")

    def grads(self) -> dict[str, np.ndarray]:
        return self._walk("_param_names", attr_prefix="g_")

    def zero_grads(self) -> None:
        for grad in self.grads().values():
            grad[...] = 0.0

    def forward(self, x, train: bool = False):
        raise NotImplementedError

    def backward(self, dout):
        raise NotImplementedError


class Sequential(Layer):
    """Children run in registration order; backward runs them in reverse.

    Keyword children register in argument order; subclasses may register
    more with ``register_child``, and that order is the execution order.
    """

    def __init__(self, **children: Layer):
        super().__init__()
        for name, child in children.items():
            self.register_child(name, child)

    def forward(self, x, train: bool = False):
        for _, child in self._children:
            x = child.forward(x, train)
        return x

    def backward(self, dout):
        for _, child in reversed(self._children):
            dout = child.backward(dout)
        return dout


def _row_taps(h, k, s, p, h_out):
    """(i, y0, y1, r0) per kernel row i: output rows y0:y1 read input rows
    r0, r0 + s, ...; rows that fall in the zero padding are skipped."""
    for i in range(k):
        y0, y1 = max(0, -((i - p) // s)), min(h_out, (h - 1 - i + p) // s + 1)
        if y1 > y0:
            yield i, y0, y1, s * y0 + i - p


def band_diagonals(a, k, s, o):
    """View (..., k, O, Wo) of the last two axes of ``a``, Wp band rows by
    O*Wo columns: [..., j, o, x] is a[..., s*x + j, o*Wo + x], the place of
    tap j of output o at output column x. Writing through it fills a band."""
    w_out = a.shape[-1] // o
    rs, cs = a.strides[-2:]
    return as_strided(a, (*a.shape[:-2], k, o, w_out),
                      (*a.strides[:-2], rs, w_out * cs, s * rs + cs))


def toeplitz_band(w4, wp, s, w_out):
    """Banded Toeplitz matrix (C, k*Wp, O*Wo) of the (C, O, k, k) weight
    ``w4`` for padded rows Wp wide.

    Rows i*Wp .. (i+1)*Wp - 1 are kernel row i's block: a padded input
    row times that block is the row's share of one output row.
    """
    c, o, k = w4.shape[0], w4.shape[1], w4.shape[-1]
    band = np.zeros((c, k, wp, o * w_out))
    band_diagonals(band, k, s, o)[...] = w4.transpose(0, 2, 3, 1)[..., None]
    return band.reshape(c, k * wp, o * w_out)


def _row_toeplitz(x, w4, s, p):
    """Row stack (C, B*Ho, k*Wp) of the (C, B, H, W) ``x`` and
    ``toeplitz_band`` of ``w4``.

    Stack row (b, y) holds the padded input rows s*y .. s*y + k - 1 side
    by side. Also returns (Ho, Wo).
    """
    c, b, h, w = x.shape
    k = w4.shape[-1]
    wp = w + 2 * p
    h_out, w_out = (h + 2 * p - k) // s + 1, (wp - k) // s + 1
    cols = np.zeros((c, b, h_out, k, wp))
    for i, y0, y1, r0 in _row_taps(h, k, s, p, h_out):
        cols[:, :, y0:y1, i, p: p + w] = x[:, :, r0: r0 + s * (y1 - y0): s]
    band = toeplitz_band(w4, wp, s, w_out)
    return cols.reshape(c, b * h_out, k * wp), band, (h_out, w_out)


def toeplitz_conv(x, w4, s, p, groups):
    """k x k conv of the (C, B, H, W) ``x`` by the (C, O, k, k) weight
    ``w4``, as one matmul of its row stack and band batched over input
    channels.

    The C input channels form ``groups`` equal groups, and group g's
    products sum into its own O outputs, channels g*O .. g*O + O - 1: a
    dense conv is one group, a depthwise one (O = 1) is C groups.
    """
    cols, band, (h_out, w_out) = _row_toeplitz(x, w4, s, p)
    c, b, o, g = x.shape[0], x.shape[1], w4.shape[1], groups
    prod = (cols @ band).reshape(g, c // g, b, h_out, o, w_out)
    out = np.empty((g, o, b, h_out, w_out))
    np.sum(prod, axis=1, out=out.transpose(0, 2, 3, 1, 4))
    return out.reshape(g * o, b, h_out, w_out)


def toeplitz_conv_backward(x, w4, dout, s, p, groups, input_grad=True):
    """(g_w4, dx) of ``toeplitz_conv``. The row stack is rebuilt from
    ``x``; g_w4 sums the band diagonals of cols^T dout, and dx folds the
    rows of dout band^T back onto the input, k row adds in all. Without
    ``input_grad``, dx is None and neither product nor fold runs."""
    cols, band, (h_out, w_out) = _row_toeplitz(x, w4, s, p)
    c, b, h, w = x.shape
    o, k, g = w4.shape[1], w4.shape[-1], groups
    d2 = dout.reshape(g, o, b * h_out, w_out).transpose(0, 2, 1, 3)
    d2 = d2.reshape(g, 1, b * h_out, o * w_out)
    g_band = (cols.reshape(g, c // g, b * h_out, -1).transpose(0, 1, 3, 2) @ d2)
    del cols  # the row stack is the largest temporary; free it before dx
    g_diag = band_diagonals(g_band.reshape(c, k, w + 2 * p, -1), k, s, o)
    g_w4 = g_diag.sum(axis=-1).transpose(0, 3, 1, 2)
    if not input_grad:
        return g_w4, None
    band_t = band.reshape(g, c // g, -1, o * w_out).transpose(0, 1, 3, 2)
    drows = (d2 @ band_t).reshape(c, b, h_out, k, w + 2 * p)
    dx = np.zeros((c, b, h, w))
    for i, y0, y1, r0 in _row_taps(h, k, s, p, h_out):
        dx[:, :, r0: r0 + s * (y1 - y0): s] += drows[:, :, y0:y1, i, p: p + w]
    return g_w4, dx


class Conv2d(Layer):
    """k x k convolution without bias, zero-padded by (k - 1) // 2 on every side.

    With ``groups`` G, the input and output channels split into G equal
    groups and output group g reads input group g only; the weight is
    (out_channels, in_channels / G, k, k), group g's filters in rows
    g * out_channels / G onward. With ``input_grad`` cleared, backward
    accumulates the weight gradients only and returns None.
    """

    def __init__(self, in_channels, out_channels, kernel, stride=1, groups=1, rng=None):
        super().__init__()
        if in_channels % groups or out_channels % groups:
            raise ValueError(
                f"{groups} groups do not divide {in_channels} -> {out_channels} channels"
            )
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.groups = groups
        self.padding = (kernel - 1) // 2
        self.input_grad = True
        # 1x1, stride 1: one channel matmul per group, no windows.
        self._pointwise = kernel == 1 and stride == 1
        rng = rng or np.random.default_rng(0)
        fan_in = in_channels // groups * kernel * kernel
        self.register_param("w", fan_in_uniform(
            rng, (out_channels, in_channels // groups, kernel, kernel), fan_in))

    def _w4(self):
        """The weight as ``toeplitz_conv``'s (C, O / G, k, k)."""
        g, k = self.groups, self.kernel
        w5 = self.w.reshape(g, self.out_channels // g, -1, k, k).transpose(0, 2, 1, 3, 4)
        return w5.reshape(self.in_channels, -1, k, k)

    def _w3(self):
        """The 1x1 weight as (G, O / G, C / G)."""
        return self.w.reshape(self.groups, self.out_channels // self.groups, -1)

    def forward(self, x, train: bool = False):
        x = check_tensor4(x)
        if x.shape[0] != self.in_channels:
            raise ShapeMismatch(
                f"conv expects {self.in_channels} input channels, got {x.shape[0]}"
            )
        self._cache = x
        if self._pointwise:
            out = self._w3() @ x.reshape(self.groups, -1, x[0].size)
            return out.reshape(self.out_channels, *x.shape[1:])
        return toeplitz_conv(x, self._w4(), self.stride, self.padding, self.groups)

    def backward(self, dout):
        x = self._cache
        if self._pointwise:
            x3 = x.reshape(self.groups, -1, x[0].size)
            d3 = dout.reshape(self.groups, -1, x[0].size)
            self.g_w += (d3 @ x3.transpose(0, 2, 1)).reshape(self.w.shape)
            if not self.input_grad:
                return None
            return (self._w3().transpose(0, 2, 1) @ d3).reshape(x.shape)
        g_w4, dx = toeplitz_conv_backward(x, self._w4(), dout, self.stride,
                                          self.padding, self.groups, self.input_grad)
        g, k = self.groups, self.kernel
        self.g_w += g_w4.reshape(g, -1, self.out_channels // g, k, k).transpose(
            0, 2, 1, 3, 4).reshape(self.w.shape)
        return dx


class DepthwiseConv2d(Layer):
    """Per-channel k x k convolution, padded like ``Conv2d``."""

    def __init__(self, channels, kernel, stride=1, rng=None):
        super().__init__()
        self.channels = channels
        self.kernel = kernel
        self.stride = stride
        self.padding = (kernel - 1) // 2
        rng = rng or np.random.default_rng(0)
        self.register_param(
            "w", fan_in_uniform(rng, (channels, kernel, kernel), kernel * kernel)
        )

    def forward(self, x, train: bool = False):
        x = check_tensor4(x)
        if x.shape[0] != self.channels:
            raise ShapeMismatch(
                f"depthwise conv expects {self.channels} channels, got {x.shape[0]}"
            )
        self._cache = x
        return toeplitz_conv(x, self.w[:, None], self.stride, self.padding, self.channels)

    def backward(self, dout):
        g_w4, dx = toeplitz_conv_backward(self._cache, self.w[:, None], dout,
                                          self.stride, self.padding, self.channels)
        self.g_w += g_w4[:, 0]
        return dx


class BatchNorm2d(Layer):
    """Batch normalization with running-average tracking.

    Training mode normalizes with batch statistics and updates the
    running averages; inference mode uses the stored averages, which
    keeps the layer a fixed deterministic function.
    """

    MOMENTUM = 0.1
    EPS = 1e-5

    def __init__(self, channels):
        super().__init__()
        self.channels = channels
        self.register_param("gamma", np.ones(channels))
        self.register_param("beta", np.zeros(channels))
        self.register_buffer("running_mean", np.zeros(channels))
        self.register_buffer("running_var", np.ones(channels))

    def forward(self, x, train: bool = False):
        x = check_tensor4(x)
        if x.shape[0] != self.channels:
            raise ShapeMismatch(
                f"batchnorm expects {self.channels} channels, got {x.shape[0]}"
            )
        # One row of B*H*W values per channel.
        x2 = x.reshape(self.channels, -1)
        if train:
            mean = x2.mean(axis=1)
            x_hat = x2 - mean[:, None]
            n = x2.shape[1]
            var = np.vecdot(x_hat, x_hat) / n
            self.running_mean += self.MOMENTUM * (mean - self.running_mean)
            self.running_var += self.MOMENTUM * (var * n / max(1, n - 1) - self.running_var)
        else:
            var = self.running_var
            x_hat = x2 - self.running_mean[:, None]
        inv_std = 1.0 / np.sqrt(var + self.EPS)
        x_hat *= inv_std[:, None]
        self._cache = (x_hat, inv_std, train)
        out = x_hat * self.gamma[:, None]
        out += self.beta[:, None]
        return out.reshape(x.shape)

    def backward(self, dout):
        x_hat, inv_std, train = self._cache
        d2 = dout.reshape(x_hat.shape)
        sum_d, sum_d_xhat = d2.sum(axis=1), np.vecdot(d2, x_hat)
        self.g_gamma += sum_d_xhat
        self.g_beta += sum_d
        scale = self.gamma * inv_std
        dx = d2 * scale[:, None]
        if train:
            # Through the batch statistics as well:
            # dx = scale * (dout - sum_d / n - x_hat * sum_d_xhat / n).
            n = x_hat.shape[1]
            dx -= x_hat * (scale * sum_d_xhat / n)[:, None]
            dx -= (scale * sum_d / n)[:, None]
        return dx.reshape(dout.shape)


class Swish(Layer):
    """x * sigmoid(x), the EfficientNet backbone activation."""

    def forward(self, x, train: bool = False):
        self._sig = sigmoid(x)
        self._y = x * self._sig
        return self._y

    def backward(self, dout):
        # s + x s (1 - s) written as (1 - s) y + s with y = x s, so the
        # input need not be kept.
        s = self._sig
        return dout * ((1.0 - s) * self._y + s)


def sigmoid(x):
    """0.5 * (1 + tanh(x / 2)) in float64: overflow-free at any |x|, built
    in one buffer."""
    out = np.multiply(x, 0.5, dtype=np.float64)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


class Linear(Layer):
    """Affine map x @ w.T + b over the last axis."""

    def __init__(self, in_features, out_features, rng=None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        rng = rng or np.random.default_rng(0)
        self.register_param("w", fan_in_uniform(rng, (out_features, in_features), in_features))
        self.register_param("b", np.zeros(out_features))

    def forward(self, x, train: bool = False):
        x = np.asarray(x)
        if x.shape[-1] != self.in_features:
            raise ShapeMismatch(
                f"linear expects {self.in_features} features, got {x.shape[-1]}"
            )
        self._x = x
        return x @ self.w.T + self.b

    def backward(self, dout):
        x2 = self._x.reshape(-1, self.in_features)
        d2 = dout.reshape(-1, self.out_features)
        self.g_w += d2.T @ x2
        self.g_b += d2.sum(axis=0)
        return dout @ self.w


class Dropout(Layer):
    """Inverted dropout: active only in training, identity in eval mode."""

    def __init__(self, p, rng=None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout rate must lie in [0, 1), got {p}")
        self.p = p
        self.rng = rng or np.random.default_rng(0)

    def forward(self, x, train: bool = False):
        if not train or self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        self._mask = (self.rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, dout):
        if self._mask is None:
            return dout
        return dout * self._mask
