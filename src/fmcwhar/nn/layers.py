"""Core layers: convolutions, batch norm, activations, linear, dropout.

Every layer follows the same contract: ``forward(x, train=False)``
returns the output and stashes whatever the backward pass needs;
``backward(dout)`` returns the gradient with respect to the input and
accumulates parameter gradients into ``self.g_*`` arrays. Parameters
and their gradients are exposed through ``params()`` / ``grads()`` as
flat name->array dicts, with child layers namespaced by dots.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ShapeMismatch(ValueError):
    pass


def check_tensor4(x) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 4:
        raise ShapeMismatch(f"expected a (B, C, H, W) tensor, got shape {x.shape}")
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
        setattr(self, "g_" + name, np.zeros_like(value))
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

    def assign(self, dotted_name: str, value: np.ndarray) -> None:
        """Copy ``value`` into the parameter or buffer at ``dotted_name``."""
        *path, name = dotted_name.split(".")
        layer = self
        for part in path:
            layer = getattr(layer, part, None)
        if not isinstance(layer, Layer) or name not in layer._param_names + layer._buffer_names:
            raise KeyError(f"no parameter or buffer named {dotted_name!r}")
        current = getattr(layer, name)
        if current.shape != value.shape:
            raise ShapeMismatch(
                f"{dotted_name}: shape {value.shape} != model shape {current.shape}"
            )
        current[...] = value

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


class Conv2d(Layer):
    """k x k convolution, zero-padded by (k - 1) // 2 on every side."""

    def __init__(self, in_channels, out_channels, kernel, stride=1, bias=False, rng=None):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = (kernel - 1) // 2
        # 1x1, stride 1: one channel matmul per sample, no windows.
        self._pointwise = kernel == 1 and stride == 1
        rng = rng or np.random.default_rng(0)
        fan_in = in_channels * kernel * kernel
        self.register_param(
            "w", fan_in_uniform(rng, (out_channels, in_channels, kernel, kernel), fan_in)
        )
        self.has_bias = bias
        if bias:
            self.register_param("b", np.zeros(out_channels))

    def forward(self, x, train: bool = False):
        x = check_tensor4(x)
        if x.shape[1] != self.in_channels:
            raise ShapeMismatch(
                f"conv expects {self.in_channels} input channels, got {x.shape[1]}"
            )
        p, s, k = self.padding, self.stride, self.kernel
        if self._pointwise:
            b, c, h, w = x.shape
            x3 = x.reshape(b, c, h * w)
            out = np.matmul(self.w[:, :, 0, 0], x3).reshape(b, self.out_channels, h, w)
            self._cache = x3
        else:
            xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
            windows = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::s, ::s]
            out = np.einsum("bchwij,ocij->bohw", windows, self.w, optimize=True)
            self._cache = (xp.shape, windows)
        if self.has_bias:
            out += self.b[:, None, None]
        return out

    def backward(self, dout):
        p, s, k = self.padding, self.stride, self.kernel
        if self.has_bias:
            self.g_b += dout.sum(axis=(0, 2, 3))
        if self._pointwise:
            x3 = self._cache
            b, o, h, w = dout.shape
            d3 = dout.reshape(b, o, h * w)
            self.g_w[:, :, 0, 0] += np.matmul(d3, x3.transpose(0, 2, 1)).sum(axis=0)
            return np.matmul(self.w[:, :, 0, 0].T, d3).reshape(b, self.in_channels, h, w)
        xp_shape, windows = self._cache
        self.g_w += np.einsum("bohw,bchwij->ocij", dout, windows, optimize=True)
        if s == 1:
            # Transposed conv: dx correlates dout, padded by k-1-p, with
            # the flipped kernel. Plain einsum reads the window view in
            # place; optimize=True would copy it into a contiguous array.
            q = k - 1 - p
            dpad = np.pad(dout, ((0, 0), (0, 0), (q, q), (q, q)))
            dwin = sliding_window_view(dpad, (k, k), axis=(2, 3))
            return np.einsum("bohwij,ocij->bchw", dwin, self.w[:, :, ::-1, ::-1])
        # Strided convs scatter each tap's contribution; measured faster
        # than the transposed form at stride 2.
        dxp = np.zeros(xp_shape)
        h_out, w_out = dout.shape[2], dout.shape[3]
        for i in range(k):
            for j in range(k):
                patch = np.einsum("bohw,oc->bchw", dout, self.w[:, :, i, j], optimize=True)
                dxp[:, :, i: i + s * h_out: s, j: j + s * w_out: s] += patch
        if p:
            return dxp[:, :, p:-p, p:-p]
        return dxp


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
        if x.shape[1] != self.channels:
            raise ShapeMismatch(
                f"depthwise conv expects {self.channels} channels, got {x.shape[1]}"
            )
        p, s, k = self.padding, self.stride, self.kernel
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        windows = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::s, ::s]
        out = np.einsum("bchwij,cij->bchw", windows, self.w, optimize=True)
        self._cache = (xp.shape, windows)
        return out

    def backward(self, dout):
        xp_shape, windows = self._cache
        p, s, k = self.padding, self.stride, self.kernel
        self.g_w += np.einsum("bchw,bchwij->cij", dout, windows, optimize=True)
        dxp = np.zeros(xp_shape)
        h_out, w_out = dout.shape[2], dout.shape[3]
        for i in range(k):
            for j in range(k):
                dxp[:, :, i: i + s * h_out: s, j: j + s * w_out: s] += (
                    dout * self.w[:, i, j][None, :, None, None]
                )
        if p:
            return dxp[:, :, p:-p, p:-p]
        return dxp


class BatchNorm2d(Layer):
    """Batch normalization with running-average tracking (momentum 0.1).

    Training mode normalizes with batch statistics and updates the
    running averages; inference mode uses the stored averages, which
    keeps the layer a fixed deterministic function.
    """

    def __init__(self, channels, momentum=0.1, eps=1e-5):
        super().__init__()
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self.register_param("gamma", np.ones(channels))
        self.register_param("beta", np.zeros(channels))
        self.register_buffer("running_mean", np.zeros(channels))
        self.register_buffer("running_var", np.ones(channels))

    def forward(self, x, train: bool = False):
        x = check_tensor4(x)
        if x.shape[1] != self.channels:
            raise ShapeMismatch(
                f"batchnorm expects {self.channels} channels, got {x.shape[1]}"
            )
        if train:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            n = x.shape[0] * x.shape[2] * x.shape[3]
            unbiased = var * n / max(1, n - 1)
            self.running_mean += self.momentum * (mean - self.running_mean)
            self.running_var += self.momentum * (unbiased - self.running_var)
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        self._cache = (x_hat, inv_std, train)
        return self.gamma[None, :, None, None] * x_hat + self.beta[None, :, None, None]

    def backward(self, dout):
        x_hat, inv_std, train = self._cache
        self.g_gamma += np.sum(dout * x_hat, axis=(0, 2, 3))
        self.g_beta += np.sum(dout, axis=(0, 2, 3))
        dxhat = dout * self.gamma[None, :, None, None]
        scale = inv_std[None, :, None, None]
        if not train:
            return dxhat * scale
        # Train mode routes gradient through the batch mean and variance.
        n = dout.shape[0] * dout.shape[2] * dout.shape[3]
        sum_dxhat = dxhat.sum(axis=(0, 2, 3), keepdims=True)
        sum_dxhat_xhat = (dxhat * x_hat).sum(axis=(0, 2, 3), keepdims=True)
        return scale * (dxhat - sum_dxhat / n - x_hat * sum_dxhat_xhat / n)


class ReLU(Layer):
    def forward(self, x, train: bool = False):
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, dout):
        return np.where(self._mask, dout, 0.0)


class Swish(Layer):
    """x * sigmoid(x), the EfficientNet backbone activation."""

    def forward(self, x, train: bool = False):
        self._x = x
        self._sig = sigmoid(x)
        return x * self._sig

    def backward(self, dout):
        s = self._sig
        return dout * (s + self._x * s * (1.0 - s))


def sigmoid(x):
    """0.5 * (1 + tanh(x / 2)): overflow-free at any |x|, built in one buffer.

    The buffer takes the memory layout of ``x``, so products with ``x``
    keep that layout too.
    """
    out = np.multiply(x, 0.5, out=np.empty_like(x, dtype=np.float64))
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


# Pooling helpers used by the attention modules; plain functions with
# explicit caches since they carry no parameters.

def global_avg_pool(x):
    return x.mean(axis=(2, 3))


def global_avg_pool_backward(dout, x_shape):
    b, c, h, w = x_shape
    return np.broadcast_to(dout[:, :, None, None], x_shape) / (h * w)


def global_max_pool(x):
    b, c, h, w = x.shape
    flat = x.reshape(b, c, h * w)
    idx = flat.argmax(axis=2)
    return flat[np.arange(b)[:, None], np.arange(c)[None, :], idx], idx


def global_max_pool_backward(dout, idx, x_shape):
    b, c, h, w = x_shape
    dflat = np.zeros((b, c, h * w))
    dflat[np.arange(b)[:, None], np.arange(c)[None, :], idx] = dout
    return dflat.reshape(x_shape)


def channel_avg_pool(x):
    return x.mean(axis=1, keepdims=True)


def channel_avg_pool_backward(dout, x_shape):
    return np.broadcast_to(dout, x_shape) / x_shape[1]


def channel_max_pool(x):
    idx = x.argmax(axis=1)
    return np.take_along_axis(x, idx[:, None], axis=1), idx


def channel_max_pool_backward(dout, idx, x_shape):
    dx = np.zeros(x_shape)
    np.put_along_axis(dx, idx[:, None], dout, axis=1)
    return dx
