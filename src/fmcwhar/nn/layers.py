"""Core layers: convolutions, batch norm (with the Swish fused in), Swish,
linear, dropout, and the row-tap kernel that runs every windowed conv.

Layers compute in float64, so finite-difference gradient checks are
meaningful: the model casts its input maps to float64 and ``sigmoid``
returns float64. Feature maps are channel-major: every conv, batch norm
and activation takes and returns C-contiguous (C, B, H, W) arrays, so a
channel is one row of B*H*W values and a block of channels is a block
of rows.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided


class ShapeMismatch(ValueError):
    pass


class NoForwardCache(RuntimeError):
    """A backward found no forward state: none ran since the last backward,
    or it ran with ``store_cache`` off."""


def check_tensor4(x, channels=None) -> np.ndarray:
    """``x`` as a (C, B, H, W) array, with C equal to ``channels`` when given."""
    x = np.asarray(x)
    if x.ndim != 4 or (channels is not None and x.shape[0] != channels):
        raise ShapeMismatch(
            f"expected a channel-major ({channels or 'C'}, B, H, W) tensor, "
            f"got shape {x.shape}")
    return x


def fan_in_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) initialization."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Layer:
    """Base class: parameter registry, child namespacing and the cache
    contract.

    ``forward(x, train=False)`` returns the output and stashes what the
    backward needs; ``backward(dout)`` consumes that cache, returns the
    gradient with respect to the input and accumulates parameter
    gradients into ``self.g_*`` arrays. A second backward without a new
    forward raises ``NoForwardCache``, and a layer whose ``store_cache``
    is off keeps no cache at all (``MultiDomainModel.predict`` runs that
    way). Forward and backward are single-threaded. Parameters, buffers
    and gradients are exposed through ``params()``, ``buffers()`` and
    ``grads()`` as flat name->array dicts, child layers namespaced by
    dots.
    """

    def __init__(self):
        self._param_names: list[str] = []
        self._buffer_names: list[str] = []
        self._children: list[tuple[str, "Layer"]] = []
        self.store_cache = True

    def _stash(self, state) -> None:
        """Keep ``state`` for the next backward, unless ``store_cache`` is
        off; either way the state of an earlier forward goes."""
        if self.store_cache:
            self._cache = state
        else:
            self.__dict__.pop("_cache", None)

    def _take(self):
        """The state the last forward stashed, removed: a backward consumes
        it, so it is freed as soon as that backward returns."""
        try:
            return self.__dict__.pop("_cache")
        except KeyError:
            raise NoForwardCache(
                f"{type(self).__name__}.backward has no forward cache to consume") from None

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


def band_diagonals(a, k, s, o):
    """View (..., k, O, Wo) of the last two axes of ``a``, Wp band rows by
    O*Wo columns: [..., j, o, x] is a[..., s*x + j, o*Wo + x], the place of
    tap j of output o at output column x. Writing through it fills a band."""
    w_out = a.shape[-1] // o
    rs, cs = a.strides[-2:]
    return as_strided(a, (*a.shape[:-2], k, o, w_out),
                      (*a.strides[:-2], rs, w_out * cs, s * rs + cs))


def padded_rows(g, c, b, h, w, k, s):
    """Zeroed input buffer (G, B, Hp', C, Wp) of a k x k conv at stride s
    over G groups of C channels, and its interior as a (G, C, B, H, W) view
    for the caller to fill. Maps are padded by (k - 1) // 2 on every side;
    Hp' is the padded height rounded up to a multiple of s. Flat row (b, r)
    of the (G, B*Hp', C*Wp) view holds padded row r of a group's channels
    side by side."""
    p = (k - 1) // 2
    hq = -(-(h + 2 * p) // s) * s
    rows = np.zeros((g, b, hq, c, w + 2 * p))
    return rows, rows[:, :, p: p + h, :, p: p + w].transpose(0, 3, 1, 2, 4)


def _input_rows(x, groups, k, s):
    """The (C, B, H, W) ``x`` in a ``padded_rows`` buffer of ``groups`` groups."""
    c, b, h, w = x.shape
    rows, inner = padded_rows(groups, c // groups, b, h, w, k, s)
    inner[...] = x.reshape(inner.shape)
    return rows


def _conv_geometry(rows, w5, s, h):
    """The flat rows, the per-tap band blocks (G, k, C/G*Wp, O*Wo), and
    (n, Hp'/s, Ho, Wo): every tap multiplies n rows.

    The band is built tap-major: block i holds kernel row i of each of a
    group's C/G channels in turn, Wp band rows per channel, as the flat
    rows hold the channels side by side."""
    g, b, hq, cg, wp = rows.shape
    o, k = w5.shape[1], w5.shape[-1]
    h_out = (h + 2 * ((k - 1) // 2) - k) // s + 1
    w_out = (wp - k) // s + 1
    band = np.zeros((g, k, cg, wp, o * w_out))
    band_diagonals(band, k, s, o)[...] = w5.transpose(0, 3, 2, 4, 1)[..., None]
    n = (b * hq - k) // s + 1
    return (rows.reshape(g, b * hq, cg * wp), band.reshape(g, k, cg * wp, -1),
            (n, hq // s, h_out, w_out))


def toeplitz_conv(rows, w5, s, h):
    """k x k conv at stride s of H-row maps in the ``padded_rows`` buffer
    ``rows`` by the (G, O, C/G, k, k) weight ``w5``: C-contiguous
    (G*O, B, Ho, Wo).

    Group g's C/G channels sum into its own O outputs: a dense conv is one
    group, a depthwise one (O = C/G = 1) is C groups. Tap i multiplies the
    flat rows i, i + s, ... by kernel row i's band block, so the matmul sums
    a group's channels. Output rows that straddle two samples are dropped.
    """
    flat, taps, (n, hs, h_out, w_out) = _conv_geometry(rows, w5, s, h)
    g, b, o, k = rows.shape[0], rows.shape[1], w5.shape[1], w5.shape[-1]
    pre = np.empty((g, b * hs, o * w_out))
    np.matmul(flat[:, 0::s][:, :n], taps[:, 0], out=pre[:, :n])
    part = np.empty((g, n, o * w_out))
    for i in range(1, k):
        pre[:, :n] += np.matmul(flat[:, i::s][:, :n], taps[:, i], out=part)
    out = pre.reshape(g, b, hs, o, w_out)[:, :, :h_out].transpose(0, 3, 1, 2, 4)
    return np.ascontiguousarray(out).reshape(g * o, b, h_out, w_out)


def toeplitz_conv_backward(rows, w5, dout, s, h, input_grad=True):
    """(g_w5, dx) of ``toeplitz_conv``: g_w5 in the (G, O, C/G, k, k) shape
    of ``w5``, dx a (G, C/G, B, H, W) view.

    g_w5 sums the band diagonals of one matmul of a k-tap window view of
    the rows by dout, read in the band's tap-major order; dx is k row
    products of dout and the band blocks, added into a buffer padded in
    rows (padding columns take no gradient). Without ``input_grad``, dx is
    None and its products do not run."""
    flat, taps, (n, hs, h_out, w_out) = _conv_geometry(rows, w5, s, h)
    g, b, hq, cg, wp = rows.shape
    o, k, p = w5.shape[1], w5.shape[-1], (w5.shape[-1] - 1) // 2
    # dout in the flat output rows; the straddling rows stay 0.
    dpre = np.zeros((g, b * hs, o * w_out))
    dpre.reshape(g, b, hs, o, w_out)[:, :, :h_out] = dout.reshape(
        g, o, b, h_out, w_out).transpose(0, 2, 3, 1, 4)
    windows = as_strided(flat, (g, k, cg * wp, n), (*flat.strides, s * flat.strides[1]))
    g_taps = (windows @ dpre[:, None, :n]).reshape(g, k, cg, wp, -1)
    g_w5 = band_diagonals(g_taps, k, s, o).sum(axis=-1).transpose(0, 4, 2, 1, 3)
    if not input_grad:
        return g_w5, None
    taps_t = taps.reshape(g, k, cg, wp, -1)[:, :, :, p: wp - p].transpose(0, 1, 4, 2, 3)
    taps_t = np.ascontiguousarray(taps_t).reshape(g, k, o * w_out, -1)
    drows = np.zeros((g, b * hq, taps_t.shape[-1]))
    part = np.empty((g, n, taps_t.shape[-1]))
    for i in range(k):
        drows[:, i::s][:, :n] += np.matmul(dpre[:, :n], taps_t[:, i], out=part)
    return g_w5, drows.reshape(g, b, hq, cg, -1)[:, :, p: p + h].transpose(0, 3, 1, 2, 4)


class Conv2d(Layer):
    """k x k convolution without bias, zero-padded by (k - 1) // 2 on every side.

    With ``groups`` G, the input and output channels split into G equal
    groups and output group g reads input group g only; the weight is
    (out_channels, in_channels / G, k, k), group g's filters in rows
    g * out_channels / G onward. With ``input_grad`` cleared, backward
    accumulates the weight gradients only and returns None.

    A 1x1 stride-1 conv is one (G, O/G, C/G) @ (G, C/G, B*H*W) matmul;
    every other one runs ``toeplitz_conv``. Forward keeps only its input,
    and backward refills the padded buffer from it.
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

    def _w5(self):
        """The weight as ``toeplitz_conv``'s (G, O / G, C / G, k, k): a view."""
        g, k = self.groups, self.kernel
        return self.w.reshape(g, self.out_channels // g, -1, k, k)

    def forward(self, x, train: bool = False):
        x = check_tensor4(x, self.in_channels)
        self._stash(x)
        if self._pointwise:
            out = self._w5()[..., 0, 0] @ x.reshape(self.groups, -1, x[0].size)
            return out.reshape(self.out_channels, *x.shape[1:])
        rows = _input_rows(x, self.groups, self.kernel, self.stride)
        return toeplitz_conv(rows, self._w5(), self.stride, x.shape[2])

    def backward(self, dout):
        x = self._take()
        if self._pointwise:
            x3 = x.reshape(self.groups, -1, x[0].size)
            d3 = dout.reshape(self.groups, -1, x[0].size)
            self.g_w += (d3 @ x3.transpose(0, 2, 1)).reshape(self.w.shape)
            if not self.input_grad:
                return None
            return (self._w5()[..., 0, 0].transpose(0, 2, 1) @ d3).reshape(x.shape)
        rows = _input_rows(x, self.groups, self.kernel, self.stride)
        g_w5, dx = toeplitz_conv_backward(rows, self._w5(), dout, self.stride, x.shape[2],
                                          self.input_grad)
        self.g_w += g_w5.reshape(self.w.shape)
        return None if dx is None else np.ascontiguousarray(dx).reshape(x.shape)


class DepthwiseConv2d(Layer):
    """Per-channel k x k convolution, padded like ``Conv2d``: ``toeplitz_conv``
    with C groups of one channel, its (C, k, k) weight given unit axes."""

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
        x = check_tensor4(x, self.channels)
        self._stash(x)
        rows = _input_rows(x, self.channels, self.kernel, self.stride)
        return toeplitz_conv(rows, self.w[:, None, None], self.stride, x.shape[2])

    def backward(self, dout):
        x = self._take()
        rows = _input_rows(x, self.channels, self.kernel, self.stride)
        g_w5, dx = toeplitz_conv_backward(rows, self.w[:, None, None], dout, self.stride,
                                          x.shape[2])
        self.g_w += g_w5[:, 0, 0]
        return np.ascontiguousarray(dx).reshape(x.shape)


class BatchNorm2d(Layer):
    """Batch normalization with running-average tracking, and with
    ``swish`` the Swish that follows it.

    Training mode normalizes with batch statistics and updates the
    running averages; inference mode uses the stored averages, which
    keeps the layer a fixed deterministic function. Each channel is one
    row of B*H*W values: the statistics and the backward's two channel
    sums are row reductions, and dx is one fused expression.

    With ``swish`` the layer returns y = z * sigmoid(z) for the batch
    norm output z, formed in z's buffer. It keeps x_hat and y, not the
    sigmoid: backward forms z again with the forward's operations, so
    its sigmoid has the forward's bits, and runs both gradients in one
    buffer.
    """

    MOMENTUM = 0.1
    EPS = 1e-5

    def __init__(self, channels, swish=False):
        super().__init__()
        self.channels = channels
        self.swish = swish
        self.register_param("gamma", np.ones(channels))
        self.register_param("beta", np.zeros(channels))
        self.register_buffer("running_mean", np.zeros(channels))
        self.register_buffer("running_var", np.ones(channels))

    def _affine(self, x_hat):
        """gamma * x_hat + beta, per channel row, in a new buffer."""
        out = x_hat * self.gamma[:, None]
        out += self.beta[:, None]
        return out

    def forward(self, x, train: bool = False):
        x = check_tensor4(x, self.channels)
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
        out = self._affine(x_hat)
        if self.swish:
            out *= sigmoid(out)
        self._stash((x_hat, inv_std, train, out if self.swish else None))
        return out.reshape(x.shape)

    def backward(self, dout):
        x_hat, inv_std, train, y = self._take()
        d2 = dout.reshape(x_hat.shape)
        if self.swish:
            z = self._affine(x_hat)
            d2 = swish_grad(d2, sigmoid(z, out=z), y)
            del z, y
        sum_d, sum_d_xhat = d2.sum(axis=1), np.vecdot(d2, x_hat)
        self.g_gamma += sum_d_xhat
        self.g_beta += sum_d
        scale = self.gamma * inv_std
        # d2 is this layer's own buffer after the Swish gradient.
        dx = np.multiply(d2, scale[:, None], out=d2 if self.swish else None)
        if train:
            # Through the batch statistics as well:
            # dx = scale * (dout - sum_d / n - x_hat * sum_d_xhat / n).
            # The cache is consumed, so x_hat takes its product in place.
            n = x_hat.shape[1]
            x_hat *= (scale * sum_d_xhat / n)[:, None]
            dx -= x_hat
            dx -= (scale * sum_d / n)[:, None]
        return dx.reshape(dout.shape)


def swish_grad(dout, s, y):
    """dout * ((1 - s) y + s), the gradient of y = x * s with s = sigmoid(x),
    in one new buffer. Written from the output, so the input need not be
    kept."""
    grad = np.subtract(1.0, s)
    grad *= y
    grad += s
    grad *= dout
    return grad


class Swish(Layer):
    """x * sigmoid(x), standalone: the network runs it inside
    ``BatchNorm2d(swish=True)``, and this layer is that fusion's
    reference. It keeps its output and its sigmoid for backward, not its
    input."""

    def forward(self, x, train: bool = False):
        s = sigmoid(x)
        y = x * s
        self._stash((s, y))
        return y

    def backward(self, dout):
        s, y = self._take()
        return swish_grad(dout, s, y)


def sigmoid(x, out=None):
    """0.5 * (1 + tanh(x / 2)) in float64: overflow-free at any |x|, built
    in one buffer, ``out`` (which may be ``x``) when given."""
    out = np.multiply(x, 0.5, out=out, dtype=np.float64)
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
        self._stash(x)
        return x @ self.w.T + self.b

    def backward(self, dout):
        x2 = self._take().reshape(-1, self.in_features)
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
            self._stash(None)
            return x
        keep = 1.0 - self.p
        mask = (self.rng.random(x.shape) < keep) / keep
        self._stash(mask)
        return x * mask

    def backward(self, dout):
        mask = self._take()
        if mask is None:
            return dout
        return dout * mask
