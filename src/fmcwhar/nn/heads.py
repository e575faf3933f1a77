"""Branch heads: sequence reshaping, the linear+max head, and fusion.

A backbone feature map (B, C, H, W) turns into a sequence whose time
axis is the map width. Two feature rules exist:

- ``hxc``: step t holds column t flattened h-major, c-minor, D = H * C
- ``c``: column features are mean-pooled over height first, D = C
"""

from __future__ import annotations

import numpy as np

from .layers import Dropout, Layer, Linear, ShapeMismatch, check_tensor4

FEATURE_RULES = ("hxc", "c")


class SequenceReshape(Layer):
    def __init__(self, rule: str = "hxc"):
        super().__init__()
        if rule not in FEATURE_RULES:
            raise ValueError(f"rule must be one of {FEATURE_RULES}, got {rule!r}")
        self.rule = rule

    def forward(self, x, train: bool = False):
        x = check_tensor4(x)
        b, c, h, w = x.shape
        self._shape = x.shape
        if self.rule == "hxc":
            # (B, W, H*C), h-major c-minor within each step.
            return x.transpose(0, 3, 2, 1).reshape(b, w, h * c)
        return x.mean(axis=2).transpose(0, 2, 1)

    def backward(self, dout):
        b, c, h, w = self._shape
        if self.rule == "hxc":
            return dout.reshape(b, w, h, c).transpose(0, 3, 2, 1)
        return np.broadcast_to(
            dout.transpose(0, 2, 1)[:, :, None, :], self._shape
        ) / h


class RdHead(Layer):
    """Per-step linear map followed by an elementwise max over time.

    Gradient at a tie goes to the lowest time index (argmax convention).
    """

    def __init__(self, input_dim, output_dim=128, rng=None):
        super().__init__()
        self.register_child("linear", Linear(input_dim, output_dim, rng=rng))

    def forward(self, x, train: bool = False):
        y = self.linear.forward(x, train)  # (B, T, K)
        self._t_idx = y.argmax(axis=1)
        self._y_shape = y.shape
        b, _, k = y.shape
        return y[np.arange(b)[:, None], self._t_idx, np.arange(k)[None, :]]

    def backward(self, dout):
        b, t, k = self._y_shape
        dy = np.zeros(self._y_shape)
        dy[np.arange(b)[:, None], self._t_idx, np.arange(k)[None, :]] = dout
        return self.linear.backward(dy)


class FusionClassifier(Layer):
    """Concatenate [rt || dt || rd], dropout, then the class projection."""

    def __init__(self, branch_dim, num_classes, dropout_p=0.2, rng=None):
        super().__init__()
        self.branch_dim = branch_dim
        self.register_child("dropout", Dropout(dropout_p, rng=rng))
        self.register_child("linear", Linear(3 * branch_dim, num_classes, rng=rng))

    def forward(self, f_rt, f_dt, f_rd, train: bool = False):
        for name, f in (("rt", f_rt), ("dt", f_dt), ("rd", f_rd)):
            if f.ndim != 2 or f.shape[1] != self.branch_dim:
                raise ShapeMismatch(
                    f"{name} branch feature must be (B, {self.branch_dim}), "
                    f"got {f.shape}"
                )
        fused = np.concatenate([f_rt, f_dt, f_rd], axis=1)
        dropped = self.dropout.forward(fused, train)
        return self.linear.forward(dropped, train)

    def backward(self, dout):
        dfused = self.dropout.backward(self.linear.backward(dout))
        d = self.branch_dim
        return dfused[:, :d], dfused[:, d: 2 * d], dfused[:, 2 * d:]
