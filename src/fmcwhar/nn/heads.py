"""Branch heads: sequence reshaping, the linear+max head, and fusion.

A channel-major backbone feature map (C, B, H, W) turns into a
batch-major sequence (B, T, D) whose time axis T is the map width; the
LSTM, the RD head and the fusion work batch-major. Step t holds column t
flattened h-major, c-minor, so D = H * C.
"""

from __future__ import annotations

import numpy as np

from ..domain_maps import Domain
from .layers import Dropout, Layer, Linear, ShapeMismatch, check_tensor4

FUSION_DROPOUT = 0.2


class SequenceReshape(Layer):
    def forward(self, x, train: bool = False):
        x = check_tensor4(x)
        c, b, h, w = x.shape
        self._stash(x.shape)
        return x.transpose(1, 3, 2, 0).reshape(b, w, h * c)

    def backward(self, dout):
        c, b, h, w = self._take()
        return np.ascontiguousarray(dout.reshape(b, w, h, c).transpose(3, 0, 2, 1))


class RdHead(Layer):
    """Per-step linear map followed by an elementwise max over time.

    Gradient at a tie goes to the lowest time index (argmax convention).
    """

    def __init__(self, input_dim, output_dim, rng=None):
        super().__init__()
        self.register_child("linear", Linear(input_dim, output_dim, rng=rng))

    def forward(self, x, train: bool = False):
        y = self.linear.forward(x, train)  # (B, T, K)
        t_idx = y.argmax(axis=1)
        self._stash((t_idx, y.shape))
        b, _, k = y.shape
        return y[np.arange(b)[:, None], t_idx, np.arange(k)[None, :]]

    def backward(self, dout):
        t_idx, y_shape = self._take()
        b, t, k = y_shape
        dy = np.zeros(y_shape)
        dy[np.arange(b)[:, None], t_idx, np.arange(k)[None, :]] = dout
        return self.linear.backward(dy)


class FusionClassifier(Layer):
    """Concatenate [rt || dt || rd], dropout, then the class projection."""

    def __init__(self, branch_dim, num_classes, rng=None):
        super().__init__()
        self.branch_dim = branch_dim
        self.register_child("dropout", Dropout(FUSION_DROPOUT, rng=rng))
        self.register_child("linear", Linear(3 * branch_dim, num_classes, rng=rng))

    def forward(self, f_rt, f_dt, f_rd, train: bool = False):
        for domain, f in zip(Domain, (f_rt, f_dt, f_rd)):
            if f.ndim != 2 or f.shape[1] != self.branch_dim:
                raise ShapeMismatch(
                    f"{domain.value} branch feature must be (B, {self.branch_dim}), "
                    f"got {f.shape}"
                )
        fused = np.concatenate([f_rt, f_dt, f_rd], axis=1)
        dropped = self.dropout.forward(fused, train)
        return self.linear.forward(dropped, train)

    def backward(self, dout):
        dfused = self.dropout.backward(self.linear.backward(dout))
        d = self.branch_dim
        return dfused[:, :d], dfused[:, d: 2 * d], dfused[:, 2 * d:]
