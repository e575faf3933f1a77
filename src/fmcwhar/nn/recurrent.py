"""Single-layer LSTM over batch-first sequences, with exact BPTT.

The cell follows the standard gate equations (input, forget, candidate,
output), starts from a zero state and returns only the final hidden
state. Weights are a stacked (4H, D) input map, a stacked (4H, H)
recurrent map and one stacked bias; the forget-gate bias initializes to
1 so early training keeps memory open.
"""

from __future__ import annotations

import numpy as np

from .layers import Layer, ShapeMismatch, fan_in_uniform, sigmoid


class Lstm(Layer):
    def __init__(self, input_dim, hidden_dim, rng=None):
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        rng = rng or np.random.default_rng(0)
        fan_in = input_dim + hidden_dim
        self.register_param("w_x", fan_in_uniform(rng, (4 * hidden_dim, input_dim), fan_in))
        self.register_param("w_h", fan_in_uniform(rng, (4 * hidden_dim, hidden_dim), fan_in))
        bias = np.zeros(4 * hidden_dim)
        bias[hidden_dim: 2 * hidden_dim] = 1.0  # forget gate
        self.register_param("b", bias)

    def forward(self, x, train: bool = False):
        x = np.asarray(x)
        if x.ndim != 3 or x.shape[2] != self.input_dim:
            raise ShapeMismatch(
                f"expected (B, T, {self.input_dim}) sequence, got shape {x.shape}"
            )
        batch, steps, _ = x.shape
        hd = self.hidden_dim
        h = np.zeros((batch, hd))
        c = np.zeros((batch, hd))
        cache = []
        for t in range(steps):
            zeta = x[:, t] @ self.w_x.T + h @ self.w_h.T + self.b
            i = sigmoid(zeta[:, 0 * hd: 1 * hd])
            f = sigmoid(zeta[:, 1 * hd: 2 * hd])
            g = np.tanh(zeta[:, 2 * hd: 3 * hd])
            o = sigmoid(zeta[:, 3 * hd: 4 * hd])
            c_next = f * c + i * g
            tanh_c = np.tanh(c_next)
            h_next = o * tanh_c
            cache.append((x[:, t], h, c, i, f, g, o, tanh_c))
            h, c = h_next, c_next
        self._stash((x.shape, cache))
        return h

    def backward(self, dout):
        x_shape, cache = self._take()
        batch, steps, _ = x_shape
        hd = self.hidden_dim
        dx = np.zeros(x_shape)
        dh = dout.copy()
        dc = np.zeros((batch, hd))
        for t in reversed(range(steps)):
            x_t, h_prev, c_prev, i, f, g, o, tanh_c = cache[t]
            do = dh * tanh_c
            dc = dc + dh * o * (1.0 - tanh_c ** 2)
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            dzeta = np.concatenate(
                [
                    di * i * (1.0 - i),
                    df * f * (1.0 - f),
                    dg * (1.0 - g ** 2),
                    do * o * (1.0 - o),
                ],
                axis=1,
            )
            self.g_w_x += dzeta.T @ x_t
            self.g_w_h += dzeta.T @ h_prev
            self.g_b += dzeta.sum(axis=0)
            dx[:, t] = dzeta @ self.w_x
            dh = dzeta @ self.w_h
            dc = dc * f
        return dx
