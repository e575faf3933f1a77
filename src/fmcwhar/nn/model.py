"""The full three-branch fusion network.

Three structurally identical backbones process the Range-Time,
Doppler-Time and Range-Doppler maps. The RT and DT branches feed an
LSTM and keep its last hidden state; the RD branch uses a per-step
linear map to the same width with a max over time. The three features,
each ``lstm_hidden`` wide (128 at full scale), concatenate, pass a
dropout gate and project to class logits.
"""

from __future__ import annotations

import numpy as np

from ..synth import seeded_rng
from .blocks import Backbone
from .config import ModelConfig
from .heads import FusionClassifier, RdHead, SequenceReshape
from .layers import Layer, Sequential, ShapeMismatch
from .recurrent import Lstm


class MultiDomainModel(Layer):
    def __init__(self, cfg: ModelConfig, seed: int = 0):
        super().__init__()
        self.cfg = cfg
        self.seed = seed
        rng = seeded_rng(seed)
        for name in ("rt", "dt"):
            self.register_child(name, Sequential(
                backbone=Backbone(cfg, rng=rng),
                reshape=SequenceReshape(cfg.lstm_feature_dim_rule),
                lstm=Lstm(cfg.lstm_feature_dim(), cfg.lstm_hidden, rng=rng),
            ))
        self.register_child("rd", Sequential(
            backbone=Backbone(cfg, rng=rng),
            reshape=SequenceReshape("hxc"),
            head=RdHead(cfg.rd_feature_dim(), cfg.lstm_hidden, rng=rng),
        ))
        self.register_child(
            "fusion", FusionClassifier(cfg.lstm_hidden, cfg.num_classes, rng=rng))

    def _check_input(self, x, name):
        x = np.asarray(x, dtype=np.float64)
        expect = (self.cfg.in_channels, self.cfg.input_hw, self.cfg.input_hw)
        if x.ndim != 4 or x.shape[1:] != expect:
            raise ShapeMismatch(
                f"{name} input must be (B, {expect[0]}, {expect[1]}, {expect[2]}), "
                f"got {x.shape}"
            )
        return x

    def forward(self, x_rt, x_dt, x_rd, train: bool = False):
        f_rt = self.rt.forward(self._check_input(x_rt, "rt"), train)
        f_dt = self.dt.forward(self._check_input(x_dt, "dt"), train)
        f_rd = self.rd.forward(self._check_input(x_rd, "rd"), train)
        return self.fusion.forward(f_rt, f_dt, f_rd, train)

    def backward(self, dlogits):
        d_rt, d_dt, d_rd = self.fusion.backward(dlogits)
        return (
            self.rt.backward(d_rt),
            self.dt.backward(d_dt),
            self.rd.backward(d_rd),
        )

    def n_params(self) -> int:
        return sum(p.size for p in self.params().values())
