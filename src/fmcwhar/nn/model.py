"""The full three-branch fusion network.

Three structurally identical backbones process the Range-Time,
Doppler-Time and Range-Doppler maps. The RT and DT branches feed an
LSTM and keep its last hidden state; the RD branch uses a per-step
linear map to the same width with a max over time. The three features,
each ``lstm_hidden`` wide (128 at full scale), concatenate, pass a
dropout gate and project to class logits.

The three backbones run as one pass of a grouped backbone, one channel
group per branch (ResNeXt's grouped-convolution identity, Xie et al.,
2017), so each layer makes one set of numpy calls per step instead of
three. The model takes batch-major (B, C, H, W) maps; the grouped pass
concatenates the three transposed inputs along axis 0, so each branch
is a contiguous block of rows and reduces in the same order as it does
alone.

Storage rule: every parameter, gradient and buffer is a view into one
flat vector of its kind: ``param_vector``, ``grad_vector`` or
``buffer_vector``. A grouped backbone array is one block of its vector,
and its rows are the branch backbones' arrays, which carry the names
and the seeded init order. So a write through any name or vector
reaches the grouped pass, and Adam steps the vectors as a whole.
"""

from __future__ import annotations

import numpy as np

from ..domain_maps import Domain
from ..synth import seeded_rng
from .blocks import Backbone
from .config import ModelConfig
from .heads import FusionClassifier, RdHead, SequenceReshape
from .layers import Layer, Sequential, ShapeMismatch
from .recurrent import Lstm

BRANCHES = tuple(d.value for d in Domain)
# The branches that feed an LSTM; the RD branch has the linear+max head.
LSTM_BRANCHES = (Domain.RANGE_TIME.value, Domain.DOPPLER_TIME.value)


class _Unset:
    """Stands in for the generator of weights that are overwritten at once."""

    @staticmethod
    def uniform(low, high, size):
        return np.empty(size)


def _flat_vector(owners, registry, prefix=""):
    """A flat vector, with a view of it in place of every array that
    ``registry`` names (after ``prefix``) on the owners. An owner is
    (layer, parts): the layer's array is the axis-0 concatenation of its
    parts' arrays, and each part gets its block of rows. Gradients are not
    copied: they are zeros on both sides, and the pages of the fresh
    np.zeros stay untouched until a backward writes them."""
    slots = [(layer, parts, prefix + name)
             for layer, parts in owners for name in getattr(layer, registry)]
    sizes = [getattr(layer, name).size for layer, _, name in slots]
    flat = np.zeros(sum(sizes))
    for (layer, parts, name), block in zip(slots, np.split(flat, np.cumsum(sizes)[:-1])):
        view = block.reshape(getattr(layer, name).shape)
        if not prefix:
            np.concatenate([getattr(part, name) for part in parts], out=view)
        setattr(layer, name, view)
        for part, rows in zip(parts, np.split(view, len(parts))):
            setattr(part, name, rows)
    return flat


class MultiDomainModel(Layer):
    def __init__(self, cfg: ModelConfig, seed: int = 0):
        super().__init__()
        self.cfg = cfg
        self.seed = seed
        rng = seeded_rng(seed)
        for name in LSTM_BRANCHES:
            self.register_child(name, Sequential(
                backbone=Backbone(cfg, rng=rng),
                reshape=SequenceReshape(),
                lstm=Lstm(cfg.sequence_dim, cfg.lstm_hidden, rng=rng),
            ))
        self.register_child(Domain.RANGE_DOPPLER.value, Sequential(
            backbone=Backbone(cfg, rng=rng),
            reshape=SequenceReshape(),
            head=RdHead(cfg.sequence_dim, cfg.lstm_hidden, rng=rng),
        ))
        self.register_child(
            "fusion", FusionClassifier(cfg.lstm_hidden, cfg.num_classes, rng=rng))
        branches = [getattr(self, name) for name in BRANCHES]
        self._backbone = Backbone(cfg, groups=len(branches), rng=_Unset())
        # Nothing reads the gradient of the input maps.
        self._backbone.stem_conv.input_grad = False
        # What each branch runs after its backbone: reshape, then LSTM or head.
        self._tails = [Sequential(**dict(branch._children[1:])) for branch in branches]
        owners = [(layer, [part for _, part in parts]) for (_, layer), *parts in zip(
            self._backbone._layers(), *(branch.backbone._layers() for branch in branches))]
        owners += [(layer, [layer]) for top in (*self._tails, self.fusion)
                   for _, layer in top._layers()]
        self.param_vector = _flat_vector(owners, "_param_names")
        self.grad_vector = _flat_vector(owners, "_param_names", prefix="g_")
        self.buffer_vector = _flat_vector(owners, "_buffer_names")

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
        xs = [self._check_input(x, name).transpose(1, 0, 2, 3)
              for x, name in zip((x_rt, x_dt, x_rd), BRANCHES)]
        maps = np.split(self._backbone.forward(np.concatenate(xs), train), len(xs))
        feats = [tail.forward(m, train) for tail, m in zip(self._tails, maps)]
        return self.fusion.forward(*feats, train)

    def predict(self, x_rt, x_dt, x_rd):
        """The logits of ``forward(..., train=False)``, bit for bit, from a
        pass in which no layer stores a cache: memory follows the layer that
        runs, and no backward can follow."""
        layers = [layer for _, layer in (*self._layers(), *self._backbone._layers())]
        for layer in layers:
            layer.store_cache = False
        try:
            return self.forward(x_rt, x_dt, x_rd, train=False)
        finally:
            for layer in layers:
                layer.store_cache = True

    def backward(self, dlogits):
        """Accumulates every parameter gradient; returns None, because the
        gradient of the input maps is not computed."""
        douts = [tail.backward(d) for tail, d in zip(self._tails, self.fusion.backward(dlogits))]
        self._backbone.backward(np.concatenate(douts))
