"""Outside-in span recorder for the traced benchmark run.

While installed, the recorder replaces public functions of the fmcwhar
modules and the ``forward``/``backward`` methods of the nn layer classes
with timing wrappers. The library calls its own stages through module
attributes (``dsp.iir_filter``, ``dm.resize_bilinear``) and its children
through the class (``self.conv.forward``), so the wrappers see the inner
calls too, not only the calls the benchmark makes itself. ``uninstall``
puts every original back.

Spans stay in memory as ``(name, op, start, end, parent)`` tuples; a
span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

from fmcwhar import domain_maps, dsp, radar_io, synth, training
from fmcwhar import nn

# Front-end spans count their calls per recording, network and optimizer
# spans per training step or forward pass.
FRONT_END_SPANS = (
    "dsp.iir_filter",
    "domain_maps.range_profiles",
    "domain_maps.range_time_map",
    "domain_maps.doppler_time_map",
    "domain_maps.range_doppler_map",
    "domain_maps.resize_bilinear",
    "domain_maps.save_spectro_map",
    "domain_maps.load_spectro_map",
    "dsp.log_magnitude",
    "radar_io.parse_dat.binary",
    "radar_io.parse_dat.ascii",
    "synth.generate",
)

NN_LAYERS = (
    "Conv2d_k1", "Conv2d_k3s2", "Conv2d_k7", "DepthwiseConv2d", "BatchNorm2d",
    "Swish", "ChannelAttention", "SpatialAttention", "Cbam", "MBConv", "Lstm",
    "RdHead", "SequenceReshape", "FusionClassifier",
)

STEP_SPANS = ("training.adam_step", "training.cross_entropy") + tuple(
    f"nn.{layer}.{direction}" for layer in NN_LAYERS
    for direction in ("forward", "backward")
)

_MODULE_FUNCTIONS = (
    (dsp, "dsp", ("iir_filter", "log_magnitude")),
    (domain_maps, "domain_maps", (
        "range_profiles", "range_time_map", "doppler_time_map", "range_doppler_map",
        "resize_bilinear", "save_spectro_map", "load_spectro_map",
    )),
    (synth, "synth", ("generate",)),
    (training, "training", ("adam_step", "cross_entropy")),
)

_LAYER_CLASSES = (
    nn.Conv2d, nn.DepthwiseConv2d, nn.BatchNorm2d, nn.Swish, nn.ChannelAttention,
    nn.SpatialAttention, nn.Cbam, nn.MBConv, nn.Lstm, nn.RdHead,
    nn.SequenceReshape, nn.FusionClassifier,
)


def _layer_name(layer) -> str:
    """Class name, with convolutions split by kernel and stride."""
    if isinstance(layer, nn.Conv2d):
        stride = f"s{layer.stride}" if layer.stride != 1 else ""
        return f"Conv2d_k{layer.kernel}{stride}"
    return type(layer).__name__


def _fixed(name):
    return lambda *args, **kwargs: name


def _parse_name(raw, codec="ascii"):
    return f"radar_io.parse_dat.{codec}"


class Tracer:
    """Records spans from the wrapped functions while installed."""

    def __init__(self):
        self.spans: list = []
        self.op = 0
        self.bytes_in: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._originals: list = []

    def _wrap(self, owner, attr, namer, size=None):
        original = owner.__dict__[attr]
        spans, stack, bytes_in = self.spans, self._stack, self.bytes_in

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                name = namer(*args, **kwargs)
                spans[index] = (name, self.op, start, end, parent)
                if size is not None:
                    bytes_in[name] += size(*args, **kwargs)

        setattr(owner, attr, traced)
        self._originals.append((owner, attr, original))

    def install(self) -> None:
        for module, prefix, names in _MODULE_FUNCTIONS:
            for name in names:
                self._wrap(module, name, _fixed(f"{prefix}.{name}"))
        self._wrap(radar_io, "parse_dat", _parse_name,
                   size=lambda raw, codec="ascii": len(raw))
        for cls in _LAYER_CLASSES:
            for direction in ("forward", "backward"):
                self._wrap(cls, direction,
                           lambda layer, *a, _d=direction, **k: f"nn.{_layer_name(layer)}.{_d}")

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self seconds) over every recorded span."""
        child_time = [0.0] * len(self.spans)
        for name, op, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_time: dict[str, float] = defaultdict(float)
        for index, (name, op, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_time[name] += (end - start) - child_time[index]
        return {name: (calls[name], self_time[name]) for name in calls}
