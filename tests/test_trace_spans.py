"""The traced benchmark's span recorder installs and uninstalls cleanly.

``perfbench/spans.py`` wraps public module functions and the
``forward``/``backward`` that each traced layer class defines itself. A
renamed function, or a traced class that inherits its ``forward``, makes
``Tracer.install()`` raise; this test catches that in the ordinary suite
instead of in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np

from fmcwhar import domain_maps, dsp, nn, radar_io, synth, training

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot():
    """(owner, attribute) -> value for the modules and nn classes a tracer may wrap."""
    classes = [getattr(nn, name) for name in nn.__all__
               if isinstance(getattr(nn, name), type)]
    return {(owner, attr): value
            for owner in [domain_maps, dsp, radar_io, synth, training] + classes
            for attr, value in vars(owner).items()}


def test_tracer_install_wraps_and_uninstall_restores():
    tracer = _load_spans().Tracer()
    before = _snapshot()
    try:
        tracer.install()
        wrapped = {key for key, value in _snapshot().items() if before.get(key) is not value}
        block = nn.MBConv(4, 4, 3, expand_ratio=2, stride=1, cbam_reduction=2)
        block.backward(block.forward(np.ones((4, 1, 6, 6))))
    finally:
        tracer.uninstall()

    after = _snapshot()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
    assert {(nn.MBConv, "forward"), (nn.MBConv, "backward"), (dsp, "iir_filter"),
            (radar_io, "parse_dat")} <= wrapped
    names = {span[0] for span in tracer.spans}
    assert {"nn.MBConv.forward", "nn.MBConv.backward", "nn.Conv2d_k1.forward",
            "nn.Cbam.backward"} <= names
