"""From-scratch numpy layers with exact analytic backward passes, and the
three-branch network built from them.

- ``layers``: the ``Layer`` contract, ``Sequential``, the row-tap conv
  kernel, convs, batch norm (with the Swish fused in), linear and
  dropout, and the standalone ``Swish``, the fused layer's reference;
- ``attention``: the CBAM channel and spatial gates;
- ``blocks``: MBConv blocks and the backbone;
- ``recurrent``: the LSTM;
- ``heads``: the sequence reshape, the RD head and the fusion classifier;
- ``model``: ``MultiDomainModel`` and its grouped three-branch pass;
- ``config``: the stage table, ``ModelConfig`` and the presets;
- ``counting``: the static parameter and FLOP audit;
- ``checkpoint``: saving and loading weights;
- ``gradcheck``: finite-difference verification of every backward.
"""

from .config import ModelConfig, StageSpec
from .counting import count_flops, count_params
from .layers import (
    BatchNorm2d,
    Conv2d,
    DepthwiseConv2d,
    Dropout,
    Layer,
    Linear,
    NoForwardCache,
    Sequential,
    ShapeMismatch,
    Swish,
)
from .attention import Cbam, ChannelAttention, SpatialAttention
from .blocks import Backbone, MBConv
from .recurrent import Lstm
from .heads import FusionClassifier, RdHead, SequenceReshape
from .model import MultiDomainModel
from .checkpoint import load_checkpoint, save_checkpoint
from .gradcheck import GradCheckResult, run_gradcheck

# ``Swish`` stays importable but is not exported: the network runs it
# inside ``BatchNorm2d(swish=True)``, and the layer is that fusion's
# reference.
__all__ = [
    "Backbone", "BatchNorm2d", "Cbam", "ChannelAttention", "Conv2d",
    "DepthwiseConv2d", "Dropout", "FusionClassifier", "GradCheckResult",
    "Layer", "Linear", "Lstm", "MBConv", "ModelConfig", "MultiDomainModel",
    "NoForwardCache", "RdHead", "Sequential", "SequenceReshape", "ShapeMismatch",
    "SpatialAttention", "StageSpec",
    "count_flops", "count_params", "load_checkpoint", "run_gradcheck",
    "save_checkpoint",
]
