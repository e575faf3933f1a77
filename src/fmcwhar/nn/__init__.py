"""From-scratch neural building blocks with exact analytic backward passes.

Layers compute in float64, so finite-difference gradient checks are
meaningful: the model casts its input maps to float64 and ``sigmoid``
returns float64. Backbone layers pass channel-major (C, B, H, W)
arrays. Forward and backward are single-threaded by contract: each
layer caches its forward activations and its backward consumes them, so
a second backward without a new forward raises ``NoForwardCache``;
``MultiDomainModel.predict`` runs a forward that caches nothing.
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

__all__ = [
    "Backbone", "BatchNorm2d", "Cbam", "ChannelAttention", "Conv2d",
    "DepthwiseConv2d", "Dropout", "FusionClassifier", "GradCheckResult",
    "Layer", "Linear", "Lstm", "MBConv", "ModelConfig", "MultiDomainModel",
    "NoForwardCache", "RdHead", "Sequential", "SequenceReshape", "ShapeMismatch",
    "SpatialAttention", "StageSpec", "Swish",
    "count_flops", "count_params", "load_checkpoint", "run_gradcheck",
    "save_checkpoint",
]
