"""Mobile inverted-bottleneck blocks and the convolutional backbone."""

from __future__ import annotations

from .attention import CBAM_REDUCTION, Cbam
from .config import block_plan
from .layers import BatchNorm2d, Conv2d, DepthwiseConv2d, Sequential, Swish


class MBConv(Sequential):
    """Expansion 1x1 -> depthwise k x k -> CBAM -> projection 1x1.

    The expansion stage is registered only when the expand ratio is not
    1. A residual connection applies when the block keeps both stride
    and channel count.
    """

    def __init__(self, in_channels, out_channels, kernel, expand_ratio, stride,
                 cbam_reduction=CBAM_REDUCTION, rng=None):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.stride = stride
        self.use_residual = stride == 1 and in_channels == out_channels
        expanded = in_channels * expand_ratio

        if expand_ratio != 1:
            self.register_child("expand_conv", Conv2d(in_channels, expanded, 1, rng=rng))
            self.register_child("expand_bn", BatchNorm2d(expanded))
            self.register_child("expand_act", Swish())

        self.register_child("dw_conv", DepthwiseConv2d(expanded, kernel, stride, rng=rng))
        self.register_child("dw_bn", BatchNorm2d(expanded))
        self.register_child("dw_act", Swish())

        self.register_child("attn", Cbam(expanded, cbam_reduction, rng=rng))
        self.register_child("project_conv", Conv2d(expanded, out_channels, 1, rng=rng))
        self.register_child("project_bn", BatchNorm2d(out_channels))

    def forward(self, x, train: bool = False):
        out = super().forward(x, train)
        return out + x if self.use_residual else out

    def backward(self, dout):
        dx = super().backward(dout)
        return dx + dout if self.use_residual else dx


class Backbone(Sequential):
    """Stem conv -> MBConv blocks -> 1x1 head conv, per the block plan."""

    def __init__(self, cfg, rng=None):
        super().__init__()
        self.register_child("stem_conv", Conv2d(cfg.in_channels, cfg.stem_channels, 3,
                                                stride=2, rng=rng))
        self.register_child("stem_bn", BatchNorm2d(cfg.stem_channels))
        self.register_child("stem_act", Swish())

        plan = block_plan(cfg)
        for block in plan:
            self.register_child(block.name, MBConv(
                block.c_in, block.c_out, block.kernel, block.expand_ratio, block.stride,
                rng=rng))

        self.register_child("head_conv", Conv2d(plan[-1].c_out, cfg.head_channels, 1,
                                                rng=rng))
        self.register_child("head_bn", BatchNorm2d(cfg.head_channels))
        self.register_child("head_act", Swish())
