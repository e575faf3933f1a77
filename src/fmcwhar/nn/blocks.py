"""Mobile inverted-bottleneck blocks and the convolutional backbone."""

from __future__ import annotations

from .attention import CBAM_REDUCTION, Cbam
from .config import block_plan
from .layers import BatchNorm2d, Conv2d, DepthwiseConv2d, Sequential


class MBConv(Sequential):
    """Expansion 1x1 -> depthwise k x k -> CBAM -> projection 1x1.

    Every batch norm but the projection's runs the Swish that follows it
    (``BatchNorm2d(swish=True)``).

    The expansion stage is registered only when the expand ratio is not
    1. A residual connection applies when the block keeps both stride
    and channel count. With ``groups`` G, every stage runs G independent
    channel groups (the channel counts are totals over the groups).
    """

    def __init__(self, in_channels, out_channels, kernel, expand_ratio, stride,
                 cbam_reduction=CBAM_REDUCTION, groups=1, rng=None):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.stride = stride
        self.use_residual = stride == 1 and in_channels == out_channels
        expanded = in_channels * expand_ratio

        if expand_ratio != 1:
            self.register_child("expand_conv", Conv2d(in_channels, expanded, 1, groups=groups,
                                                       rng=rng))
            self.register_child("expand_bn", BatchNorm2d(expanded, swish=True))

        self.register_child("dw_conv", DepthwiseConv2d(expanded, kernel, stride, rng=rng))
        self.register_child("dw_bn", BatchNorm2d(expanded, swish=True))

        self.register_child("attn", Cbam(expanded, cbam_reduction, groups, rng=rng))
        self.register_child("project_conv", Conv2d(expanded, out_channels, 1, groups=groups,
                                                   rng=rng))
        self.register_child("project_bn", BatchNorm2d(out_channels))

    def forward(self, x, train: bool = False):
        out = super().forward(x, train)
        return out + x if self.use_residual else out

    def backward(self, dout):
        dx = super().backward(dout)
        return dx + dout if self.use_residual else dx


class Backbone(Sequential):
    """Stem conv -> MBConv blocks -> 1x1 head conv, per the block plan.

    With ``groups`` G it is G backbones side by side in one: every width
    is G times the plan's, and group g's channels see only group g's.
    """

    def __init__(self, cfg, groups=1, rng=None):
        super().__init__()
        g = groups
        self.register_child("stem_conv", Conv2d(g * cfg.in_channels, g * cfg.stem_channels, 3,
                                                stride=2, groups=g, rng=rng))
        self.register_child("stem_bn", BatchNorm2d(g * cfg.stem_channels, swish=True))

        plan = block_plan(cfg)
        for block in plan:
            self.register_child(block.name, MBConv(
                g * block.c_in, g * block.c_out, block.kernel, block.expand_ratio,
                block.stride, groups=g, rng=rng))

        self.register_child("head_conv", Conv2d(g * plan[-1].c_out, g * cfg.head_channels, 1,
                                                groups=g, rng=rng))
        self.register_child("head_bn", BatchNorm2d(g * cfg.head_channels, swish=True))
