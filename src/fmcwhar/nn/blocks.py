"""Mobile inverted-bottleneck blocks and the convolutional backbone."""

from __future__ import annotations

from .attention import Cbam
from .config import block_plan
from .layers import BatchNorm2d, Conv2d, DepthwiseConv2d, Layer, Swish


class MBConv(Layer):
    """Expansion 1x1 -> depthwise k x k -> attention -> projection 1x1.

    The expansion stage is skipped when the expand ratio is 1. A residual
    connection applies when the block keeps both stride and channel count.
    """

    def __init__(self, in_channels, out_channels, kernel, expand_ratio, stride,
                 cbam_reduction=16, attention="cbam", rng=None):
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
        else:
            self.expand_conv = None

        self.register_child("dw_conv", DepthwiseConv2d(expanded, kernel, stride, rng=rng))
        self.register_child("dw_bn", BatchNorm2d(expanded))
        self.register_child("dw_act", Swish())

        if attention == "cbam":
            self.register_child("attn", Cbam(expanded, cbam_reduction, rng=rng))
        elif attention == "se":
            raise ValueError(
                "squeeze-excite attention exists only as a static count "
                "(nn.counting); it has no trainable layer"
            )
        elif attention == "none":
            self.attn = None
        else:
            raise ValueError(f"unknown attention {attention!r}")

        self.register_child("project_conv", Conv2d(expanded, out_channels, 1, rng=rng))
        self.register_child("project_bn", BatchNorm2d(out_channels))

    def forward(self, x, train: bool = False):
        out = x
        if self.expand_conv is not None:
            out = self.expand_conv.forward(out, train)
            out = self.expand_bn.forward(out, train)
            out = self.expand_act.forward(out, train)
        out = self.dw_conv.forward(out, train)
        out = self.dw_bn.forward(out, train)
        out = self.dw_act.forward(out, train)
        if self.attn is not None:
            out = self.attn.forward(out, train)
        out = self.project_conv.forward(out, train)
        out = self.project_bn.forward(out, train)
        if self.use_residual:
            out = out + x
        return out

    def backward(self, dout):
        dres = dout if self.use_residual else None
        dx = self.project_bn.backward(dout)
        dx = self.project_conv.backward(dx)
        if self.attn is not None:
            dx = self.attn.backward(dx)
        dx = self.dw_act.backward(dx)
        dx = self.dw_bn.backward(dx)
        dx = self.dw_conv.backward(dx)
        if self.expand_conv is not None:
            dx = self.expand_act.backward(dx)
            dx = self.expand_bn.backward(dx)
            dx = self.expand_conv.backward(dx)
        if dres is not None:
            dx = dx + dres
        return dx


class Backbone(Layer):
    """Stem conv -> MBConv blocks -> 1x1 head conv, per the block plan."""

    def __init__(self, cfg, rng=None):
        super().__init__()
        self.register_child("stem_conv", Conv2d(cfg.in_channels, cfg.stem_channels, 3,
                                                stride=2, rng=rng))
        self.register_child("stem_bn", BatchNorm2d(cfg.stem_channels))
        self.register_child("stem_act", Swish())

        plan = block_plan(cfg)
        self.block_names = [block.name for block in plan]
        for block in plan:
            self.register_child(block.name, MBConv(
                block.c_in, block.c_out, block.kernel, block.expand_ratio, block.stride,
                cbam_reduction=cfg.cbam_reduction, attention=cfg.attention, rng=rng,
            ))

        self.register_child("head_conv", Conv2d(plan[-1].c_out, cfg.head_channels, 1,
                                                rng=rng))
        self.register_child("head_bn", BatchNorm2d(cfg.head_channels))
        self.register_child("head_act", Swish())

    def forward(self, x, train: bool = False):
        out = self.stem_act.forward(self.stem_bn.forward(
            self.stem_conv.forward(x, train), train), train)
        for name in self.block_names:
            out = getattr(self, name).forward(out, train)
        out = self.head_act.forward(self.head_bn.forward(
            self.head_conv.forward(out, train), train), train)
        return out

    def backward(self, dout):
        dx = self.head_conv.backward(self.head_bn.backward(
            self.head_act.backward(dout)))
        for name in reversed(self.block_names):
            dx = getattr(self, name).backward(dx)
        return self.stem_conv.backward(self.stem_bn.backward(
            self.stem_act.backward(dx)))
