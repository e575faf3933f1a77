import numpy as np
import pytest
from oracles import channel_first

from fmcwhar.nn import Backbone, MBConv
from fmcwhar.nn.config import block_plan, preset
from fmcwhar.nn.gradcheck import run_gradcheck


class TestMBConv:
    def test_zero_weight_residual_identity(self):
        block = MBConv(4, 4, 3, expand_ratio=2, stride=1)
        for p in block.params().values():
            p[...] = 0.0
        # Batch norms keep gamma = 0 now, so every conv path emits zeros and
        # only the residual survives.
        x = channel_first(np.random.default_rng(0).standard_normal((2, 4, 8, 8)))
        np.testing.assert_allclose(block.forward(x, train=False), x, atol=0)

    def test_stage2_shape(self):
        # Stage-2 config: 16 -> 24 channels, expand 6, stride 2.
        block = MBConv(16, 24, 3, expand_ratio=6, stride=2,
                       rng=np.random.default_rng(1))
        out = block.forward(np.zeros((16, 2, 112, 112)))
        assert out.shape == (24, 2, 56, 56)

    def test_expand_ratio_one_skips_expansion(self):
        block = MBConv(8, 8, 3, expand_ratio=1, stride=1)
        assert not any(name.startswith("expand_") for name, _ in block._children)
        assert "expand_conv.w" not in block.params()

    # Registration order is execution order, and a reordering that keeps
    # every shape valid would still pass the gradient checks, so the
    # child sequence is pinned here.
    @pytest.mark.parametrize("expand_ratio,names", [
        (2, ["expand_conv", "expand_bn", "dw_conv", "dw_bn", "attn", "project_conv",
             "project_bn"]),
        (1, ["dw_conv", "dw_bn", "attn", "project_conv", "project_bn"]),
    ])
    def test_child_order(self, expand_ratio, names):
        block = MBConv(4, 4, 3, expand_ratio, stride=1, cbam_reduction=2)
        assert [name for name, _ in block._children] == names
        # Every batch norm but the projection's runs its Swish.
        assert [name for name, child in block._children if getattr(child, "swish", False)] == [
            name for name in names if name.endswith("_bn") and name != "project_bn"]

    def test_no_residual_on_stride_or_channel_change(self):
        assert not MBConv(4, 8, 3, 1, stride=1).use_residual
        assert not MBConv(4, 4, 3, 1, stride=2).use_residual
        assert MBConv(4, 4, 3, 1, stride=1).use_residual

    def test_gradients(self):
        for r in run_gradcheck("mbconv"):
            assert r.passed, f"{r.name}: {r.max_rel_error:.3e}"


def mbconv_names(backbone):
    """Names of the MBConv blocks the backbone registered, in order."""
    return [name for name, child in backbone._children if isinstance(child, MBConv)]


class TestBackbone:
    def test_full_scale_stage_shapes(self):
        # The stage table must reproduce the declared output sizes from
        # the stem through the 1x1 head at 224 x 224 input, block by block,
        # in the (C, B, H, W) layout.
        cfg = preset("b0")
        bb = Backbone(cfg, rng=np.random.default_rng(2))
        x = np.random.default_rng(3).standard_normal((1, 3, 224, 224)).transpose(1, 0, 2, 3)
        out = bb.stem_bn.forward(bb.stem_conv.forward(x), False)
        assert out.shape == (32, 1, 112, 112)
        expected = {
            "stage1": (16, 1, 112, 112),
            "stage2": (24, 1, 56, 56),
            "stage3": (40, 1, 28, 28),
            "stage4": (80, 1, 14, 14),
            "stage5": (112, 1, 14, 14),
            "stage6": (192, 1, 7, 7),
            "stage7": (320, 1, 7, 7),
        }
        for block in block_plan(cfg):
            out = getattr(bb, block.name).forward(out)
            assert out.shape == expected[f"stage{block.stage}"], block.name
        out = bb.head_bn.forward(bb.head_conv.forward(out), False)
        assert out.shape == (1280, 1, 7, 7)

    def test_static_walk_matches_forward(self):
        cfg = preset("toy")
        bb = Backbone(cfg, rng=np.random.default_rng(4))
        out = bb.forward(np.zeros((1, 1, 32, 32)))
        assert out.shape == (cfg.head_channels, 1, cfg.feature_hw, cfg.feature_hw)

    def test_child_order(self):
        bb = Backbone(preset("toy"))
        assert [name for name, _ in bb._children] == [
            "stem_conv", "stem_bn",
            *(f"stage{i}_block0" for i in range(1, 8)),
            "head_conv", "head_bn",
        ]
        assert bb.stem_bn.swish and bb.head_bn.swish
        assert mbconv_names(bb) == [f"stage{i}_block0" for i in range(1, 8)]

    def test_b0_block_count(self):
        bb = Backbone(preset("b0"))
        assert len(mbconv_names(bb)) == 16  # repeats (1, 2, 2, 3, 3, 4, 1)

    def test_b0_block_plan(self):
        cfg = preset("b0")
        plan = block_plan(cfg)
        assert len(plan) == 16
        assert [b.name for b in plan] == mbconv_names(Backbone(cfg))
        last_of_stage = {b.stage: b.hw_out for b in plan}
        assert list(last_of_stage.values()) == [112, 56, 28, 14, 14, 7, 7]
        assert cfg.feature_hw == plan[-1].hw_out == 7
        # Only a stage's first repeat strides and changes the width.
        for b in plan:
            stage = cfg.stages[b.stage - 1]
            if b.name.endswith("_block0"):
                assert b.stride == stage.stride
            else:
                assert b.stride == 1 and b.c_in == b.c_out == stage.out_channels

    def test_backbone_backward_shape(self):
        cfg = preset("toy")
        bb = Backbone(cfg, rng=np.random.default_rng(5))
        x = np.random.default_rng(6).standard_normal((2, 1, 32, 32)).transpose(1, 0, 2, 3)
        out = bb.forward(x, train=True)
        dx = bb.backward(np.ones_like(out))
        assert dx.shape == x.shape
        assert np.all(np.isfinite(dx))
