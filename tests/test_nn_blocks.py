import numpy as np
import pytest

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
        x = np.random.default_rng(0).standard_normal((2, 4, 8, 8))
        np.testing.assert_allclose(block.forward(x, train=False), x, atol=0)

    def test_stage2_shape(self):
        # Stage-2 config: 16 -> 24 channels, expand 6, stride 2.
        block = MBConv(16, 24, 3, expand_ratio=6, stride=2,
                       rng=np.random.default_rng(1))
        out = block.forward(np.zeros((2, 16, 112, 112)))
        assert out.shape == (2, 24, 56, 56)

    def test_expand_ratio_one_skips_expansion(self):
        block = MBConv(8, 8, 3, expand_ratio=1, stride=1)
        assert not any(name.startswith("expand_") for name, _ in block._children)
        assert "expand_conv.w" not in block.params()

    # Registration order is execution order, and a reordering that keeps
    # every shape valid would still pass the gradient checks, so the
    # child sequence is pinned here.
    @pytest.mark.parametrize("expand_ratio,attention,names", [
        (2, "cbam", ["expand_conv", "expand_bn", "expand_act", "dw_conv", "dw_bn",
                     "dw_act", "attn", "project_conv", "project_bn"]),
        (2, "none", ["expand_conv", "expand_bn", "expand_act", "dw_conv", "dw_bn",
                     "dw_act", "project_conv", "project_bn"]),
        (1, "cbam", ["dw_conv", "dw_bn", "dw_act", "attn", "project_conv", "project_bn"]),
        (1, "none", ["dw_conv", "dw_bn", "dw_act", "project_conv", "project_bn"]),
    ])
    def test_child_order(self, expand_ratio, attention, names):
        block = MBConv(4, 4, 3, expand_ratio, stride=1, cbam_reduction=2,
                       attention=attention)
        assert [name for name, _ in block._children] == names

    def test_no_residual_on_stride_or_channel_change(self):
        assert not MBConv(4, 8, 3, 1, stride=1).use_residual
        assert not MBConv(4, 4, 3, 1, stride=2).use_residual
        assert MBConv(4, 4, 3, 1, stride=1).use_residual

    def test_squeeze_excite_is_count_only(self):
        with pytest.raises(ValueError, match="static count"):
            MBConv(8, 8, 3, expand_ratio=2, stride=1, attention="se")

    def test_gradients(self):
        for r in run_gradcheck("mbconv"):
            assert r.passed, f"{r.name}: {r.max_rel_error:.3e}"


def mbconv_names(backbone):
    """Names of the MBConv blocks the backbone registered, in order."""
    return [name for name, child in backbone._children if isinstance(child, MBConv)]


class TestBackbone:
    def test_full_scale_stage_shapes(self):
        # The stage table must reproduce the declared output sizes from
        # the stem through the 1x1 head at 224 x 224 input, block by block.
        cfg = preset("b0")
        bb = Backbone(cfg, rng=np.random.default_rng(2))
        x = np.random.default_rng(3).standard_normal((1, 3, 224, 224))
        out = bb.stem_act.forward(bb.stem_bn.forward(bb.stem_conv.forward(x), False), False)
        assert out.shape == (1, 32, 112, 112)
        expected = {
            "stage1": (1, 16, 112, 112),
            "stage2": (1, 24, 56, 56),
            "stage3": (1, 40, 28, 28),
            "stage4": (1, 80, 14, 14),
            "stage5": (1, 112, 14, 14),
            "stage6": (1, 192, 7, 7),
            "stage7": (1, 320, 7, 7),
        }
        for block in block_plan(cfg):
            out = getattr(bb, block.name).forward(out)
            assert out.shape == expected[f"stage{block.stage}"], block.name
        out = bb.head_act.forward(bb.head_bn.forward(bb.head_conv.forward(out), False), False)
        assert out.shape == (1, 1280, 7, 7)

    def test_static_walk_matches_forward(self):
        cfg = preset("toy")
        bb = Backbone(cfg, rng=np.random.default_rng(4))
        out = bb.forward(np.zeros((1, 1, 32, 32)))
        assert out.shape[1:] == (cfg.head_channels, cfg.feature_hw, cfg.feature_hw)

    def test_child_order(self):
        bb = Backbone(preset("toy"))
        assert [name for name, _ in bb._children] == [
            "stem_conv", "stem_bn", "stem_act",
            *(f"stage{i}_block0" for i in range(1, 8)),
            "head_conv", "head_bn", "head_act",
        ]
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
        x = np.random.default_rng(6).standard_normal((2, 1, 32, 32))
        out = bb.forward(x, train=True)
        dx = bb.backward(np.ones_like(out))
        assert dx.shape == x.shape
        assert np.all(np.isfinite(dx))
