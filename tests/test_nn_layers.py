from pathlib import Path

import numpy as np
import pytest
from oracles import batchnorm_reference, channel_first, conv_taps

from fmcwhar.nn import (
    BatchNorm2d,
    Cbam,
    ChannelAttention,
    Conv2d,
    DepthwiseConv2d,
    Dropout,
    Layer,
    Linear,
    Lstm,
    MBConv,
    NoForwardCache,
    RdHead,
    Sequential,
    SequenceReshape,
    ShapeMismatch,
    SpatialAttention,
    Swish,
)
from fmcwhar.nn.gradcheck import run_gradcheck
from fmcwhar.nn.layers import sigmoid


def suite_passes(module):
    results = run_gradcheck(module)
    assert results, f"no cases for {module}"
    for r in results:
        assert r.passed, f"{r.name}: max relative error {r.max_rel_error:.3e}"


# Every layer that is built for C channels checks them through check_tensor4.
CHANNEL_LAYERS = [Conv2d(3, 4, 3), DepthwiseConv2d(3, 3), BatchNorm2d(3), ChannelAttention(3)]


@pytest.mark.parametrize("x", [np.zeros((2, 1, 8, 8)), np.zeros((3, 8, 8))],
                         ids=["channels", "ndim3"])
@pytest.mark.parametrize("layer", CHANNEL_LAYERS, ids=lambda layer: type(layer).__name__)
def test_channel_mismatch_raises(layer, x):
    with pytest.raises(ShapeMismatch, match=r"\(3, B, H, W\)"):
        layer.forward(x)


MAP = (3, 2, 6, 6)
# Every layer kind that keeps forward state, with an input shape it takes.
CACHE_CASES = [pytest.param(layer, MAP, id=type(layer).__name__) for layer in CHANNEL_LAYERS] + [
    pytest.param(layer, shape, id=name) for name, layer, shape in [
        ("Conv2d_k1", Conv2d(3, 4, 1), MAP),
        ("BatchNorm2d_swish", BatchNorm2d(3, swish=True), MAP),
        ("Swish", Swish(), MAP),
        ("SpatialAttention", SpatialAttention(), MAP),
        ("Cbam", Cbam(3), MAP),
        ("MBConv", MBConv(3, 3, 3, 2, 1), MAP),
        ("SequenceReshape", SequenceReshape(), MAP),
        ("Linear", Linear(5, 4), (2, 5)),
        ("Dropout", Dropout(0.5), (2, 5)),
        ("Lstm", Lstm(5, 4), (2, 3, 5)),
        ("RdHead", RdHead(5, 4), (2, 3, 5)),
    ]]


@pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])
@pytest.mark.parametrize("layer, shape", CACHE_CASES)
def test_backward_consumes_the_cache(layer, shape, train):
    x = np.random.default_rng(0).standard_normal(shape)
    dout = np.ones_like(layer.forward(x, train))
    layer.backward(dout)
    assert not any("_cache" in vars(part) for _, part in layer._layers())
    with pytest.raises(NoForwardCache):
        layer.backward(dout)


@pytest.mark.parametrize("layer, shape", CACHE_CASES)
def test_forward_without_store_cache_keeps_none(layer, shape):
    x = np.random.default_rng(0).standard_normal(shape)
    layer.forward(x, True)  # the cache of an earlier forward goes too
    parts = [part for _, part in layer._layers()]
    for part in parts:
        part.store_cache = False
    try:
        dout = np.ones_like(layer.forward(x))
        assert not any("_cache" in vars(part) for part in parts)
        with pytest.raises(NoForwardCache):
            layer.backward(dout)
    finally:
        for part in parts:
            part.store_cache = True


class TestConv:
    def test_identity_permutation_passthrough(self):
        conv = Conv2d(3, 3, 1)
        conv.w[...] = np.eye(3).reshape(3, 3, 1, 1)
        x = channel_first(np.random.default_rng(0).standard_normal((2, 3, 5, 5)))
        np.testing.assert_allclose(conv.forward(x), x, atol=0)

    def test_channel_swap(self):
        conv = Conv2d(2, 2, 1)
        conv.w[...] = np.array([[0.0, 1.0], [1.0, 0.0]]).reshape(2, 2, 1, 1)
        x = channel_first(np.random.default_rng(1).standard_normal((1, 2, 3, 3)))
        out = conv.forward(x)
        np.testing.assert_allclose(out[0], x[1], atol=0)
        np.testing.assert_allclose(out[1], x[0], atol=0)

    def test_stride_and_padding_shapes(self):
        conv = Conv2d(3, 8, 3, stride=2)  # padding (k-1)//2 = 1
        out = conv.forward(np.zeros((3, 2, 224, 224)))
        assert out.shape == (8, 2, 112, 112)
        conv5 = Conv2d(8, 4, 5, stride=2)
        assert conv5.forward(np.zeros((8, 1, 56, 56))).shape == (4, 1, 28, 28)

    def test_groups_must_divide_both_widths(self):
        with pytest.raises(ValueError, match="groups"):
            Conv2d(3, 4, 3, groups=2)
        with pytest.raises(ValueError, match="groups"):
            Conv2d(4, 3, 1, groups=2)

    def test_gradients(self):
        suite_passes("conv")


KERNELS = [1, 3, 5, 7]
STRIDES = [1, 2]
SIZES = [(8, 9), (9, 8)]  # even and odd heights and widths


def with_batch_one(shapes, batch):
    """(hw, batch) cases: every shape at ``batch`` (id ``hwN``) and at
    batch 1 (id ``hwN-b1``), where no sample follows the last flat row."""
    return [pytest.param(hw, b, id=f"hw{i}" + ("-b1" if b == 1 else ""))
            for b in (batch, 1) for i, hw in enumerate(shapes)]


def assert_matches_taps(layer, x, seed):
    """Forward, dx and g_w of ``layer`` on the (C, B, H, W) ``x`` against the
    tap-loop reference."""
    out = layer.forward(x)
    dout = np.random.default_rng(seed).standard_normal(out.shape)
    layer.zero_grads()
    dx = layer.backward(dout)
    ref_out, ref_dx, ref_gw = conv_taps(x, layer.w, dout, layer.stride, layer.padding,
                                        getattr(layer, "groups", 1))
    for got, want in [(out, ref_out), (dx, ref_dx), (layer.g_w, ref_gw)]:
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestConvMatchesTapLoop:
    """Every conv dispatch agrees with the k x k tap loop to 1e-12."""

    @pytest.mark.parametrize("batch_major", [False, True])
    @pytest.mark.parametrize("hw", SIZES)
    @pytest.mark.parametrize("stride", STRIDES)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_conv2d(self, kernel, stride, hw, batch_major):
        rng = np.random.default_rng([kernel, stride, *hw])
        conv = Conv2d(3, 4, kernel, stride=stride, rng=rng)
        x = rng.standard_normal((2, 3, *hw)).transpose(1, 0, 2, 3)
        if not batch_major:  # else a (C, B, H, W) view of batch-major memory
            x = np.ascontiguousarray(x)
        assert_matches_taps(conv, x, seed=kernel)

    @pytest.mark.parametrize("groups", [2, 3])
    @pytest.mark.parametrize("hw", SIZES)
    @pytest.mark.parametrize("stride", STRIDES)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_grouped(self, kernel, stride, hw, groups):
        rng = np.random.default_rng([kernel, stride, *hw, groups])
        conv = Conv2d(2 * groups, 3 * groups, kernel, stride=stride, groups=groups, rng=rng)
        x = channel_first(rng.standard_normal((2, 2 * groups, *hw)))
        assert_matches_taps(conv, x, seed=kernel)

    @pytest.mark.parametrize("hw", SIZES)
    @pytest.mark.parametrize("stride", STRIDES)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_depthwise(self, kernel, stride, hw):
        rng = np.random.default_rng([kernel, stride, *hw])
        dw = DepthwiseConv2d(4, kernel, stride=stride, rng=rng)
        x = channel_first(rng.standard_normal((2, 4, *hw)))
        assert_matches_taps(dw, x, seed=kernel)
        # A 4-group Conv2d with one channel per group is the same conv: both
        # hand the row-tap kernel the same (4, 1, 1, k, k) weight, so they
        # agree bit for bit. A 1x1 stride-1 Conv2d is a channel matmul
        # instead, which agrees to rounding.
        conv = Conv2d(4, 4, kernel, stride=stride, groups=4)
        conv.w[...] = dw.w[:, None]
        atol = 1e-12 if kernel == stride == 1 else 0.0
        dout = rng.standard_normal(dw.forward(x).shape)
        for layer in (dw, conv):
            layer.zero_grads()
        pairs = [(conv.forward(x), dw.forward(x)), (conv.backward(dout), dw.backward(dout)),
                 (conv.g_w, dw.g_w[:, None])]
        for got, want in pairs:
            np.testing.assert_allclose(got, want, rtol=0, atol=atol)

    # Maps no larger than the kernel (the deepest stages see 2x2 maps), so
    # most kernel rows fall in the zero padding.
    @pytest.mark.parametrize("stride", STRIDES)
    @pytest.mark.parametrize("hw,batch", with_batch_one([(1, 1), (2, 2), (3, 3), (1, 3)], 2))
    @pytest.mark.parametrize("kernel", [5, 7])
    def test_maps_smaller_than_kernel(self, kernel, hw, batch, stride):
        rng = np.random.default_rng([kernel, stride, *hw, 1])
        conv = Conv2d(3, 2, kernel, stride=stride, rng=rng)
        assert_matches_taps(conv, channel_first(rng.standard_normal((batch, 3, *hw))),
                            seed=kernel)
        dw = DepthwiseConv2d(3, kernel, stride=stride, rng=rng)
        assert_matches_taps(dw, channel_first(rng.standard_normal((batch, 3, *hw))),
                            seed=kernel)

    @pytest.mark.parametrize("hw,batch", with_batch_one([(7, 7), (11, 5), (5, 13)], 3))
    @pytest.mark.parametrize("kernel", [3, 5, 7])
    def test_odd_sizes_at_stride_two(self, kernel, hw, batch):
        rng = np.random.default_rng([kernel, *hw, 2])
        conv = Conv2d(2, 3, kernel, stride=2, rng=rng)
        assert_matches_taps(conv, channel_first(rng.standard_normal((batch, 2, *hw))),
                            seed=kernel)
        dw = DepthwiseConv2d(5, kernel, stride=2, rng=rng)
        assert_matches_taps(dw, channel_first(rng.standard_normal((batch, 5, *hw))),
                            seed=kernel)

    @pytest.mark.parametrize("kernel,stride", [(3, 2), (1, 1)])
    def test_input_grad_off_keeps_weight_gradients(self, kernel, stride):
        # The model's stem conv skips the gradient of the input maps.
        rng = np.random.default_rng([kernel, 3])
        conv = Conv2d(3, 6, kernel, stride=stride, groups=3, rng=rng)
        x = channel_first(rng.standard_normal((2, 3, 9, 8)))
        dout = rng.standard_normal(conv.forward(x).shape)
        assert conv.backward(dout).shape == x.shape
        g_w = conv.g_w.copy()
        conv.zero_grads()
        conv.input_grad = False
        conv.forward(x)
        assert conv.backward(dout) is None
        np.testing.assert_array_equal(conv.g_w, g_w)

    def test_batch_major_input(self):
        # A (C, B, H, W) view of batch-major memory, as a caller gets by
        # transposing a (B, C, H, W) batch without a copy.
        rng = np.random.default_rng(78)
        x = rng.standard_normal((2, 4, 9, 8)).transpose(1, 0, 2, 3)
        assert not x.flags.c_contiguous
        assert_matches_taps(DepthwiseConv2d(4, 3, rng=rng), x, seed=3)
        assert_matches_taps(Conv2d(4, 2, 3, stride=2, rng=rng), x, seed=3)


def test_nn_plans_no_einsum_path_per_call():
    # einsum(optimize=True) searches for a contraction path on every call
    # and copies strided window views into contiguous arrays.
    nn_dir = Path(__file__).resolve().parents[1] / "src" / "fmcwhar" / "nn"
    offenders = [path.name for path in sorted(nn_dir.glob("*.py"))
                 if "optimize=True" in path.read_text()]
    assert offenders == []


class TestDepthwise:
    def test_per_channel_independence(self):
        dw = DepthwiseConv2d(2, 3)
        dw.w[...] = 0.0
        dw.w[0, 1, 1] = 1.0  # channel 0: identity tap, channel 1: zero
        x = channel_first(np.random.default_rng(2).standard_normal((1, 2, 6, 6)))
        out = dw.forward(x)
        np.testing.assert_allclose(out[0], x[0], atol=0)
        np.testing.assert_allclose(out[1], np.zeros_like(x[1]), atol=0)


class TestBatchNorm:
    def test_inference_identity_stats(self):
        bn = BatchNorm2d(4)
        bn.running_var[...] = 1.0 - bn.EPS
        x = channel_first(np.random.default_rng(3).standard_normal((2, 4, 5, 5)))
        np.testing.assert_allclose(bn.forward(x, train=False), x, atol=1e-12)

    def test_train_mode_normalizes(self):
        bn = BatchNorm2d(3)
        x = channel_first(np.random.default_rng(4).standard_normal((8, 3, 6, 6))) * 3 + 1.5
        out = bn.forward(x, train=True)
        np.testing.assert_allclose(out.mean(axis=(1, 2, 3)), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.var(axis=(1, 2, 3)), 1.0, rtol=1e-3)

    def test_running_average_tracking(self):
        bn = BatchNorm2d(2)
        x = np.ones((2, 4, 3, 3)) * 5.0
        bn.forward(x, train=True)
        np.testing.assert_allclose(bn.running_mean, 0.9 * 0.0 + 0.1 * 5.0)

    def test_gradients(self):
        suite_passes("bn")


class TestBatchNormMatchesReference:
    """The fused batch norm against the unfused form, to 1e-12."""

    @pytest.mark.parametrize("batch_major", [False, True])
    @pytest.mark.parametrize("train", [True, False])
    def test_matches(self, train, batch_major):
        rng = np.random.default_rng([train, batch_major])
        x = rng.standard_normal((6, 5, 7, 9)).transpose(1, 0, 2, 3)
        if not batch_major:  # else a (C, B, H, W) view of batch-major memory
            x = np.ascontiguousarray(x)
        x = x * 3.0 + 1.5
        bn = BatchNorm2d(5)
        bn.gamma[...] = rng.uniform(0.5, 2.0, 5)
        bn.beta[...] = rng.standard_normal(5)
        bn.running_mean[...] = rng.standard_normal(5)
        bn.running_var[...] = rng.uniform(0.5, 2.0, 5)
        dout = channel_first(rng.standard_normal((6, 5, 7, 9)))
        want = batchnorm_reference(x, bn.gamma, bn.beta, bn.running_mean,
                                   bn.running_var, dout, train)
        out = bn.forward(x, train=train)
        bn.zero_grads()
        dx = bn.backward(dout)
        got = (out, dx, bn.g_gamma, bn.g_beta, bn.running_mean, bn.running_var)
        for name, g, w in zip(("out", "dx", "g_gamma", "g_beta", "running_mean",
                               "running_var"), got, want):
            assert g.shape == w.shape, name
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12, err_msg=name)

    def test_leaves_input_untouched(self):
        x = channel_first(np.random.default_rng(5).standard_normal((2, 3, 4, 4)))
        before = x.copy()
        for bn in (BatchNorm2d(3), BatchNorm2d(3, swish=True)):
            bn.forward(x, train=True)
            bn.forward(x, train=False)
        np.testing.assert_array_equal(x, before)


class TestBatchNormSwishMatchesUnfused:
    """``BatchNorm2d(swish=True)`` against ``BatchNorm2d`` then ``Swish``,
    bit for bit. The grouped shape is three groups of 8 channels, past
    numpy's temporary-reuse threshold, as the grouped backbone runs it."""

    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("shape", [(5, 4, 7, 9), (24, 8, 16, 16)], ids=["plain", "grouped"])
    def test_matches(self, shape, train):
        rng = np.random.default_rng([shape[0], train])
        c = shape[0]
        x = rng.standard_normal(shape) * 3.0 + 1.5
        dout = rng.standard_normal(shape)
        fused, plain, act = BatchNorm2d(c, swish=True), BatchNorm2d(c), Swish()
        for bn in (fused, plain):
            bn.gamma[...] = np.linspace(0.5, 2.0, c)
            bn.beta[...] = np.linspace(-1.0, 1.0, c)
            bn.running_mean[...] = np.linspace(-0.5, 0.5, c)
            bn.running_var[...] = np.linspace(0.5, 2.0, c)
        out = fused.forward(x, train)
        want_out = act.forward(plain.forward(x, train), train)
        dx = fused.backward(dout)
        want_dx = plain.backward(act.backward(dout))
        # Compared after the backward, so it may not have written into out.
        for name, got, want in (("out", out, want_out), ("dx", dx, want_dx),
                                ("g_gamma", fused.g_gamma, plain.g_gamma),
                                ("g_beta", fused.g_beta, plain.g_beta),
                                ("running_mean", fused.running_mean, plain.running_mean),
                                ("running_var", fused.running_var, plain.running_var)):
            assert got.shape == want.shape, name
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64),
                                          err_msg=name)


class TestActivations:
    def test_swish_values(self):
        x = np.array([0.0, 1.0, -1.0])
        np.testing.assert_allclose(Swish().forward(x), x * sigmoid(x), atol=0)

    @pytest.mark.parametrize("batch_major", [False, True])
    @pytest.mark.parametrize("shape", [(2, 3, 5, 5), (8, 24, 32, 32)])
    def test_swish_backward_matches_input_form(self, shape, batch_major):
        # Backward works from the cached output, (1 - s) y + s; it gives
        # the bits of s + x s (1 - s) from the input. The larger shape is
        # past numpy's temporary-reuse threshold.
        rng = np.random.default_rng(16)
        x = (rng.standard_normal(shape) * 4).transpose(1, 0, 2, 3)
        if not batch_major:  # else a (C, B, H, W) view of batch-major memory
            x = np.ascontiguousarray(x)
        dout = channel_first(rng.standard_normal(shape))
        layer = Swish()
        layer.forward(x, train=True)
        got = layer.backward(dout)
        s = sigmoid(x)
        want = s + x * s * (1.0 - s)
        want *= dout
        if not batch_major:
            assert got.flags.c_contiguous
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_sigmoid_stable_at_extremes(self):
        with np.errstate(all="raise"):
            out = sigmoid(np.array([-1e4, 0.0, 1e4]))
        assert out[0] == 0.0 and out[1] == 0.5 and out[2] == 1.0

    def test_sigmoid_matches_exp_form(self):
        x = np.linspace(-40.0, 40.0, 8001)
        with np.errstate(all="raise"):
            got = sigmoid(x)
            want = np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    def test_sigmoid_leaves_its_input_untouched(self):
        x = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        out = sigmoid(x)
        assert out is not x and out.dtype == np.float64
        np.testing.assert_array_equal(x, np.linspace(-3.0, 3.0, 12).reshape(3, 4))

    def test_gradients(self):
        suite_passes("activations")


class TestLinear:
    def test_shape_check(self):
        with pytest.raises(ShapeMismatch):
            Linear(4, 2).forward(np.zeros((3, 5)))

    def test_matches_matmul(self):
        lin = Linear(4, 3)
        x = np.random.default_rng(5).standard_normal((2, 4))
        np.testing.assert_allclose(lin.forward(x), x @ lin.w.T + lin.b, atol=0)


class TestDropout:
    def test_eval_mode_is_identity(self):
        layer = Dropout(0.5)
        x = np.random.default_rng(6).standard_normal((4, 10))
        np.testing.assert_array_equal(layer.forward(x, train=False), x)

    def test_train_mode_zeroes_and_scales(self):
        layer = Dropout(0.4, rng=np.random.default_rng(0))
        x = np.ones((2000, 10))
        out = layer.forward(x, train=True)
        kept = out != 0
        np.testing.assert_allclose(out[kept], 1.0 / 0.6, atol=1e-12)
        assert abs(kept.mean() - 0.6) < 0.02

    def test_inverted_scaling_unbiased(self):
        # Averaging over >= 1e4 masks approaches the eval output within 2%.
        layer = Dropout(0.2, rng=np.random.default_rng(1))
        x = np.ones((20000, 8))
        avg = layer.forward(x, train=True).mean(axis=0)
        np.testing.assert_allclose(avg, np.ones(8), rtol=0.02)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


def test_parameter_registry_namespacing():
    conv = Conv2d(2, 3, 3)
    assert set(conv.params()) == {"w"}
    cbam = Cbam(8, reduction=4)
    assert "channel.w1" in cbam.params()
    assert "spatial.conv.w" in cbam.params()
    assert set(cbam.params()) == set(cbam.grads())


def test_zero_grads_clears_every_gradient():
    cbam = Cbam(8, reduction=4)
    for grad in cbam.grads().values():
        grad[...] = 1.0
    cbam.zero_grads()
    assert all(not grad.any() for grad in cbam.grads().values())


class _Recorder(Layer):
    """Appends its name to a shared log and marks the value it passes on."""

    def __init__(self, name, log):
        super().__init__()
        self.name, self.log = name, log

    def forward(self, x, train: bool = False):
        self.log.append(("forward", self.name, train))
        return x + [self.name]

    def backward(self, dout):
        self.log.append(("backward", self.name))
        return dout + [self.name]


def test_sequential_runs_forward_in_order_and_backward_in_reverse():
    log = []
    chain = Sequential(a=_Recorder("a", log), b=_Recorder("b", log))
    chain.register_child("c", _Recorder("c", log))
    assert [name for name, _ in chain._children] == ["a", "b", "c"]
    assert chain.forward([], train=True) == ["a", "b", "c"]
    assert chain.backward([]) == ["c", "b", "a"]
    assert log == [("forward", "a", True), ("forward", "b", True), ("forward", "c", True),
                   ("backward", "c"), ("backward", "b"), ("backward", "a")]
