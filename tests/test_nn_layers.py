import numpy as np
import pytest
from oracles import conv_taps

from fmcwhar.nn import (
    BatchNorm2d,
    Cbam,
    Conv2d,
    DepthwiseConv2d,
    Dropout,
    Layer,
    Linear,
    ReLU,
    Sequential,
    ShapeMismatch,
    Swish,
)
from fmcwhar.nn.gradcheck import run_gradcheck
from fmcwhar.nn.layers import sigmoid


def suite_passes(module):
    results = run_gradcheck(module)
    assert results, f"no cases for {module}"
    for r in results:
        assert r.passed, f"{r.name}: max relative error {r.max_rel_error:.3e}"


class TestConv:
    def test_identity_permutation_passthrough(self):
        conv = Conv2d(3, 3, 1)
        conv.w[...] = np.eye(3).reshape(3, 3, 1, 1)
        x = np.random.default_rng(0).standard_normal((2, 3, 5, 5))
        np.testing.assert_allclose(conv.forward(x), x, atol=0)

    def test_channel_swap(self):
        conv = Conv2d(2, 2, 1)
        conv.w[...] = np.array([[0.0, 1.0], [1.0, 0.0]]).reshape(2, 2, 1, 1)
        x = np.random.default_rng(1).standard_normal((1, 2, 3, 3))
        out = conv.forward(x)
        np.testing.assert_allclose(out[:, 0], x[:, 1], atol=0)
        np.testing.assert_allclose(out[:, 1], x[:, 0], atol=0)

    def test_stride_and_padding_shapes(self):
        conv = Conv2d(3, 8, 3, stride=2)  # padding (k-1)//2 = 1
        out = conv.forward(np.zeros((2, 3, 224, 224)))
        assert out.shape == (2, 8, 112, 112)
        conv5 = Conv2d(8, 4, 5, stride=2)
        assert conv5.forward(np.zeros((1, 8, 56, 56))).shape == (1, 4, 28, 28)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeMismatch):
            Conv2d(3, 4, 3).forward(np.zeros((1, 2, 8, 8)))

    def test_gradients(self):
        suite_passes("conv")


KERNELS = [1, 3, 5, 7]
STRIDES = [1, 2]
SIZES = [(8, 9), (9, 8)]  # even and odd heights and widths


def assert_matches_taps(layer, x, seed):
    """Forward, dx, g_w and g_b of ``layer`` against the tap-loop reference."""
    out = layer.forward(x)
    dout = np.random.default_rng(seed).standard_normal(out.shape)
    layer.zero_grads()
    dx = layer.backward(dout)
    ref_out, ref_dx, ref_gw = conv_taps(x, layer.w, dout, layer.stride, layer.padding)
    pairs = [(dx, ref_dx), (layer.g_w, ref_gw)]
    if getattr(layer, "has_bias", False):
        ref_out = ref_out + layer.b[:, None, None]
        pairs.append((layer.g_b, dout.sum(axis=(0, 2, 3))))
    for got, want in [(out, ref_out)] + pairs:
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestConvMatchesTapLoop:
    """Every conv dispatch agrees with the k x k tap loop to 1e-12."""

    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("hw", SIZES)
    @pytest.mark.parametrize("stride", STRIDES)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_conv2d(self, kernel, stride, hw, bias):
        rng = np.random.default_rng([kernel, stride, *hw])
        conv = Conv2d(3, 4, kernel, stride=stride, bias=bias, rng=rng)
        if bias:
            conv.b[...] = rng.standard_normal(4)
        assert_matches_taps(conv, rng.standard_normal((2, 3, *hw)), seed=kernel)

    @pytest.mark.parametrize("hw", SIZES)
    @pytest.mark.parametrize("stride", STRIDES)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_depthwise(self, kernel, stride, hw):
        rng = np.random.default_rng([kernel, stride, *hw])
        dw = DepthwiseConv2d(4, kernel, stride=stride, rng=rng)
        assert_matches_taps(dw, rng.standard_normal((2, 4, *hw)), seed=kernel)


class TestDepthwise:
    def test_per_channel_independence(self):
        dw = DepthwiseConv2d(2, 3)
        dw.w[...] = 0.0
        dw.w[0, 1, 1] = 1.0  # channel 0: identity tap, channel 1: zero
        x = np.random.default_rng(2).standard_normal((1, 2, 6, 6))
        out = dw.forward(x)
        np.testing.assert_allclose(out[:, 0], x[:, 0], atol=0)
        np.testing.assert_allclose(out[:, 1], np.zeros_like(x[:, 1]), atol=0)


class TestBatchNorm:
    def test_inference_identity_stats(self):
        bn = BatchNorm2d(4, eps=0.0)
        x = np.random.default_rng(3).standard_normal((2, 4, 5, 5))
        np.testing.assert_allclose(bn.forward(x, train=False), x, atol=1e-12)

    def test_train_mode_normalizes(self):
        bn = BatchNorm2d(3)
        x = np.random.default_rng(4).standard_normal((8, 3, 6, 6)) * 3 + 1.5
        out = bn.forward(x, train=True)
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.var(axis=(0, 2, 3)), 1.0, rtol=1e-3)

    def test_running_average_tracking(self):
        bn = BatchNorm2d(2, momentum=0.1)
        x = np.ones((4, 2, 3, 3)) * 5.0
        bn.forward(x, train=True)
        np.testing.assert_allclose(bn.running_mean, 0.9 * 0.0 + 0.1 * 5.0)

    def test_gradients(self):
        suite_passes("bn")


class TestActivations:
    def test_swish_values(self):
        x = np.array([0.0, 1.0, -1.0])
        np.testing.assert_allclose(Swish().forward(x), x * sigmoid(x), atol=0)

    def test_relu(self):
        x = np.array([-2.0, 0.0, 3.0])
        np.testing.assert_array_equal(ReLU().forward(x), [0.0, 0.0, 3.0])

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

    def test_sigmoid_is_a_fresh_array_in_the_input_layout(self):
        x = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        out = sigmoid(x.T)
        assert out.strides == x.T.strides
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
    conv = Conv2d(2, 3, 3, bias=True)
    names = set(conv.params())
    assert names == {"w", "b"}
    cbam = Cbam(8, reduction=4)
    assert "channel.w1" in cbam.params()
    assert "spatial.conv.w" in cbam.params()
    assert set(cbam.params()) == set(cbam.grads())


def test_assign_names_the_full_path():
    cbam = Cbam(8, reduction=4)
    cbam.assign("spatial.conv.b", np.array([0.5]))
    assert cbam.spatial.conv.b[0] == 0.5
    with pytest.raises(ShapeMismatch, match=r"spatial\.conv\.w"):
        cbam.assign("spatial.conv.w", np.zeros((1, 2, 3, 3)))
    with pytest.raises(KeyError):
        cbam.assign("spatial.conv.g_w", np.zeros((1, 2, 7, 7)))


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
