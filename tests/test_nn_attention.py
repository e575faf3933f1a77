import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import CbamReference, channel_first

import fmcwhar
from fmcwhar.nn import Cbam, ChannelAttention, SpatialAttention
from fmcwhar.nn.gradcheck import run_gradcheck


class TestChannelAttention:
    def test_zero_weights_give_half(self):
        attn = ChannelAttention(8)
        attn.w1[...] = 0.0
        attn.w2[...] = 0.0
        x = channel_first(np.random.default_rng(0).standard_normal((2, 8, 4, 4)))
        gate = attn.forward(x)
        assert gate.shape == (8, 2, 1, 1)
        np.testing.assert_allclose(gate, 0.5, atol=0)

    def test_constant_map_doubles_mlp(self):
        # Spatially constant input: avg pool equals max pool, so the gate
        # is sigmoid(2 * MLP(v)).
        attn = ChannelAttention(4, reduction=2, rng=np.random.default_rng(1))
        v = np.array([0.3, -1.2, 0.8, 2.0])
        x = np.broadcast_to(v[:, None, None, None], (4, 1, 5, 5)).copy()
        gate = attn.forward(x)
        mlp_out, _ = attn._mlp(v[:, None])
        expected = 1.0 / (1.0 + np.exp(-2.0 * mlp_out))
        np.testing.assert_allclose(gate[:, 0, 0, 0], expected[:, 0], atol=1e-12)

    def test_hidden_width_floor(self):
        attn = ChannelAttention(8, reduction=16)
        assert attn.hidden == 1
        attn = ChannelAttention(33, reduction=16)
        assert attn.hidden == 3  # ceil(33/16)

    def test_gate_range(self):
        attn = ChannelAttention(6, rng=np.random.default_rng(2))
        x = channel_first(np.random.default_rng(3).standard_normal((3, 6, 7, 7))) * 5
        gate = attn.forward(x)
        assert np.all(gate > 0) and np.all(gate < 1)


class TestSpatialAttention:
    def test_zero_conv_gives_half(self):
        attn = SpatialAttention()
        attn.conv.w[...] = 0.0
        attn.conv.b[...] = 0.0
        x = channel_first(np.random.default_rng(4).standard_normal((2, 5, 9, 9)))
        gate = attn.forward(x)
        assert gate.shape == (1, 2, 9, 9)
        np.testing.assert_allclose(gate, 0.5, atol=0)

    def test_channel_constant_input_pools_equal(self):
        # Equal channels make the average and max planes equal, so swapping
        # the conv's average and max weights leaves the gate unchanged.
        x = np.broadcast_to(
            np.random.default_rng(5).standard_normal((1, 1, 6, 6)), (4, 1, 6, 6)
        ).copy()
        attn = SpatialAttention(rng=np.random.default_rng(13))
        gate = attn.forward(x)
        attn.conv.w[...] = attn.conv.w[:, ::-1].copy()
        np.testing.assert_allclose(attn.forward(x), gate, rtol=0, atol=1e-12)

    def test_first_tied_channel_takes_max_gradient(self):
        # Every channel of a group holds the same map, so all tie for the
        # max. The first takes the max plane's gradient, as argmax picks it;
        # the others take only their share of the average plane's.
        rng = np.random.default_rng(14)
        attn = SpatialAttention(groups=2, rng=rng)
        plane = rng.standard_normal((3, 2, 1, 6, 5)).transpose(1, 2, 0, 3, 4)
        x = np.broadcast_to(plane, (2, 4, 3, 6, 5)).reshape(8, 3, 6, 5)
        attn.forward(x)
        dout = rng.standard_normal((3, 2, 6, 5)).transpose(1, 0, 2, 3)
        dx = attn.backward(dout).reshape(2, 4, 3, 6, 5)
        for j in (2, 3):
            np.testing.assert_array_equal(dx[:, j], dx[:, 1])
        assert np.all(dx[:, 0] != dx[:, 1])

    def test_spatial_size_preserved(self):
        attn = SpatialAttention(rng=np.random.default_rng(6))
        for h, w in ((7, 7), (14, 10), (1, 1)):
            gate = attn.forward(np.random.default_rng(7).standard_normal((3, 1, h, w)))
            assert gate.shape == (1, 1, h, w)

    def test_kernel_shape(self):
        attn = SpatialAttention()
        assert attn.conv.w.shape == (1, 2, 7, 7)
        assert attn.conv.b.shape == (1,)


class TestCbam:
    def test_saturated_gates_identity(self):
        cbam = Cbam(4, reduction=2)
        for p in cbam.params().values():
            p[...] = 0.0
        # Large positive spatial bias and a channel MLP that always emits a
        # large positive sum drive both sigmoids to 1.
        cbam.spatial.conv.b[...] = 50.0
        cbam.channel.w1[...] = 100.0
        cbam.channel.w2[...] = 100.0
        x = np.abs(channel_first(np.random.default_rng(8).standard_normal((2, 4, 5, 5)))) + 0.5
        out = cbam.forward(x)
        np.testing.assert_allclose(out, x, rtol=1e-6)

    def test_zero_weights_quarter_scaling(self):
        cbam = Cbam(4, reduction=2)
        for p in cbam.params().values():
            p[...] = 0.0
        x = channel_first(np.random.default_rng(9).standard_normal((2, 4, 6, 6)))
        np.testing.assert_allclose(cbam.forward(x), 0.25 * x, atol=1e-12)

    def test_gradients(self):
        for r in run_gradcheck("cbam"):
            assert r.passed, f"{r.name}: {r.max_rel_error:.3e}"

    def test_gradients_independent_of_hash_seed(self):
        # The projection seed must not follow Python's per-process string
        # hash salt, or the same check reports different errors per run.
        src = str(Path(fmcwhar.__file__).resolve().parents[1])
        code = ("from fmcwhar.nn.gradcheck import run_gradcheck\n"
                "print([r.max_rel_error for r in run_gradcheck('cbam')])")
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_attention_maps_open_interval(self):
        cbam = Cbam(5, rng=np.random.default_rng(10))
        x = channel_first(np.random.default_rng(11).standard_normal((2, 5, 8, 8))) * 3
        m_c = cbam.channel.forward(x)
        m_s = cbam.spatial.forward(m_c * x)
        for gate in (m_c, m_s):
            assert np.all(gate > 0) and np.all(gate < 1)


def _assert_matches_reference(cbam, x, dout, ref):
    got = cbam.forward(x, train=True), cbam.backward(dout)
    want = ref.forward(x, train=True), ref.backward(dout)
    for name, g, w in zip(("out", "dx"), got, want):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12, err_msg=name)
    for name, g in cbam.grads().items():
        np.testing.assert_allclose(g, ref.grads()[name], rtol=0, atol=1e-12, err_msg=name)


class TestCbamMatchesReference:
    """The fused gate against the pre-fusion ``Cbam`` in ``tests/oracles.py``."""

    @pytest.mark.parametrize("hw", [(1, 1), (2, 3), (13, 6), (32, 32)])
    @pytest.mark.parametrize("batch", [1, 8])
    @pytest.mark.parametrize("groups", [1, 2, 3])
    def test_matches(self, groups, batch, hw):
        rng = np.random.default_rng([groups, batch, *hw])
        channels = 5 * groups
        cbam = Cbam(channels, reduction=2, groups=groups, rng=rng)
        cbam.spatial.conv.b[...] = rng.standard_normal(groups)
        ref = CbamReference(channels, reduction=2, groups=groups).load(cbam)
        x = channel_first(rng.standard_normal((batch, channels, *hw)))
        dout = channel_first(rng.standard_normal((batch, channels, *hw)))
        _assert_matches_reference(cbam, x, dout, ref)

    def test_tied_channels(self):
        # A zero channel MLP gates every channel by 1/2, so the spatial
        # gate sees each group's channels tie everywhere.
        rng = np.random.default_rng(15)
        cbam = Cbam(12, reduction=2, groups=3, rng=rng)
        cbam.channel.w1[...] = 0.0
        ref = CbamReference(12, reduction=2, groups=3).load(cbam)
        x = np.broadcast_to(rng.standard_normal((4, 3, 1, 7, 9)), (4, 3, 4, 7, 9))
        x = channel_first(x.reshape(4, 12, 7, 9))
        dout = channel_first(rng.standard_normal((4, 12, 7, 9)))
        _assert_matches_reference(cbam, x, dout, ref)

