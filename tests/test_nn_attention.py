import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import fmcwhar
from fmcwhar.nn import Cbam, ChannelAttention, SpatialAttention
from fmcwhar.nn.gradcheck import run_gradcheck


class TestChannelAttention:
    def test_zero_weights_give_half(self):
        attn = ChannelAttention(8)
        attn.w1[...] = 0.0
        attn.w2[...] = 0.0
        x = np.random.default_rng(0).standard_normal((2, 8, 4, 4))
        gate = attn.forward(x)
        assert gate.shape == (2, 8, 1, 1)
        np.testing.assert_allclose(gate, 0.5, atol=0)

    def test_constant_map_doubles_mlp(self):
        # Spatially constant input: avg pool equals max pool, so the gate
        # is sigmoid(2 * MLP(v)).
        attn = ChannelAttention(4, reduction=2, rng=np.random.default_rng(1))
        v = np.array([0.3, -1.2, 0.8, 2.0])
        x = np.broadcast_to(v[None, :, None, None], (1, 4, 5, 5)).copy()
        gate = attn.forward(x)
        mlp_out, _ = attn._mlp(v[None])
        expected = 1.0 / (1.0 + np.exp(-2.0 * mlp_out))
        np.testing.assert_allclose(gate[0, :, 0, 0], expected[0], atol=1e-12)

    def test_hidden_width_floor(self):
        attn = ChannelAttention(8, reduction=16)
        assert attn.hidden == 1
        attn = ChannelAttention(33, reduction=16)
        assert attn.hidden == 3  # ceil(33/16)

    def test_gate_range(self):
        attn = ChannelAttention(6, rng=np.random.default_rng(2))
        x = np.random.default_rng(3).standard_normal((3, 6, 7, 7)) * 5
        gate = attn.forward(x)
        assert np.all(gate > 0) and np.all(gate < 1)


class TestSpatialAttention:
    def test_zero_conv_gives_half(self):
        attn = SpatialAttention()
        attn.conv.w[...] = 0.0
        attn.conv.b[...] = 0.0
        x = np.random.default_rng(4).standard_normal((2, 5, 9, 9))
        gate = attn.forward(x)
        assert gate.shape == (2, 1, 9, 9)
        np.testing.assert_allclose(gate, 0.5, atol=0)

    def test_channel_constant_input_pools_equal(self):
        x = np.broadcast_to(
            np.random.default_rng(5).standard_normal((1, 1, 6, 6)), (1, 4, 6, 6)
        ).copy()
        from fmcwhar.nn.layers import channel_avg_pool, channel_max_pool

        avg = channel_avg_pool(x)
        mx, _ = channel_max_pool(x)
        np.testing.assert_allclose(avg, mx, atol=1e-12)

    def test_spatial_size_preserved(self):
        attn = SpatialAttention(rng=np.random.default_rng(6))
        for h, w in ((7, 7), (14, 10), (1, 1)):
            gate = attn.forward(np.random.default_rng(7).standard_normal((1, 3, h, w)))
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
        x = np.abs(np.random.default_rng(8).standard_normal((2, 4, 5, 5))) + 0.5
        out = cbam.forward(x)
        np.testing.assert_allclose(out, x, rtol=1e-6)

    def test_zero_weights_quarter_scaling(self):
        cbam = Cbam(4, reduction=2)
        for p in cbam.params().values():
            p[...] = 0.0
        x = np.random.default_rng(9).standard_normal((2, 4, 6, 6))
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
        x = np.random.default_rng(11).standard_normal((2, 5, 8, 8)) * 3
        cbam.forward(x)
        _, m_c, _, m_s = cbam._cache
        for gate in (m_c, m_s):
            assert np.all(gate > 0) and np.all(gate < 1)

