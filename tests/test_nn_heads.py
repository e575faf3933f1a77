import numpy as np
import pytest

from fmcwhar.nn import FusionClassifier, RdHead, SequenceReshape, ShapeMismatch
from fmcwhar.nn.gradcheck import run_gradcheck


class TestSequenceReshape:
    def test_hxc_dimensions(self):
        x = np.random.default_rng(0).standard_normal((2, 1280, 7, 7)).transpose(1, 0, 2, 3)
        seq = SequenceReshape().forward(x)
        assert seq.shape == (2, 7, 8960)

    def test_hxc_ordering_h_major(self):
        # Step t carries column t; within a step, features run h-major,
        # c-minor: D index = h * C + c.
        b, c, h, w = 1, 3, 2, 4
        x = np.arange(b * c * h * w, dtype=float).reshape(b, c, h, w)
        seq = SequenceReshape().forward(x.transpose(1, 0, 2, 3))
        for t in range(w):
            for hh in range(h):
                for cc in range(c):
                    assert seq[0, t, hh * c + cc] == x[0, cc, hh, t]


class TestRdHead:
    def test_dominant_step_selected(self):
        head = RdHead(4, 3, rng=np.random.default_rng(4))
        head.linear.w[...] = np.abs(head.linear.w) + 0.1
        x = np.random.default_rng(5).standard_normal((2, 6, 4)) * 0.01
        x[:, 2] = 100.0  # positive weights: this step dominates every output
        out = head.forward(x)
        per_step = head.linear.forward(x)
        np.testing.assert_allclose(out, per_step[:, 2], atol=1e-12)

    def test_parameter_count(self):
        head = RdHead(8960, 128)
        assert sum(p.size for p in head.params().values()) == 8960 * 128 + 128

    def test_tie_gradient_goes_to_lowest_time_index(self):
        head = RdHead(2, 1)
        head.linear.w[...] = np.array([[1.0, 0.0]])
        head.linear.b[...] = 0.0
        x = np.zeros((1, 3, 2))
        x[0, :, 0] = 1.0  # all steps tie at the maximum
        head.forward(x)
        dx = head.backward(np.ones((1, 1)))
        assert dx[0, 0, 0] == 1.0
        np.testing.assert_array_equal(dx[0, 1:], 0.0)


class TestFusion:
    def test_eval_mode_dropout_identity(self):
        fusion = FusionClassifier(4, 6, rng=np.random.default_rng(6))
        f = np.random.default_rng(7).standard_normal((3, 4))
        a = fusion.forward(f, f, f, train=False)
        b = fusion.forward(f, f, f, train=False)
        np.testing.assert_array_equal(a, b)

    def test_zero_inputs_give_bias(self):
        fusion = FusionClassifier(128, 6)
        fusion.linear.b[...] = np.arange(6, dtype=float)
        z = np.zeros((2, 128))
        out = fusion.forward(z, z, z, train=False)
        np.testing.assert_array_equal(out, np.tile(np.arange(6.0), (2, 1)))

    def test_parameter_count_384_to_6(self):
        fusion = FusionClassifier(128, 6)
        assert sum(p.size for p in fusion.params().values()) == 384 * 6 + 6 == 2310

    def test_concatenation_order(self):
        fusion = FusionClassifier(2, 3)
        fusion.linear.w[...] = 0.0
        fusion.linear.b[...] = 0.0
        fusion.linear.w[0, 0] = 1.0  # reads rt[0]
        fusion.linear.w[1, 2] = 1.0  # reads dt[0]
        fusion.linear.w[2, 4] = 1.0  # reads rd[0]
        rt = np.array([[1.0, 0.0]])
        dt = np.array([[2.0, 0.0]])
        rd = np.array([[3.0, 0.0]])
        np.testing.assert_array_equal(fusion.forward(rt, dt, rd), [[1.0, 2.0, 3.0]])

    def test_branch_width_checked(self):
        fusion = FusionClassifier(8, 6)
        good = np.zeros((1, 8))
        with pytest.raises(ShapeMismatch):
            fusion.forward(good, good, np.zeros((1, 4)))

    def test_gradients(self):
        for r in run_gradcheck("heads"):
            assert r.passed, f"{r.name}: {r.max_rel_error:.3e}"
