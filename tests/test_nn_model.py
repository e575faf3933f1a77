import json

import numpy as np
import pytest

from fmcwhar.nn import MultiDomainModel, ShapeMismatch, load_checkpoint, save_checkpoint
from fmcwhar.nn.checkpoint import FORMAT_VERSION, CheckpointError
from fmcwhar.nn.config import preset

TOY = preset("toy")


def toy_inputs(batch=2, seed=0):
    rng = np.random.default_rng(seed)
    return tuple(rng.standard_normal((batch, 1, 32, 32)) for _ in range(3))


def test_forward_output_shape():
    model = MultiDomainModel(TOY, seed=1)
    logits = model.forward(*toy_inputs(), train=False)
    assert logits.shape == (2, 6)


def test_forward_deterministic():
    model = MultiDomainModel(TOY, seed=1)
    x = toy_inputs()
    a = model.forward(*x, train=False)
    b = model.forward(*x, train=False)
    np.testing.assert_array_equal(a, b)


def test_same_seed_same_weights():
    a = MultiDomainModel(TOY, seed=5)
    b = MultiDomainModel(TOY, seed=5)
    for name, p in a.params().items():
        np.testing.assert_array_equal(p, b.params()[name])
    c = MultiDomainModel(TOY, seed=6)
    assert any(
        not np.array_equal(p, c.params()[name]) for name, p in a.params().items()
    )


def test_backward_populates_all_grads():
    model = MultiDomainModel(TOY, seed=2)
    logits = model.forward(*toy_inputs(), train=True)
    model.zero_grads()
    model.backward(np.ones_like(logits))
    grads = model.grads()
    assert set(grads) == set(model.params())
    nonzero = sum(int(np.any(g != 0)) for g in grads.values())
    assert nonzero > 0.9 * len(grads)


def test_input_shape_validation():
    model = MultiDomainModel(TOY, seed=0)
    good = np.zeros((1, 1, 32, 32))
    with pytest.raises(ShapeMismatch):
        model.forward(good, good, np.zeros((1, 1, 16, 16)))
    with pytest.raises(ShapeMismatch):
        model.forward(np.zeros((1, 3, 32, 32)), good, good)


def test_branches_have_independent_weights():
    model = MultiDomainModel(TOY, seed=3)
    params = model.params()
    assert not np.array_equal(params["rt.backbone.stem_conv.w"],
                              params["dt.backbone.stem_conv.w"])


def test_branch_child_order():
    # Branches run their children in registration order; the names are
    # also the checkpoint's parameter prefixes.
    model = MultiDomainModel(preset("toy"), seed=0)
    assert [name for name, _ in model._children] == ["rt", "dt", "rd", "fusion"]
    for branch in ("rt", "dt"):
        children = getattr(model, branch)._children
        assert [name for name, _ in children] == ["backbone", "reshape", "lstm"]
    assert [name for name, _ in model.rd._children] == ["backbone", "reshape", "head"]


def test_checkpoint_round_trip(tmp_path):
    model = MultiDomainModel(TOY, seed=4)
    x = toy_inputs(seed=9)
    before = model.forward(*x, train=False)
    save_checkpoint(tmp_path / "ckpt", model, extra={"note": "round trip"})

    again = load_checkpoint(tmp_path / "ckpt")
    after = again.forward(*x, train=False)
    # Weights pass through float32 storage; outputs agree to that precision.
    np.testing.assert_allclose(after, before, rtol=1e-5, atol=1e-5)
    assert (tmp_path / "ckpt" / "manifest.json").exists()
    assert (tmp_path / "ckpt" / "params" / "fusion.linear.w.f32").exists()


def test_checkpoint_preserves_batchnorm_running_stats(tmp_path):
    model = MultiDomainModel(TOY, seed=4)
    x = toy_inputs(seed=10)
    # Train-mode passes move the running statistics away from their
    # defaults; a reloaded model must reproduce eval-mode outputs.
    for _ in range(3):
        model.forward(*x, train=True)
    stats = model.buffers()["rt.backbone.stem_bn.running_mean"]
    assert np.any(stats != 0.0)
    before = model.forward(*x, train=False)
    save_checkpoint(tmp_path / "ckpt", model)

    again = load_checkpoint(tmp_path / "ckpt")
    np.testing.assert_allclose(
        again.buffers()["rt.backbone.stem_bn.running_mean"], stats, rtol=1e-6
    )
    after = again.forward(*x, train=False)
    np.testing.assert_allclose(after, before, rtol=1e-4, atol=1e-5)


def test_checkpoint_rejects_wrong_version(tmp_path):
    model = MultiDomainModel(TOY, seed=0)
    save_checkpoint(tmp_path / "ckpt", model)
    manifest = (tmp_path / "ckpt" / "manifest.json")
    manifest.write_text(manifest.read_text().replace(
        f'"format_version": {FORMAT_VERSION}', '"format_version": 99'))
    with pytest.raises(ValueError):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_names_omitted_entries(tmp_path):
    save_checkpoint(tmp_path / "ckpt", MultiDomainModel(TOY, seed=0))
    path = tmp_path / "ckpt" / "manifest.json"
    manifest = json.loads(path.read_text())
    gone = {"rd.head.linear.b", "dt.backbone.stem_conv.w"}
    manifest["params"] = [e for e in manifest["params"] if e["name"] not in gone]
    path.write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError,
                       match=r"dt\.backbone\.stem_conv\.w, rd\.head\.linear\.b"):
        load_checkpoint(tmp_path / "ckpt")
