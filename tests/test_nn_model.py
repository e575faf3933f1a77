import json
import tracemalloc

import numpy as np
import pytest
from oracles import _traced_peak, layer_attributes, per_branch_backward, per_branch_forward

from fmcwhar import nn
from fmcwhar.nn import (
    BatchNorm2d,
    Conv2d,
    MultiDomainModel,
    NoForwardCache,
    ShapeMismatch,
    SpatialAttention,
    load_checkpoint,
    save_checkpoint,
)
from fmcwhar.nn.checkpoint import FORMAT_VERSION, CheckpointError
from fmcwhar.nn.config import preset
from fmcwhar.nn.model import BRANCHES
from fmcwhar.training import TrainConfig, adam_step, cross_entropy, train

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
    # Nothing reads the gradient of the input maps, so none is returned.
    assert model.backward(np.ones_like(logits)) is None
    grads = model.grads()
    assert set(grads) == set(model.params())
    nonzero = sum(int(np.any(g != 0)) for g in grads.values())
    assert nonzero > 0.9 * len(grads)


def test_predict_is_forward_without_caches():
    model = MultiDomainModel(TOY, seed=1)
    built = layer_attributes(model)
    x = toy_inputs(batch=3, seed=5)
    logits = model.predict(*x)
    assert layer_attributes(model) == built
    assert logits.tobytes() == model.forward(*x, train=False).tobytes()
    # forward still caches after a predict; the next predict drops those
    # caches, and no backward can follow it.
    assert layer_attributes(model) != built
    model.predict(*x)
    assert layer_attributes(model) == built
    with pytest.raises(NoForwardCache):
        model.backward(np.ones_like(logits))


def test_training_epoch_leaves_no_cache():
    rng = np.random.default_rng(8)
    dataset = tuple(rng.random((6, 1, 16, 16)) for _ in range(3)) + (np.arange(6) % 6,)
    model = MultiDomainModel(preset("toy", input_hw=16, in_channels=1), seed=3)
    built = layer_attributes(model)
    train(model, dataset, TrainConfig(epochs=1, batch_size=4, seed=3))
    assert layer_attributes(model) == built
    with pytest.raises(NoForwardCache):
        model.backward(np.zeros((4, 6)))


# The backward of a toy B = 8 training step may add at most this fraction
# on top of what the forward leaves held (tracemalloc). Measured: 1.30
# while every cache lived until the next forward, 1.01 with each backward
# consuming its layer's cache.
STEP_PEAK_RATIO = 1.10


def test_train_step_backward_peak_stays_near_the_forward_cache():
    model = MultiDomainModel(preset("toy", input_hw=64, in_channels=1), seed=0)
    x = tuple(np.random.default_rng(0).random((8, 1, 64, 64)) for _ in range(3))

    def step():
        logits = model.forward(*x, train=True)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _, dlogits = cross_entropy(logits, np.arange(8) % 6)
        model.backward(dlogits)
        return held

    held, peak = _traced_peak(step)
    assert peak <= STEP_PEAK_RATIO * held, peak / held


# What a toy B = 8, 64 px training forward leaves held (tracemalloc), in
# MiB. Measured: 19.71 while each Swish kept its sigmoid, 15.44 with the
# Swish fused into its batch norm, which recomputes the sigmoid.
FORWARD_HELD_MIB = 16.5


def test_train_forward_cache_stays_under_its_bound():
    model = MultiDomainModel(preset("toy", input_hw=64, in_channels=1), seed=0)
    x = tuple(np.random.default_rng(0).random((8, 1, 64, 64)) for _ in range(3))

    def forward():
        model.forward(*x, train=True)
        return tracemalloc.get_traced_memory()[0]

    held, _ = _traced_peak(forward)
    assert held <= FORWARD_HELD_MIB * 2**20, held / 2**20


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


def test_every_exported_layer_is_built():
    # A layer class that the network never builds is code nothing needs;
    # this keeps one from coming back.
    built = {type(layer) for _, layer in MultiDomainModel(TOY, seed=0)._layers()}
    exported = {getattr(nn, name) for name in nn.__all__}
    unused = [cls.__name__ for cls in exported
              if isinstance(cls, type) and issubclass(cls, nn.Layer) and cls not in built]
    assert sorted(unused) == []


def test_one_backbone_pass_per_forward(monkeypatch):
    # The three branch backbones run as one grouped pass: each conv, batch
    # norm and spatial gate of one backbone runs once per forward, not
    # three times.
    model = MultiDomainModel(TOY, seed=0)
    layers = [layer for _, layer in model.rt.backbone._layers()]
    per_backbone = {cls: sum(isinstance(layer, cls) for layer in layers)
                    for cls in (Conv2d, BatchNorm2d, SpatialAttention)}
    calls = dict.fromkeys(per_backbone, 0)
    for cls in per_backbone:
        def counted(self, x, train=False, _cls=cls, _forward=cls.forward):
            calls[_cls] += 1
            return _forward(self, x, train)
        monkeypatch.setattr(cls, "forward", counted)
    model.forward(*toy_inputs(), train=True)
    assert calls == per_backbone


@pytest.mark.parametrize("batch,train", [(8, True), (1, False)])
def test_backbone_layers_pass_c_contiguous_channel_major_maps(batch, train):
    # The layout invariant of the grouped pass: every backbone layer, in
    # both directions, hands on a C-contiguous (C, B, H, W) array, so a
    # branch is a block of rows and reduces as if it ran alone. Batch 8
    # is a training step, batch 1 the classify path.
    model = MultiDomainModel(TOY, seed=0)
    seen = []
    for name, layer in model._backbone._layers():
        for direction in ("forward", "backward"):
            def recorded(*args, _run=getattr(layer, direction), _key=(name, direction), **kw):
                out = _run(*args, **kw)
                seen.append((_key, out))
                return out
            setattr(layer, direction, recorded)
    logits = model.forward(*toy_inputs(batch), train=train)
    model.backward(np.ones_like(logits))
    # Every layer ran both ways but the spatial gates' convs, which only
    # hold weights.
    run = [name for name, _ in model._backbone._layers() if not name.endswith("spatial.conv.")]
    assert {key for key, _ in seen} == {(name, d) for name in run
                                        for d in ("forward", "backward")}
    bad = [key for key, out in seen if out is not None and not (
        out.ndim == 4 and out.shape[1] == batch and out.flags.c_contiguous)]
    assert bad == []
    # The stem conv skips the gradient of the input maps, and so the
    # backbone returns none.
    none = [key for key, out in seen if out is None]
    assert none == [("stem_conv.", "backward"), ("", "backward")]


def _assert_flat_storage(model):
    """Every parameter, gradient and buffer is a view into its kind's flat
    vector; together they tile it, and each grouped backbone array is one
    block of it whose rows are the branch arrays."""
    def offset(a, flat):
        return (a.ctypes.data - flat.ctypes.data) // flat.itemsize

    kinds = ((model.params(), model.param_vector), (model.grads(), model.grad_vector),
             (model.buffers(), model.buffer_vector))
    for arrays, flat in kinds:
        assert all(a.base is flat and a.flags.c_contiguous for a in arrays.values())
        spans = sorted((offset(a, flat), a.size) for a in arrays.values())
        ends = [0] + [start + size for start, size in spans]
        assert [start for start, _ in spans] == ends[:-1]
        assert ends[-1] == flat.size
    branches = [getattr(model, name).backbone._layers() for name in BRANCHES]
    for (_, layer), *parts in zip(model._backbone._layers(), *branches):
        for names, flat in ((layer._param_names, model.param_vector),
                            (["g_" + n for n in layer._param_names], model.grad_vector),
                            (layer._buffer_names, model.buffer_vector)):
            for name in names:
                block = getattr(layer, name)
                assert block.base is flat and block.flags.c_contiguous
                rows = block.size // len(parts)
                assert [offset(getattr(part, name), flat) for _, part in parts] == [
                    offset(block, flat) + i * rows for i in range(len(parts))]


def test_assign_reaches_the_grouped_pass(tmp_path):
    # Branch parameters are views into the grouped backbone's arrays, and
    # all of them into the flat parameter vector, so a value written
    # through the registry or the vector is what the next forward uses.
    model = MultiDomainModel(TOY, seed=0)
    _assert_flat_storage(model)
    x = toy_inputs(seed=3)
    before = model.forward(*x)
    w = model.params()["dt.backbone.stage2_block0.expand_conv.w"]
    w[...] = w[::-1] * 2.0
    after = model.forward(*x)
    assert not np.array_equal(after, before)
    np.testing.assert_array_equal(after, per_branch_forward(model, x, train=False))
    model.param_vector *= 0.5
    halved = model.forward(*x)
    assert not np.array_equal(halved, after)
    np.testing.assert_array_equal(halved, per_branch_forward(model, x, train=False))
    save_checkpoint(tmp_path / "ckpt", model)
    _assert_flat_storage(load_checkpoint(tmp_path / "ckpt"))


def _step(model, x, labels, forward, backward):
    """Forward, backward and one Adam step; every array the step touched.

    The model's backward leaves the gradient of the input maps out, so
    the reference's input gradient is not compared.
    """
    logits = forward(x)
    _, dlogits = cross_entropy(logits, labels)
    model.zero_grads()
    backward(dlogits)
    grads = {k: g.copy() for k, g in model.grads().items()}
    moments = np.zeros((2, model.param_vector.size))
    adam_step(model.param_vector, model.grad_vector, moments, 1, 1e-3)
    return {"logits": logits, **{"grad " + k: g for k, g in grads.items()},
            **{"param " + k: p for k, p in model.params().items()},
            **{"buffer " + k: b for k, b in model.buffers().items()}}


@pytest.mark.parametrize("batch", [8, 3])
def test_grouped_pass_matches_per_branch_reference(batch):
    cfg = preset("toy", input_hw=64, in_channels=1)
    rng = np.random.default_rng(21)
    x = tuple(rng.random((batch, 1, 64, 64)) for _ in range(3))
    labels = rng.integers(0, cfg.num_classes, batch)
    grouped, alone = MultiDomainModel(cfg, seed=4), MultiDomainModel(cfg, seed=4)
    got = _step(grouped, x, labels, lambda x: grouped.forward(*x, train=True), grouped.backward)
    want = _step(alone, x, labels, lambda x: per_branch_forward(alone, x, train=True),
                 lambda d: per_branch_backward(alone, d))
    assert got.keys() == want.keys()
    # Bit for bit, sign of zero included.
    differ = [k for k in got if np.asarray(got[k]).tobytes() != np.asarray(want[k]).tobytes()]
    assert differ == []


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
    assert sorted(p.name for p in (tmp_path / "ckpt").iterdir()) == [
        "buffers.f32", "manifest.json", "params.f32"]


def test_checkpoint_blobs_follow_the_manifest(tmp_path):
    model = MultiDomainModel(TOY, seed=4)
    model.forward(*toy_inputs(seed=9), train=True)  # running stats leave their defaults
    save_checkpoint(tmp_path / "ckpt", model)
    manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
    for section, arrays in (("params", model.params()), ("buffers", model.buffers())):
        want = b"".join(arrays[e["name"]].astype("<f4").tobytes() for e in manifest[section])
        assert (tmp_path / "ckpt" / f"{section}.f32").read_bytes() == want


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
