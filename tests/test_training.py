import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from oracles import TooFewSamples, _traced_peak, adam_reference, stratified_split

from fmcwhar.training import (
    ADAM_CHUNK,
    LabelOutOfRange,
    MetricsReport,
    TrainConfig,
    TrainingError,
    adam_step,
    cross_entropy,
)


def _moments(n):
    return np.zeros((2, n))


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        params, moments = np.array([1.0, -2.0]), _moments(2)
        adam_step(params, np.zeros(2), moments, t=1, lr=1e-3)
        np.testing.assert_array_equal(params, [1.0, -2.0])
        np.testing.assert_array_equal(moments[0], np.zeros(2))

    def test_first_step_magnitude(self):
        # Bias correction makes the first step ~lr regardless of gradient scale.
        params = np.array([0.0])
        adam_step(params, np.array([1.0]), _moments(1), t=1, lr=1e-3)
        assert params[0] == pytest.approx(-1e-3, rel=1e-6)

    def test_moments_decay(self):
        params, moments = np.array([0.0]), _moments(1)
        adam_step(params, np.array([1.0]), moments, t=1, lr=0.0)
        m1 = moments[0, 0]
        adam_step(params, np.array([0.0]), moments, t=2, lr=0.0)
        assert 0 < moments[0, 0] < m1

    def test_lr_schedule(self):
        cfg = TrainConfig()
        assert cfg.lr_at_epoch(0) == pytest.approx(1e-3)
        assert cfg.lr_at_epoch(29) == pytest.approx(1e-3)
        assert cfg.lr_at_epoch(30) == pytest.approx(1e-4)
        assert cfg.lr_at_epoch(60) == pytest.approx(1e-5)

    def test_shape_mismatch(self):
        with pytest.raises(TrainingError):
            adam_step(np.zeros(2), np.zeros(3), _moments(2), 1, 1e-3)
        with pytest.raises(TrainingError, match="flat vector"):
            adam_step(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2, 2)), 1, 1e-3)

    def test_step_index_positive(self):
        with pytest.raises(TrainingError):
            adam_step(np.zeros(0), np.zeros(0), _moments(0), t=0, lr=1e-3)

    def test_state_is_bound_to_one_parameter_set(self):
        # Moments sized for another parameter vector are refused.
        moments = _moments(2)
        adam_step(np.zeros(2), np.ones(2), moments, 1, 1e-3)
        with pytest.raises(TrainingError):
            adam_step(np.zeros(3), np.ones(3), moments, 2, 1e-3)

    def test_bit_identical_to_unfused_form(self):
        rng = np.random.default_rng(11)
        params = rng.standard_normal(15)
        moments = _moments(15)
        p, m, v = params.copy(), np.zeros(15), np.zeros(15)
        for t in range(1, 4):
            grads = rng.standard_normal(15) * 10.0 ** -t
            adam_step(params, grads, moments, t, lr=3e-3)
            p, m, v = adam_reference(p, grads, m, v, t, lr=3e-3)
            np.testing.assert_array_equal(params, p)
            np.testing.assert_array_equal(moments[0], m)
            np.testing.assert_array_equal(moments[1], v)

    # One element, a chunk less one, one chunk, and a ragged tail after three.
    @pytest.mark.parametrize("n", [1, ADAM_CHUNK - 1, ADAM_CHUNK, 3 * ADAM_CHUNK + 7])
    def test_chunked_step_is_bit_identical_to_the_whole_vector_step(self, n):
        rng = np.random.default_rng(n)
        params = rng.standard_normal(n)
        moments = _moments(n)
        p, m, v = params.copy(), np.zeros(n), np.zeros(n)
        for t in range(1, 6):
            grads = rng.standard_normal(n) * 10.0 ** -t
            adam_step(params, grads, moments, t, lr=3e-3)
            p, m, v = adam_reference(p, grads, m, v, t, lr=3e-3)
        for got, want in ((params, p), (moments[0], m), (moments[1], v)):
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_step_allocates_two_chunks(self):
        # The whole-vector expression allocates three vectors' worth of
        # temporaries (24 MB here); the chunked step two chunk buffers.
        n = 10**6
        moments = _moments(n)
        _, peak = _traced_peak(adam_step, np.zeros(n), np.ones(n), moments, 1, 1e-3)
        assert peak <= 2 * ADAM_CHUNK * 8 + 16 * 1024, peak


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = cross_entropy(np.zeros((3, 6)), np.array([0, 3, 5]))
        assert loss == pytest.approx(np.log(6.0), rel=1e-12)

    def test_saturated_correct_logit(self):
        logits = np.zeros((1, 6))
        logits[0, 2] = 60.0
        loss, _ = cross_entropy(logits, np.array([2]))
        assert loss < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((4, 6))
        labels = np.array([1, 0, 5, 3])
        _, grad = cross_entropy(logits, labels)
        eps = 1e-7
        for i in range(4):
            for j in range(6):
                bumped = logits.copy()
                bumped[i, j] += eps
                up, _ = cross_entropy(bumped, labels)
                bumped[i, j] -= 2 * eps
                down, _ = cross_entropy(bumped, labels)
                assert grad[i, j] == pytest.approx((up - down) / (2 * eps), abs=1e-6)

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(1)
        _, grad = cross_entropy(rng.standard_normal((5, 6)), np.arange(5))
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            cross_entropy(np.zeros((2, 6)), np.array([0, 6]))
        with pytest.raises(LabelOutOfRange):
            cross_entropy(np.zeros((2, 6)), np.array([-1, 0]))


class TestStratifiedSplit:
    def test_exact_proportions(self):
        labels = np.repeat([0, 1, 2], 10)
        train, val, test = stratified_split(labels, (0.6, 0.2, 0.2), seed=0)
        for cls in range(3):
            assert np.sum(labels[train] == cls) == 6
            assert np.sum(labels[val] == cls) == 2
            assert np.sum(labels[test] == cls) == 2

    def test_deterministic(self):
        labels = np.repeat(np.arange(4), 8)
        a = stratified_split(labels, seed=42)
        b = stratified_split(labels, seed=42)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        c = stratified_split(labels, seed=43)
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_disjoint_and_exhaustive(self):
        labels = np.repeat(np.arange(6), 7)
        train, val, test = stratified_split(labels, seed=3)
        all_idx = np.concatenate([train, val, test])
        assert len(set(all_idx)) == len(all_idx) == len(labels)
        np.testing.assert_array_equal(np.sort(all_idx), np.arange(len(labels)))

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            stratified_split(np.array([0, 0, 0, 0, 1, 1, 1, 1, 1]), seed=0)


class TestMetrics:
    def test_perfect_predictor(self):
        labels = np.repeat(np.arange(6), 4)
        report = MetricsReport.from_predictions(labels, labels, 6)
        assert report.overall_accuracy == 1.0
        np.testing.assert_array_equal(report.per_class_accuracy, np.ones(6))
        np.testing.assert_array_equal(report.confusion, np.eye(6, dtype=int) * 4)

    def test_constant_predictor_on_balanced_set(self):
        labels = np.repeat(np.arange(6), 5)
        predicted = np.zeros(30, dtype=int)
        report = MetricsReport.from_predictions(labels, predicted, 6)
        assert report.overall_accuracy == pytest.approx(1 / 6)

    def test_row_sums_count_ground_truth(self):
        labels = np.repeat(np.arange(3), 5)
        rng = np.random.default_rng(0)
        for _ in range(3):
            predicted = rng.integers(0, 3, size=15)
            report = MetricsReport.from_predictions(labels, predicted, 3)
            np.testing.assert_array_equal(report.confusion.sum(axis=1), [5, 5, 5])
            assert report.overall_accuracy == pytest.approx(
                np.trace(report.confusion) / 15
            )

    @pytest.mark.parametrize("labels", [[-1, 0], [0, 6]], ids=["negative", "past_last"])
    def test_label_out_of_range(self, labels):
        with pytest.raises(LabelOutOfRange):
            MetricsReport.from_predictions(np.array(labels), np.array([0, 0]), 6)

    def test_csv_output(self, tmp_path):
        labels = np.repeat(np.arange(2), 3)
        report = MetricsReport.from_predictions(labels, labels, 2)
        report.write_csv(tmp_path / "m.csv", tmp_path / "c.csv")
        lines = (tmp_path / "m.csv").read_text().strip().splitlines()
        assert lines[0] == "class,accuracy"
        assert lines[-1] == "overall,1.000000"
        assert (tmp_path / "c.csv").read_text().startswith(",pred_0,pred_1")


def test_train_config_json_round_trip():
    cfg = TrainConfig(epochs=12, seed=9, batch_size=4)
    assert TrainConfig(**json.loads(json.dumps(asdict(cfg)))) == cfg


@pytest.mark.parametrize("settings", [
    {"decay_factor": -2.0},
    {"decay_factor": 0.0},
    {"decay_factor": math.inf},
    {"lr0": math.nan},
    {"lr0": -math.inf},
    {"lr0": 0.0},
], ids=["negative_decay", "zero_decay", "infinite_decay", "nan_lr", "minus_inf_lr",
        "zero_lr"])
def test_train_config_rejects_bad_learning_rates(settings):
    with pytest.raises(TrainingError):
        TrainConfig(**settings)
    # JSON has no NaN or Infinity, but Python's json module reads both.
    with pytest.raises(TrainingError):
        TrainConfig(**json.loads(json.dumps(settings)))


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """(model, dataset, history) of one 22-epoch toy training run.

    The dataset goes through its float32 map files, as in ``train-toy``.
    """
    from fmcwhar.nn import MultiDomainModel
    from fmcwhar.nn.config import preset
    from fmcwhar.training import load_dataset, save_toy_dataset, train

    cfg = TrainConfig(epochs=22, seed=2, samples_per_class=5, map_size=32)
    dataset = load_dataset(save_toy_dataset(tmp_path_factory.mktemp("toy"),
                                            cfg.samples_per_class, cfg.seed, cfg.map_size))
    model = MultiDomainModel(preset("toy", in_channels=1), seed=2)
    return model, dataset, train(model, dataset, cfg)


@pytest.fixture(scope="module")
def history(trained):
    return trained[2]


class TestToyTrainingLoop:
    def test_loss_decreases_with_three_epoch_tolerance(self, history):
        # Monotone trend over the first 20 epochs: no epoch is worse than
        # the worst of the three before it.
        losses = [rec.loss for rec in history[:20]]
        for e in range(3, len(losses)):
            window_max = max(losses[e - 3: e])
            assert losses[e] < window_max, \
                f"epoch {e}: loss {losses[e]:.4f} >= window max {window_max:.4f}"
        assert losses[-1] < losses[0]

    def test_accuracy_improves(self, history):
        assert history[-1].accuracy > history[0].accuracy
        assert history[-1].accuracy >= 0.8

    def test_lr_recorded(self, history):
        assert all(rec.lr == pytest.approx(1e-3) for rec in history)


def test_train_matches_a_loop_that_walks_the_model_each_step():
    # train() zeroes the flat gradient vector with one fill; a loop that
    # walks the layer tree to zero each gradient gives the same model.
    from fmcwhar import synth
    from fmcwhar.nn import MultiDomainModel
    from fmcwhar.nn.config import preset
    from fmcwhar.training import cross_entropy, train

    rng = np.random.default_rng(8)
    dataset = tuple(rng.random((6, 1, 16, 16)) for _ in range(3)) + (
        np.arange(6) % 6,)
    cfg = TrainConfig(epochs=2, batch_size=4, seed=3)
    model_cfg = preset("toy", input_hw=16, in_channels=1)
    trained = MultiDomainModel(model_cfg, seed=3)
    history = train(trained, dataset, cfg)

    walked = MultiDomainModel(model_cfg, seed=3)
    order_rng = synth.seeded_rng(cfg.seed, stream=1)
    moments, t = np.zeros((2, walked.param_vector.size)), 0
    for epoch in range(cfg.epochs):
        order = order_rng.permutation(6)
        for start in range(0, 6, cfg.batch_size):
            idx = order[start: start + cfg.batch_size]
            logits = walked.forward(*(x[idx] for x in dataset[:3]), train=True)
            _, dlogits = cross_entropy(logits, dataset[3][idx])
            walked.zero_grads()
            walked.backward(dlogits)
            t += 1
            adam_step(walked.param_vector, walked.grad_vector, moments, t,
                      cfg.lr_at_epoch(epoch))
    assert len(history) == 2
    for name, value in trained.params().items():
        np.testing.assert_array_equal(value, walked.params()[name], err_msg=name)
    for name, value in trained.buffers().items():
        np.testing.assert_array_equal(value, walked.buffers()[name], err_msg=name)


def test_predict_matches_forward_on_the_trained_model(trained):
    from oracles import layer_attributes

    from fmcwhar.nn import MultiDomainModel
    from fmcwhar.nn.config import preset

    model, dataset, _ = trained
    x = dataset[:3]
    logits = model.predict(*x)
    # predict leaves no cache, whatever ran on the model before it.
    assert layer_attributes(model) == layer_attributes(
        MultiDomainModel(preset("toy", in_channels=1), seed=2))
    assert logits.tobytes() == model.forward(*x, train=False).tobytes()


def test_checkpoint_logit_tolerance(trained, tmp_path):
    # Checkpoints store float32 and the model runs in float64, so a
    # reloaded model is close to the trained one but not identical. On
    # this model the largest logit moves by 2.4e-7 of the largest logit
    # magnitude; the worst of 29 toy models measured was 7.3e-7.
    from fmcwhar.nn import load_checkpoint, save_checkpoint

    model, dataset, _ = trained
    x = dataset[:3]
    before = model.forward(*x, train=False)
    save_checkpoint(tmp_path / "ckpt", model)
    after = load_checkpoint(tmp_path / "ckpt").forward(*x, train=False)
    moved = np.abs(after - before).max()
    assert 0.0 < moved < 1e-6 * np.abs(before).max()
    np.testing.assert_array_equal(after.argmax(axis=1), before.argmax(axis=1))


def test_dataset_labels_must_be_integers(tmp_path):
    from fmcwhar.training import load_dataset, save_toy_dataset

    save_toy_dataset(tmp_path / "ds", samples_per_class=1, seed=4, map_size=8)
    index_path = tmp_path / "ds" / "index.json"
    index = json.loads(index_path.read_text())
    for bad in (1.5, True, "1"):
        index["labels"][1] = bad
        index_path.write_text(json.dumps(index))
        with pytest.raises(LabelOutOfRange, match="not an integer"):
            load_dataset(tmp_path / "ds")


def _toy_maps(seed, map_size):
    """Each sample's rt/dt/rd maps, rendered in memory in dataset order."""
    from fmcwhar import synth
    from fmcwhar.training import TOY_RADAR_PARAMS, maps_for_echo

    return [maps_for_echo(synth.generate(
                synth.activity_template(kind, seed=seed * 1000 + label * 100),
                TOY_RADAR_PARAMS), map_size)
            for label, kind in enumerate(synth.ActivityKind)]


def test_dataset_save_load_round_trip(tmp_path):
    from fmcwhar.training import load_dataset, min_max_normalize, save_toy_dataset

    save_toy_dataset(tmp_path / "ds", samples_per_class=1, seed=4, map_size=32)
    x_rt, x_dt, x_rd, labels = load_dataset(tmp_path / "ds")
    assert x_rt.shape == (6, 1, 32, 32)
    np.testing.assert_array_equal(labels, np.arange(6))
    assert x_rt.min() >= 0.0 and x_rt.max() <= 1.0
    # Each loaded map is the normalized float32 rounding of the rendered map.
    for label, maps in enumerate(_toy_maps(4, 32)):
        for loaded, spectro in zip((x_rt, x_dt, x_rd), maps):
            stored = spectro.values.astype(np.float32).astype(np.float64)
            assert loaded[label, 0].tobytes() == min_max_normalize(stored).tobytes()


def test_dataset_blobs_follow_the_index(tmp_path):
    from fmcwhar.training import DOMAIN_KEYS, save_toy_dataset

    out = save_toy_dataset(tmp_path / "ds", samples_per_class=1, seed=4, map_size=16)
    assert sorted(p.name for p in out.iterdir()) == ["dt.f32", "index.json", "rd.f32",
                                                     "rt.f32"]
    assert json.loads((out / "index.json").read_text()) == {
        "map_size": 16, "seed": 4, "labels": list(range(6))}
    samples = _toy_maps(4, 16)
    for i, key in enumerate(DOMAIN_KEYS):
        expected = b"".join(maps[i].values.astype("<f4").tobytes() for maps in samples)
        assert (out / f"{key}.f32").read_bytes() == expected, key


# Peak traced bytes of the render chain, as multiples of one toy echo's
# bytes. Measured: 4.05 and 4.58 while the echo lived beside the maps'
# working set; 2.73 and 2.73 with the echo freed after the range FFT.
MAPS_FOR_ECHO_PEAK_RATIO = 3.0
TOY_DATASET_PEAK_RATIO = 3.0


def _toy_echo_bytes():
    from fmcwhar import synth
    from fmcwhar.training import TOY_RADAR_PARAMS

    n_chirps = synth.activity_template("walk", seed=3).n_chirps(TOY_RADAR_PARAMS)
    return n_chirps * TOY_RADAR_PARAMS.samples_per_chirp * np.dtype(complex).itemsize


def test_maps_for_echo_peak_memory():
    from fmcwhar import synth
    from fmcwhar.training import TOY_RADAR_PARAMS, maps_for_echo

    scene = synth.activity_template("walk", seed=3)
    _, peak = _traced_peak(
        lambda: maps_for_echo(synth.generate(scene, TOY_RADAR_PARAMS), 64))
    assert peak <= MAPS_FOR_ECHO_PEAK_RATIO * _toy_echo_bytes(), peak / _toy_echo_bytes()


def test_toy_dataset_peak_memory(tmp_path):
    from fmcwhar.training import save_toy_dataset

    _, peak = _traced_peak(save_toy_dataset, tmp_path / "ds", 1, 5, 64)
    assert peak <= TOY_DATASET_PEAK_RATIO * _toy_echo_bytes(), peak / _toy_echo_bytes()
