import numpy as np
import pytest

from fmcwhar.training import (
    AdamState,
    LabelOutOfRange,
    MetricsReport,
    TooFewSamples,
    TrainConfig,
    TrainingError,
    adam_step,
    cross_entropy,
    stratified_split,
)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        params = {"w": np.array([1.0, -2.0])}
        grads = {"w": np.zeros(2)}
        state = AdamState()
        adam_step(params, grads, state, t=1, lr=1e-3)
        np.testing.assert_array_equal(params["w"], [1.0, -2.0])
        np.testing.assert_array_equal(state.m["w"], np.zeros(2))

    def test_first_step_magnitude(self):
        # Bias correction makes the first step ~lr regardless of gradient scale.
        params = {"w": np.array([0.0])}
        grads = {"w": np.array([1.0])}
        adam_step(params, grads, AdamState(), t=1, lr=1e-3)
        assert params["w"][0] == pytest.approx(-1e-3, rel=1e-6)

    def test_moments_decay(self):
        params = {"w": np.array([0.0])}
        state = AdamState()
        adam_step(params, {"w": np.array([1.0])}, state, t=1, lr=0.0)
        m1 = state.m["w"][0]
        adam_step(params, {"w": np.array([0.0])}, state, t=2, lr=0.0)
        assert 0 < state.m["w"][0] < m1

    def test_lr_schedule(self):
        cfg = TrainConfig()
        assert cfg.lr_at_epoch(0) == pytest.approx(1e-3)
        assert cfg.lr_at_epoch(29) == pytest.approx(1e-3)
        assert cfg.lr_at_epoch(30) == pytest.approx(1e-4)
        assert cfg.lr_at_epoch(60) == pytest.approx(1e-5)

    def test_shape_mismatch(self):
        with pytest.raises(TrainingError):
            adam_step({"w": np.zeros(2)}, {"w": np.zeros(3)}, AdamState(), 1, 1e-3)

    def test_step_index_positive(self):
        with pytest.raises(TrainingError):
            adam_step({}, {}, AdamState(), t=0, lr=1e-3)


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
    assert TrainConfig.from_json(cfg.to_json()) == cfg


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


def test_dataset_save_load_round_trip(tmp_path):
    from fmcwhar import synth
    from fmcwhar.training import (
        TOY_RADAR_PARAMS, load_dataset, maps_for_echo, min_max_normalize, save_toy_dataset,
    )

    save_toy_dataset(tmp_path / "ds", samples_per_class=1, seed=4, map_size=32)
    x_rt, x_dt, x_rd, labels = load_dataset(tmp_path / "ds")
    assert x_rt.shape == (6, 1, 32, 32)
    np.testing.assert_array_equal(labels, np.arange(6))
    assert x_rt.min() >= 0.0 and x_rt.max() <= 1.0
    # The float32 map files reproduce the rendered maps to storage precision.
    for label, kind in enumerate(synth.ActivityKind):
        scene = synth.activity_template(kind, seed=4 * 1000 + label * 100)
        maps = maps_for_echo(synth.generate(scene, TOY_RADAR_PARAMS), 32)
        for loaded, spectro in zip((x_rt, x_dt, x_rd), maps):
            np.testing.assert_allclose(loaded[label, 0], min_max_normalize(spectro.values),
                                       atol=1e-6)
