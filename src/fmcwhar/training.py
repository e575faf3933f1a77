"""Training loop, optimizer and classification metrics.

Optimization is Adam (beta1 0.9, beta2 0.999, eps 1e-8) with the step
schedule lr = lr0 * decay^floor(epoch / decay_every). The toy pipeline
renders stylized activity scenes into the three map domains, resizes
them to 64 x 64, min-max normalizes each map to [0, 1], and overfits
the small network preset on them; it exists to prove the whole chain
end to end, not to reproduce full-scale accuracy.

A dataset directory holds ``index.json``, ``{"map_size": S, "seed":
seed, "labels": [...]}`` with one label per sample in render order,
and one blob per domain, ``rt.f32``, ``dt.f32`` and ``rd.f32``: the N
S x S maps of that domain end to end in sample order, little-endian
float32, row-major.
"""

from __future__ import annotations

import csv
import json
from contextlib import ExitStack
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import domain_maps as dm
from . import synth
from .nn import MultiDomainModel
from .nn.model import BRANCHES
from .nn.config import preset
from .radar_io import RadarParams, check_field_types, read_f32, read_json_object, write_f32

TOY_RADAR_PARAMS = RadarParams(5.8e9, 1e-3, 128, 4e8)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Elements per step of ``adam_step``'s loop: its two buffers are 256 KiB each.
ADAM_CHUNK = 32_768


class TrainingError(ValueError):
    pass


class LabelOutOfRange(TrainingError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    lr0: float = 1e-3
    decay_factor: float = 0.1
    decay_every_epochs: int = 30
    batch_size: int = 8
    epochs: int = 50
    seed: int = 0
    samples_per_class: int = 10
    map_size: int = 64

    def __post_init__(self):
        check_field_types(self, TrainingError)
        if (self.lr0 <= 0 or self.decay_factor <= 0
                or self.batch_size < 1 or self.epochs < 1
                or self.decay_every_epochs < 1 or self.samples_per_class < 1
                or self.map_size < 1):
            raise TrainingError("all training settings must be positive")

    def lr_at_epoch(self, epoch: int) -> float:
        return self.lr0 * self.decay_factor ** (epoch // self.decay_every_epochs)


def adam_step(params, grads, moments, t: int, lr: float):
    """One Adam update, in place, of the flat vector ``params`` and its (2, n)
    first and second ``moments``; t starts at 1.

    The vectors are stepped ADAM_CHUNK elements at a time through two
    chunk-sized buffers, so the step allocates no whole-vector temporary.
    Every operation is elementwise and runs in the order of the
    whole-vector expression, so each element gets the bits of a step of
    its own."""
    if t < 1:
        raise TrainingError(f"step index must be >= 1, got {t}")
    if (params.ndim != 1 or grads.shape != params.shape
            or moments.shape != (2, *params.shape)):
        raise TrainingError(f"shape mismatch: parameters {params.shape} (a flat vector), "
                            f"gradients {grads.shape}, moments {moments.shape}")
    m, v = moments
    bias1, bias2 = 1.0 - ADAM_BETA1 ** t, 1.0 - ADAM_BETA2 ** t
    buf_a, buf_b = np.empty((2, min(ADAM_CHUNK, params.size)))
    for lo in range(0, params.size, ADAM_CHUNK):
        chunk = slice(lo, lo + ADAM_CHUNK)
        g, mc, vc = grads[chunk], m[chunk], v[chunk]
        a, b = buf_a[:g.size], buf_b[:g.size]
        # m += (1 - beta1) * (g - m)
        np.subtract(g, mc, out=a)
        a *= 1.0 - ADAM_BETA1
        mc += a
        # v += (1 - beta2) * (g * g - v)
        np.multiply(g, g, out=a)
        a -= vc
        a *= 1.0 - ADAM_BETA2
        vc += a
        # params -= lr * (m / bias1) / (sqrt(v / bias2) + eps)
        np.divide(mc, bias1, out=a)
        a *= lr
        np.divide(vc, bias2, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPS
        a /= b
        params[chunk] -= a


def _check_labels(labels: np.ndarray, num_classes: int) -> None:
    """Raise ``LabelOutOfRange`` unless every label lies in [0, num_classes)."""
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise LabelOutOfRange(f"labels must lie in [0, {num_classes}), got {labels}")


def cross_entropy(logits, labels):
    """Mean negative log softmax likelihood and its gradient.

    Gradient is (softmax - onehot) / batch, exact for the mean loss.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    batch, k = logits.shape
    _check_labels(labels, k)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    loss = -log_probs[np.arange(batch), labels].mean()
    grad = np.exp(log_probs)
    grad[np.arange(batch), labels] -= 1.0
    return loss, grad / batch


@dataclass
class MetricsReport:
    confusion: np.ndarray
    per_class_accuracy: np.ndarray
    overall_accuracy: float

    @classmethod
    def from_predictions(cls, labels, predicted, num_classes) -> "MetricsReport":
        _check_labels(np.asarray(labels), num_classes)
        confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
        for truth, pred in zip(labels, predicted):
            confusion[truth, pred] += 1
        row_sums = confusion.sum(axis=1)
        per_class = np.divide(
            np.diag(confusion), row_sums,
            out=np.zeros(num_classes), where=row_sums > 0,
        )
        overall = float(np.trace(confusion)) / max(1, confusion.sum())
        return cls(confusion=confusion, per_class_accuracy=per_class,
                   overall_accuracy=overall)

    def write_csv(self, metrics_path, confusion_path) -> None:
        with open(metrics_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["class", "accuracy"])
            for cls, acc in enumerate(self.per_class_accuracy):
                writer.writerow([cls, f"{acc:.6f}"])
            writer.writerow(["overall", f"{self.overall_accuracy:.6f}"])
        with open(confusion_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([""] + [f"pred_{j}" for j in range(self.confusion.shape[1])])
            for i, row in enumerate(self.confusion):
                writer.writerow([f"true_{i}"] + row.tolist())


# ---------------------------------------------------------------------------
# Toy dataset: synthetic scenes -> three map domains -> normalized tensors.

# A sample holds one map per model branch, stored under the branch's name.
DOMAIN_KEYS = BRANCHES


def min_max_normalize(values: np.ndarray) -> np.ndarray:
    lo, hi = values.min(), values.max()
    if hi <= lo:
        return np.zeros_like(values)
    return (values - lo) / (hi - lo)


def maps_for_echo(echo, map_size: int):
    """The three resized domain maps of one echo, in rt/dt/rd order.

    Holds the echo no longer than ``domain_maps`` does: a caller that
    keeps no reference of its own frees it after the range FFT.
    """
    maps = dm.domain_maps(echo)
    del echo
    # map() drops each full-size map before the next one is built.
    return list(map(lambda m: dm.resize_bilinear(m, map_size, map_size), maps))


def _render_samples(samples_per_class: int, seed: int, map_size: int):
    for label, kind in enumerate(synth.ActivityKind):
        for i in range(samples_per_class):
            scene = synth.activity_template(kind, seed=seed * 1000 + label * 100 + i)
            yield label, maps_for_echo(synth.generate(scene, TOY_RADAR_PARAMS), map_size)


def save_toy_dataset(out_dir, samples_per_class: int, seed: int, map_size: int) -> Path:
    """Render the toy dataset to disk: one blob per domain, then the index.

    Each sample's maps are appended to the blobs as they are rendered,
    so one sample's maps are alive at a time.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    labels = []
    with ExitStack() as stack:
        blobs = [stack.enter_context(open(out_dir / f"{key}.f32", "wb"))
                 for key in DOMAIN_KEYS]
        for label, maps in _render_samples(samples_per_class, seed, map_size):
            for fh, spectro in zip(blobs, maps):
                write_f32(fh, spectro.values, TrainingError)
            labels.append(label)
    with open(out_dir / "index.json", "w") as fh:
        json.dump({"map_size": map_size, "seed": seed, "labels": labels}, fh, indent=2)
    return out_dir


def load_dataset(directory):
    """Load a saved dataset directory as (x_rt, x_dt, x_rd, labels).

    Map tensors have shape (N, 1, map_size, map_size), each map min-max
    normalized to [0, 1]; labels index the activity kinds and must be
    integers that fit 64 bits (``evaluate`` checks their range against
    the model). Every blob must hold exactly N finite maps of the index's
    size; each blob's size is checked before that blob is read.
    """
    directory = Path(directory)
    index = read_json_object(directory / "index.json", TrainingError)
    labels, size = index.get("labels"), index.get("map_size")
    if not isinstance(labels, list) or not labels:
        raise TrainingError(f"{directory}: index.json needs a non-empty labels list")
    for label in labels:
        if isinstance(label, bool) or not isinstance(label, int):
            raise LabelOutOfRange(f"{directory}: label {label!r} is not an integer")
        if not -2**63 <= label < 2**63:
            raise LabelOutOfRange(f"{directory}: label {label} does not fit 64 bits")
    if isinstance(size, bool) or not isinstance(size, int) or size < 1:
        raise TrainingError(f"{directory}: map_size {size!r} is not a positive integer")
    n = len(labels)
    stacks = [read_f32(directory / f"{key}.f32", n * size * size, TrainingError)
              .astype(np.float64).reshape(n, 1, size, size) for key in DOMAIN_KEYS]
    for maps in stacks:
        for sample in maps:
            sample[0] = min_max_normalize(sample[0])
    return (*stacks, np.array(labels, dtype=np.int64))


def evaluate(model: MultiDomainModel, dataset, batch_size: int = 8) -> MetricsReport:
    """Argmax classification metrics over a dataset tuple."""
    x_rt, x_dt, x_rd, labels = dataset
    want = (model.cfg.in_channels, model.cfg.input_hw, model.cfg.input_hw)
    if any(x.shape[1:] != want for x in (x_rt, x_dt, x_rd)):
        raise TrainingError(f"dataset maps are {x_rt.shape[1:]}, the model takes {want}")
    predicted = []
    for start in range(0, len(labels), batch_size):
        sl = slice(start, start + batch_size)
        logits = model.predict(x_rt[sl], x_dt[sl], x_rd[sl])
        predicted.extend(np.argmax(logits, axis=1))
    return MetricsReport.from_predictions(labels, predicted, model.cfg.num_classes)


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    accuracy: float
    lr: float


def train(model: MultiDomainModel, dataset, cfg: TrainConfig,
          progress=None) -> list[EpochRecord]:
    """Seeded full-batch-shuffled mini-batch training; returns epoch history."""
    x_rt, x_dt, x_rd, labels = dataset
    n = len(labels)
    rng = synth.seeded_rng(cfg.seed, stream=1)
    params, grads = model.param_vector, model.grad_vector
    moments = np.zeros((2, params.size))
    history = []
    t = 0
    for epoch in range(cfg.epochs):
        lr = cfg.lr_at_epoch(epoch)
        order = rng.permutation(n)
        epoch_loss = 0.0
        hits = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start: start + cfg.batch_size]
            logits = model.forward(x_rt[idx], x_dt[idx], x_rd[idx], train=True)
            loss, dlogits = cross_entropy(logits, labels[idx])
            grads.fill(0.0)
            model.backward(dlogits)
            t += 1
            adam_step(params, grads, moments, t, lr)
            epoch_loss += loss * idx.size
            hits += int(np.sum(np.argmax(logits, axis=1) == labels[idx]))
        record = EpochRecord(epoch=epoch, loss=epoch_loss / n, accuracy=hits / n, lr=lr)
        history.append(record)
        if progress:
            progress(record)
    return history


def run_toy_training(cfg: TrainConfig, out_dir) -> dict:
    """Full toy pipeline: dataset on disk, training, metrics, checkpoint.

    Returns a summary dict (also written into the run manifest by the CLI).
    """
    from .nn.checkpoint import save_checkpoint

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    dataset_dir = save_toy_dataset(out_dir / "dataset", cfg.samples_per_class,
                                   cfg.seed, cfg.map_size)
    dataset = load_dataset(dataset_dir)
    model_cfg = preset("toy", input_hw=cfg.map_size, in_channels=1)
    model = MultiDomainModel(model_cfg, seed=cfg.seed)

    history = train(model, dataset, cfg)
    with open(out_dir / "metrics.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "train_accuracy", "lr"])
        for rec in history:
            writer.writerow([rec.epoch, f"{rec.loss:.6f}", f"{rec.accuracy:.6f}",
                             f"{rec.lr:.6g}"])

    report = evaluate(model, dataset, cfg.batch_size)
    report.write_csv(out_dir / "train_metrics.csv", out_dir / "train_confusion.csv")
    save_checkpoint(out_dir / "checkpoint", model,
                    extra={"train_config": asdict(cfg)})

    return {
        "final_loss": history[-1].loss,
        "final_train_accuracy": history[-1].accuracy,
        "first_epoch_loss": history[0].loss,
        "epochs": len(history),
        "n_samples": int(len(dataset[3])),
        "train_accuracy": report.overall_accuracy,
    }
