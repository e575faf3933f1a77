"""Training loop, optimizer, dataset splitting and classification metrics.

Optimization is Adam (beta1 0.9, beta2 0.999, eps 1e-8) with the step
schedule lr = lr0 * decay^floor(epoch / decay_every). The toy pipeline
renders stylized activity scenes into the three map domains, resizes
them to 64 x 64, min-max normalizes each map to [0, 1], and overfits
the small network preset on them; it exists to prove the whole chain
end to end, not to reproduce full-scale accuracy.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import domain_maps as dm
from . import synth
from .nn import MultiDomainModel
from .nn.config import PRESETS, preset
from .radar_io import RadarParams

TOY_RADAR_PARAMS = RadarParams(5.8e9, 1e-3, 128, 4e8)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingError(ValueError):
    pass


class LabelOutOfRange(TrainingError):
    pass


class TooFewSamples(TrainingError):
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
    model_preset: str = "toy"

    def __post_init__(self):
        if (self.lr0 <= 0 or self.batch_size < 1 or self.epochs < 1
                or self.decay_every_epochs < 1 or self.samples_per_class < 1
                or self.map_size < 1):
            raise TrainingError("all training settings must be positive")
        if self.model_preset not in PRESETS:
            raise TrainingError(
                f"unknown model_preset {self.model_preset!r}; choose from {sorted(PRESETS)}"
            )

    def lr_at_epoch(self, epoch: int) -> float:
        return self.lr0 * self.decay_factor ** (epoch // self.decay_every_epochs)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "TrainConfig":
        payload = json.loads(text)
        try:
            return cls(**payload)
        except TypeError as exc:  # unknown keys or values of the wrong type
            raise TrainingError(f"bad training config: {exc}") from exc


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params, grads, state: AdamState, t: int, lr: float):
    """One Adam update, in place over the parameter dict. t starts at 1."""
    if t < 1:
        raise TrainingError(f"step index must be >= 1, got {t}")
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise TrainingError(f"gradient shape mismatch for {name}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        m += (1.0 - ADAM_BETA1) * (g - m)
        v += (1.0 - ADAM_BETA2) * (g * g - v)
        m_hat = m / (1.0 - ADAM_BETA1 ** t)
        v_hat = v / (1.0 - ADAM_BETA2 ** t)
        p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return params, state


def cross_entropy(logits, labels):
    """Mean negative log softmax likelihood and its gradient.

    Gradient is (softmax - onehot) / batch, exact for the mean loss.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    batch, k = logits.shape
    if labels.min() < 0 or labels.max() >= k:
        raise LabelOutOfRange(f"labels must lie in [0, {k}), got {labels}")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    loss = -log_probs[np.arange(batch), labels].mean()
    grad = np.exp(log_probs)
    grad[np.arange(batch), labels] -= 1.0
    return loss, grad / batch


def stratified_split(labels, split=(0.6, 0.2, 0.2), seed=0):
    """Per-class proportional train/val/test index sets, seeded and disjoint."""
    labels = np.asarray(labels)
    rng = synth.seeded_rng(seed)
    train, val, test = [], [], []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        if idx.size < 5:
            raise TooFewSamples(f"class {cls} has {idx.size} samples, need >= 5")
        idx = rng.permutation(idx)
        n_train = int(np.floor(split[0] * idx.size))
        n_val = int(np.floor(split[1] * idx.size))
        train.extend(idx[:n_train])
        val.extend(idx[n_train: n_train + n_val])
        test.extend(idx[n_train + n_val:])
    return np.sort(train), np.sort(val), np.sort(test)


@dataclass
class MetricsReport:
    confusion: np.ndarray
    per_class_accuracy: np.ndarray
    overall_accuracy: float

    @classmethod
    def from_predictions(cls, labels, predicted, num_classes) -> "MetricsReport":
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

DOMAIN_KEYS = ("rt", "dt", "rd")


def min_max_normalize(values: np.ndarray) -> np.ndarray:
    lo, hi = values.min(), values.max()
    if hi <= lo:
        return np.zeros_like(values)
    return (values - lo) / (hi - lo)


def maps_for_echo(echo, map_size: int):
    """The three resized domain maps of one echo, in rt/dt/rd order."""
    # map() drops each full-size map before the next one is built.
    return list(map(lambda m: dm.resize_bilinear(m, map_size, map_size),
                    dm.domain_maps(echo)))


def _render_samples(samples_per_class: int, seed: int, map_size: int,
                    params: RadarParams):
    for label, kind in enumerate(synth.ActivityKind):
        for i in range(samples_per_class):
            scene = synth.activity_template(kind, seed=seed * 1000 + label * 100 + i)
            echo = synth.generate(scene, params)
            yield f"{kind.value}_{i:03d}", label, maps_for_echo(echo, map_size)


def save_toy_dataset(out_dir, samples_per_class: int, seed: int,
                     map_size: int = 64,
                     params: RadarParams = TOY_RADAR_PARAMS) -> Path:
    """Render the toy dataset to disk as .smap triplets plus an index."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    index = {"map_size": map_size, "seed": seed, "samples": []}
    for sample_id, label, maps in _render_samples(samples_per_class, seed,
                                                  map_size, params):
        entry = {"id": sample_id, "label": label}
        for key, spectro in zip(DOMAIN_KEYS, maps):
            name = f"{sample_id}_{key}.smap"
            dm.save_spectro_map(spectro, out_dir / name)
            entry[key] = name
        index["samples"].append(entry)
    with open(out_dir / "index.json", "w") as fh:
        json.dump(index, fh, indent=2)
    return out_dir


def load_dataset(directory):
    """Load a saved dataset directory as (x_rt, x_dt, x_rd, labels).

    Map tensors have shape (N, 1, map_size, map_size), each map min-max
    normalized to [0, 1]; labels index the activity kinds.
    """
    directory = Path(directory)
    with open(directory / "index.json") as fh:
        index = json.load(fh)
    stacks = {key: [] for key in DOMAIN_KEYS}
    labels = []
    for entry in index["samples"]:
        for key in DOMAIN_KEYS:
            spectro = dm.load_spectro_map(directory / entry[key])
            stacks[key].append(min_max_normalize(spectro.values)[None])
        labels.append(entry["label"])
    return (np.stack(stacks["rt"]), np.stack(stacks["dt"]), np.stack(stacks["rd"]),
            np.array(labels, dtype=np.int64))


def evaluate(model: MultiDomainModel, dataset, batch_size: int = 8) -> MetricsReport:
    """Argmax classification metrics over a dataset tuple."""
    x_rt, x_dt, x_rd, labels = dataset
    predicted = []
    for start in range(0, len(labels), batch_size):
        sl = slice(start, start + batch_size)
        logits = model.forward(x_rt[sl], x_dt[sl], x_rd[sl], train=False)
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
    state = AdamState()
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
            model.zero_grads()
            model.backward(dlogits)
            t += 1
            adam_step(model.params(), model.grads(), state, t, lr)
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
    model_cfg = preset(cfg.model_preset, input_hw=cfg.map_size, in_channels=1)
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
                    extra={"train_config": json.loads(cfg.to_json())})

    return {
        "final_loss": history[-1].loss,
        "final_train_accuracy": history[-1].accuracy,
        "first_epoch_loss": history[0].loss,
        "epochs": len(history),
        "n_samples": int(len(dataset[3])),
        "train_accuracy": report.overall_accuracy,
    }
