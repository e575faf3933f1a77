"""The three benchmark workloads and the closed loop that drives them.

One client, one process, no extra threads: each op starts only after
the previous one ended. Every input derives from the workload seed.

- ``dataset``: one op renders and reloads a balanced toy dataset with a
  fresh seed (``save_toy_dataset`` then ``load_dataset``), as
  ``train-toy`` does before training. The radar front end does the work.
- ``train``: one op is one epoch of ``training.train`` over a dataset
  rendered in setup. The network's backward pass does the work.
- ``classify``: one op classifies one recording from raw bytes. Three
  ops in four parse ``.datb`` bytes, the fourth parses the ``.dat``
  (ASCII) encoding of the cycle's first recording, so the two codecs
  can be compared on every cycle.
"""

from __future__ import annotations

import math
import shutil
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from fmcwhar import domain_maps as dm
from fmcwhar import radar_io, synth, training
from fmcwhar.nn import MultiDomainModel, count_flops
from fmcwhar.nn.checkpoint import load_checkpoint, save_checkpoint
from fmcwhar.nn.config import preset

import checks
import hostspeed
from spans import Tracer

PARAMS = training.TOY_RADAR_PARAMS
MAP_SIZE = 64
BATCH_SIZE = 8
N_CLASSES = len(synth.ActivityKind)
DATASET_SAMPLES_PER_CLASS = 1
TRAIN_SAMPLES_PER_CLASS = 2
CLASSIFY_CYCLE = 4  # three binary ops, then one ASCII op
EPOCH_CAP = 1_000_000  # train() runs until the benchmark stops it


def model_config():
    return preset("toy", input_hw=MAP_SIZE, in_channels=1)


def dataset_scenes(seed: int, samples_per_class: int):
    """Scenes and labels of ``save_toy_dataset(seed=seed)``, in index order.

    Mirrors the scene seeds that ``training`` uses to render the toy
    dataset, so the checks know what each sample must show.
    """
    scenes, labels = [], []
    for label, kind in enumerate(synth.ActivityKind):
        for i in range(samples_per_class):
            scenes.append(synth.activity_template(kind, seed=seed * 1000 + label * 100 + i))
            labels.append(label)
    return scenes, np.array(labels, dtype=np.int64)


@dataclass
class Op:
    seconds: float | None  # None when the op raised
    items: int
    recordings: int
    steps: int
    errors: list = field(default_factory=list)
    kernel_before: float | None = None  # hostspeed kernel seconds right before the op
    kernel_after: float | None = None  # and right after it

    @property
    def adjusted_seconds(self) -> float:
        return hostspeed.adjusted(self.seconds, self.kernel_before, self.kernel_after)


class _Stop(Exception):
    """Raised from the training progress callback to end the run."""


class Session:
    """Closed-loop op bookkeeping for one run.

    An untraced run measures for ``seconds``. A traced run measures the
    first half untraced and the second half with the span recorder
    installed, so the two halves give the tracing overhead. The hostspeed
    kernel is timed between every two ops, outside their timings.
    """

    def __init__(self, seconds: float, traced: bool):
        self.traced = traced
        self.budget = seconds / 2 if traced else seconds
        self.ops = {"plain": [], "traced": []}
        self.phase = "plain"
        self.tracer = Tracer()
        self._deadline = None
        self._kernel = None  # the latest hostspeed measurement

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.tracer.uninstall()

    def more(self, boundary: bool = True) -> bool:
        """Whether to start another op; only a boundary op may end a phase."""
        self._kernel = hostspeed.measure()
        ops = self.ops[self.phase]
        if ops:
            ops[-1].kernel_after = self._kernel
        now = perf_counter()
        if self._deadline is None:
            self._deadline = now + self.budget
        elif boundary and now >= self._deadline:
            if not self.traced or self.phase == "traced":
                return False
            self.phase = "traced"
            self.tracer.install()
            self._deadline = now + self.budget
        self.tracer.op = len(self.ops[self.phase])
        return True

    def record(self, seconds, items, recordings=0, steps=0, errors=()) -> None:
        self.ops[self.phase].append(Op(seconds, items, recordings, steps, list(errors),
                                       kernel_before=self._kernel))

    def fail(self, recordings=0, steps=0) -> None:
        """Record an op that raised; the traceback goes to stderr."""
        traceback.print_exc(file=sys.stderr)
        self.record(None, 0, recordings, steps, ["raised " + traceback.format_exc(limit=1)])

    def flag_last(self, errors) -> None:
        if errors:
            self.ops[self.phase][-1].errors.extend(errors)


def _timed(fn, *args):
    start = perf_counter()
    out = fn(*args)
    return out, perf_counter() - start


# ---------------------------------------------------------------------------
# dataset

def setup_dataset(seed, work):
    """Warm-up: one recording through the stages an op uses."""
    scene = synth.activity_template(synth.ActivityKind.WALK, seed=seed)
    maps = training.maps_for_echo(synth.generate(scene, PARAMS), MAP_SIZE)
    for key, spectro in zip(training.DOMAIN_KEYS, maps):
        dm.save_spectro_map(spectro, work / f"warmup_{key}.smap")
        dm.load_spectro_map(work / f"warmup_{key}.smap")
    return {"seed": seed, "work": work, "layer_metrics": {}}


def render_and_load(out_dir, seed):
    training.save_toy_dataset(out_dir, DATASET_SAMPLES_PER_CLASS, seed, MAP_SIZE)
    return training.load_dataset(out_dir)


def run_dataset(ctx, session: Session) -> None:
    n = DATASET_SAMPLES_PER_CLASS * N_CLASSES
    index = 0
    while session.more():
        op_seed = ctx["seed"] * 100_000 + index + 1
        out_dir = ctx["work"] / f"dataset_{index}"
        index += 1
        try:
            data, seconds = _timed(render_and_load, out_dir, op_seed)
        except Exception:
            session.fail(recordings=n)
            continue
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        scenes, labels = dataset_scenes(op_seed, DATASET_SAMPLES_PER_CLASS)
        session.record(seconds, n, recordings=n,
                       errors=checks.check_dataset(data, scenes, labels, PARAMS))


# ---------------------------------------------------------------------------
# train

def setup_train(seed, work):
    dataset_dir = training.save_toy_dataset(work / "train_dataset", TRAIN_SAMPLES_PER_CLASS,
                                            seed, MAP_SIZE)
    dataset = training.load_dataset(dataset_dir)
    model = MultiDomainModel(model_config(), seed=seed)
    cfg = training.TrainConfig(batch_size=BATCH_SIZE, epochs=EPOCH_CAP, seed=seed,
                               samples_per_class=TRAIN_SAMPLES_PER_CLASS, map_size=MAP_SIZE)
    macs = count_flops(model.cfg).total
    return {"dataset": dataset, "model": model, "cfg": cfg,
            "layer_metrics": {"nn.forward.macs_per_sample": float(macs)}}


def run_train(ctx, session: Session) -> None:
    n = len(ctx["dataset"][3])
    steps = math.ceil(n / BATCH_SIZE)
    losses = []
    last = [0.0]

    def progress(record):
        now = perf_counter()
        session.record(now - last[0], n, steps=steps,
                       errors=checks.check_epoch(record, len(losses)))
        losses.append(record.loss)
        if not session.more():
            raise _Stop
        last[0] = perf_counter()

    session.more()
    last[0] = perf_counter()
    try:
        training.train(ctx["model"], ctx["dataset"], ctx["cfg"], progress=progress)
    except _Stop:
        pass
    except Exception:
        session.fail(steps=steps)
    session.flag_last(checks.check_loss_fell(losses))


# ---------------------------------------------------------------------------
# classify

def setup_classify(seed, work):
    scenes = [synth.activity_template(kind, seed=seed * 100 + label)
              for label, kind in enumerate(synth.ActivityKind)]
    echoes = [synth.generate(scene, PARAMS) for scene in scenes]
    binary = [radar_io.write_dat(PARAMS, echo, "binary") for echo in echoes]
    ascii_first = radar_io.write_dat(PARAMS, echoes[0], "ascii")
    save_checkpoint(work / "checkpoint", MultiDomainModel(model_config(), seed=seed))
    model, load_s = _timed(load_checkpoint, work / "checkpoint")
    return {"scenes": scenes, "binary": binary, "ascii_first": ascii_first, "model": model,
            "layer_metrics": {
                "nn.forward.macs_per_sample": float(count_flops(model.cfg).total),
                "nn.checkpoint.load_checkpoint.ms": load_s * 1e3,
            }}


def classify(model, raw: bytes, codec: str):
    """Raw recording bytes -> normalized map tensors and B=1 eval logits."""
    echo = radar_io.parse_dat(raw, codec).echo
    maps = training.maps_for_echo(echo, MAP_SIZE)
    tensors = [training.min_max_normalize(spectro.values)[None, None] for spectro in maps]
    logits = model.forward(*tensors, train=False)
    return tensors, logits, int(np.argmax(logits))


def classify_schedule(op_index: int):
    """(scene index, codec) of an op: each cycle of four classifies scene 0
    and two of the other scenes from binary bytes, then scene 0 again from
    ASCII bytes."""
    cycle, pos = divmod(op_index, CLASSIFY_CYCLE)
    if pos == 0:
        return 0, "binary"
    if pos == CLASSIFY_CYCLE - 1:
        return 0, "ascii"
    others = N_CLASSES - 1
    return 1 + (2 * cycle + pos - 1) % others, "binary"


def run_classify(ctx, session: Session) -> None:
    model = ctx["model"]
    index = 0
    twin_logits = None
    while session.more(boundary=index % CLASSIFY_CYCLE == 0):
        scene_index, codec = classify_schedule(index)
        index += 1
        raw = ctx["binary"][scene_index] if codec == "binary" else ctx["ascii_first"]
        try:
            (tensors, logits, _), seconds = _timed(classify, model, raw, codec)
        except Exception:
            session.fail(recordings=1, steps=1)
            continue
        errors = checks.check_maps(tensors, [ctx["scenes"][scene_index]], PARAMS)
        errors += checks.check_logits(logits, model.cfg.num_classes)
        if codec == "ascii":
            errors += checks.check_codec_twin(twin_logits, logits)
        elif scene_index == 0:
            twin_logits = logits
        session.record(seconds, 1, recordings=1, steps=1, errors=errors)


WORKLOADS = {
    "dataset": (setup_dataset, run_dataset),
    "train": (setup_train, run_train),
    "classify": (setup_classify, run_classify),
}
