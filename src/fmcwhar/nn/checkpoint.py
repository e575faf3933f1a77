"""Weight checkpoints: JSON manifest plus one float32 blob per parameter.

Layout of a checkpoint directory:

    manifest.json          config, seed, parameter/buffer names and shapes
    params/<name>.f32      little-endian float32, row-major
    buffers/<name>.f32     non-trainable state (batch-norm running stats)

Names are the model's dotted registry names with ``/`` substituted so
they stay valid filenames.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ..radar_io import read_json_object
from .config import ModelConfig, StageSpec
from .model import MultiDomainModel

# Version 3 keeps only the seven ModelConfig fields in the config block.
FORMAT_VERSION = 3


class CheckpointError(ValueError):
    """A checkpoint whose manifest or blobs do not describe a loadable model."""


def _blob_name(param_name: str) -> str:
    return param_name.replace("/", "_") + ".f32"


def save_checkpoint(directory, model: MultiDomainModel, extra: dict | None = None) -> None:
    directory = Path(directory)
    params = model.params()
    buffers = model.buffers()
    manifest = {
        "format_version": FORMAT_VERSION,
        "config": asdict(model.cfg),
        "seed": model.seed,
        "params": [
            {"name": name, "shape": list(value.shape)} for name, value in params.items()
        ],
        "buffers": [
            {"name": name, "shape": list(value.shape)} for name, value in buffers.items()
        ],
    }
    if extra:
        manifest["extra"] = extra
    for section, values in (("params", params), ("buffers", buffers)):
        (directory / section).mkdir(parents=True, exist_ok=True)
        for name, value in values.items():
            value.astype("<f4").tofile(directory / section / _blob_name(name))
    with open(directory / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)


def load_checkpoint(directory) -> MultiDomainModel:
    directory = Path(directory)
    manifest = read_json_object(directory / "manifest.json", CheckpointError)
    if manifest.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"{directory}: unsupported checkpoint version {manifest.get('format_version')}"
        )
    seed = manifest.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise CheckpointError(f"{directory}: seed {seed!r} is not an integer")
    try:
        config = manifest["config"]
        cfg = ModelConfig(**{**config, "stages": tuple(StageSpec(**s) for s in config["stages"])})
        model = MultiDomainModel(cfg, seed=seed)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{directory}: cannot build the model: {exc}") from exc
    for section, expected in (("params", model.params()), ("buffers", model.buffers())):
        entries = manifest.get(section, [])
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            raise CheckpointError(f"{directory}: manifest {section} must be a list of objects")
        for entry in entries:
            target = _entry_target(directory, section, entry, expected)
            blob = directory / section / _blob_name(entry["name"])
            value = np.fromfile(blob, dtype="<f4").astype(np.float64)
            if value.size != target.size:
                raise CheckpointError(
                    f"{blob}: holds {value.size} values, manifest shape is {entry['shape']}"
                )
            target[...] = value.reshape(target.shape)
        missing = sorted(set(expected) - {entry["name"] for entry in entries})
        if missing:
            raise CheckpointError(
                f"{directory}: manifest lists no {section} entry for {', '.join(missing)}"
            )
    return model


def _entry_target(directory, section, entry, expected) -> np.ndarray:
    """The model array that a manifest entry names, once its name and
    shape are checked against the model's."""
    name, shape = entry.get("name"), entry.get("shape")
    if not isinstance(name, str):
        raise CheckpointError(f"{directory}: manifest {section} entry {entry} has no name")
    if not isinstance(shape, list) or not all(
            isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in shape):
        raise CheckpointError(
            f"{directory}: manifest {section} entry {name} has shape {shape!r}, "
            "not a list of non-negative integers"
        )
    if name not in expected:
        raise CheckpointError(f"{directory}: the model has no {section} entry {name}")
    if tuple(shape) != expected[name].shape:
        raise CheckpointError(
            f"{directory}: {name}: shape {tuple(shape)} != model shape {expected[name].shape}"
        )
    return expected[name]
