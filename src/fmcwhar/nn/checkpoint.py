"""Weight checkpoints: a JSON manifest plus one float32 blob per store.

Layout of a checkpoint directory:

    manifest.json   config, seed, and the name and shape of every
                    parameter and buffer, in the model's order
    params.f32      every parameter as a float32 blob (``radar_io.write_f32``),
                    end to end in manifest order
    buffers.f32     the non-trainable state (batch-norm running
                    statistics), laid out the same way

The blobs follow the manifest, not the model's flat storage, so a
checkpoint describes itself. It loads only into a model whose names and
shapes its manifest lists exactly, in the same order.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from ..radar_io import read_f32, read_json_object, write_f32
from .config import ModelConfig, StageSpec
from .counting import count_params
from .model import MultiDomainModel

# Raised whenever the layout or the config block changes; other versions are refused.
FORMAT_VERSION = 4


class CheckpointError(ValueError):
    """A checkpoint whose manifest or blobs do not describe a loadable model."""


def _sections(model: MultiDomainModel) -> dict:
    return {"params": model.params(), "buffers": model.buffers()}


def _listing(arrays: dict) -> list:
    return [{"name": name, "shape": list(value.shape)} for name, value in arrays.items()]


def save_checkpoint(directory, model: MultiDomainModel, extra: dict | None = None) -> None:
    directory = Path(directory)
    sections = _sections(model)
    manifest = {
        "format_version": FORMAT_VERSION,
        "config": asdict(model.cfg),
        "seed": model.seed,
        **{section: _listing(arrays) for section, arrays in sections.items()},
    }
    if extra:
        manifest["extra"] = extra
    directory.mkdir(parents=True, exist_ok=True)
    for section, arrays in sections.items():
        with open(directory / f"{section}.f32", "wb") as fh:
            for value in arrays.values():
                write_f32(fh, value, CheckpointError)
    with open(directory / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)


def load_checkpoint(directory) -> MultiDomainModel:
    directory = Path(directory)
    manifest = read_json_object(directory / "manifest.json", CheckpointError)
    if manifest.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"{directory}: unsupported checkpoint version {manifest.get('format_version')}"
        )
    seed = manifest.get("seed")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise CheckpointError(f"{directory}: manifest seed {seed!r} is not an integer")
    try:
        config = manifest["config"]
        cfg = ModelConfig(**{**config, "stages": tuple(StageSpec(**s) for s in config["stages"])})
        counts = count_params(cfg)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{directory}: cannot build the model: {exc}") from exc
    # The blobs must hold the model before anything is allocated for it;
    # the static count equals the built model's (test_static_walk_matches_instantiation).
    blobs = {section: read_f32(directory / f"{section}.f32", total, CheckpointError)
             for section, total in (("params", counts.total), ("buffers", counts.non_trainable))}
    model = MultiDomainModel(cfg, seed=seed)
    for section, arrays in _sections(model).items():
        _check_listing(directory, section, manifest.get(section), _listing(arrays))
        values = blobs[section]
        offset = 0
        for value in arrays.values():
            value[...] = values[offset:offset + value.size].reshape(value.shape)
            offset += value.size
    return model


def _check_listing(directory, section, entries, expected) -> None:
    """Raise ``CheckpointError`` unless the manifest's ``entries`` are the
    model's ``expected`` names and integer shapes, in the same order."""
    if not isinstance(entries, list):
        raise CheckpointError(f"{directory}: manifest {section} is not a list")
    if entries == expected and all(type(n) is int for e in entries for n in e["shape"]):
        return
    listed = [e.get("name") for e in entries if isinstance(e, dict)]
    missing = sorted(want["name"] for want in expected if want["name"] not in listed)
    raise CheckpointError(
        f"{directory}: the manifest's {section} are not the model's names and shapes "
        "in order" + (f"; it lists no entry for {', '.join(missing)}" if missing else "")
    )
