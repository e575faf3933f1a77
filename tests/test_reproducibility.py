"""Seeded commands are bit-reproducible across processes.

The same command sequence (synth and parse of an ASCII recording, then
synth, maps, augment and train-toy from a binary one, then eval of the
trained checkpoint) runs twice,
each command in a fresh ``python -m fmcwhar.cli`` process, under two
different ``PYTHONHASHSEED`` values. Every output file must match byte
for byte; only the manifests' ``wall_time_s`` may differ.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

COMMANDS = [
    ["synth", "--kind", "walk", "--seed", "3", "--out", "walk.dat"],
    ["parse", "walk.dat", "--out", "parsed"],
    ["synth", "--kind", "walk", "--seed", "3", "--out", "walk.datb"],
    ["maps", "walk.datb", "--out", "maps", "--pgm"],
    ["augment", "maps/dt.smap", "--seed", "5", "--out", "aug/dt.smap"],
    ["train-toy", "--config", "train.json", "--out", "run"],
    ["eval", "--ckpt", "run/checkpoint", "--data", "run/dataset", "--out", "evaluated"],
]
TRAIN_CONFIG = {"epochs": 1, "samples_per_class": 1, "map_size": 32, "seed": 2}
WALL_TIME = re.compile(rb'"wall_time_s": [-+.0-9eE]+')


def run_sequence(workdir: Path, hash_seed: str) -> dict:
    """Run every command in ``workdir``; returns {relative path: bytes}."""
    workdir.mkdir()
    (workdir / "train.json").write_text(json.dumps(TRAIN_CONFIG))
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC),
                                                       os.environ.get("PYTHONPATH")]))}
    for args in COMMANDS:
        done = subprocess.run([sys.executable, "-m", "fmcwhar.cli", *args], cwd=workdir,
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, f"{args[0]} exited {done.returncode}: {done.stderr}"
    outputs = {}
    for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
        raw = path.read_bytes()
        if path.name.endswith("manifest.json"):
            raw = WALL_TIME.sub(b'"wall_time_s": 0', raw)
        outputs[str(path.relative_to(workdir))] = raw
    return outputs


def test_command_sequence_is_bit_identical_across_processes(tmp_path):
    first = run_sequence(tmp_path / "a", "1")
    second = run_sequence(tmp_path / "b", "2")
    assert {"walk.dat", "parsed/echo.datb", "walk.datb", "maps/rd.smap", "aug/dt.smap", "run/metrics.csv",
            "run/checkpoint/manifest.json", "run/checkpoint/params.f32",
            "run/checkpoint/buffers.f32", "run/dataset/index.json", "run/dataset/rt.f32",
            "run/dataset/dt.f32", "run/dataset/rd.f32", "evaluated/metrics.csv",
            "evaluated/confusion.csv"} <= set(first)
    assert sorted(first) == sorted(second)
    differing = [name for name in first if first[name] != second[name]]
    assert not differing, f"{len(differing)} outputs differ between processes: {differing[:5]}"
