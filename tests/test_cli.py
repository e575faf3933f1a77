import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmcwhar import cli
from fmcwhar import domain_maps as dm
from fmcwhar import radar_io, training
from fmcwhar.nn import MultiDomainModel, save_checkpoint
from fmcwhar.nn.config import preset


@pytest.fixture(scope="module")
def echo_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "walk.datb"
    assert cli.main(["synth", "--kind", "walk", "--seed", "3",
                     "--out", str(path)]) == 0
    return path


class TestSynth:
    def test_writes_echo_and_scene(self, echo_file):
        assert echo_file.exists()
        scene = echo_file.with_suffix(".datb.scene.json")
        assert scene.exists()
        payload = json.loads(scene.read_text())
        assert payload["seed"] == 3

    def test_reproducible(self, tmp_path, echo_file):
        other = tmp_path / "again.datb"
        assert cli.main(["synth", "--kind", "walk", "--seed", "3",
                         "--out", str(other)]) == 0
        assert other.read_bytes() == echo_file.read_bytes()

    def test_ascii_output_parses(self, tmp_path):
        path = tmp_path / "tiny.dat"
        assert cli.main(["synth", "--kind", "sit", "--seed", "1", "--samples", "16",
                         "--out", str(path)]) == 0
        params, echo, _ = radar_io.load_recording(path)
        assert params.samples_per_chirp == 16


class TestParse:
    def test_outputs(self, tmp_path, echo_file):
        out = tmp_path / "parsed"
        assert cli.main(["parse", str(echo_file), "--out", str(out)]) == 0
        header = json.loads((out / "header.json").read_text())
        assert header["n_chirps"] == 1920
        assert (out / "echo.datb").exists()
        assert (out / "manifest.json").exists()
        # The echo dump is lossless.
        _, original, _ = radar_io.load_recording(echo_file)
        _, dumped, _ = radar_io.load_recording(out / "echo.datb")
        np.testing.assert_array_equal(dumped.data, original.data)

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.dat"
        bad.write_text("5.8e9\n1e-3\n")
        assert cli.main(["parse", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_json_error_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.dat"
        bad.write_text("not a number\n")
        code = cli.main(["parse", str(bad), "--out", str(tmp_path / "o"), "--json"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert "error" in err and "message" in err


class TestMaps:
    def test_all_domains_with_pgm(self, tmp_path, echo_file):
        out = tmp_path / "maps"
        assert cli.main(["maps", str(echo_file), "--domains", "rt,dt,rd",
                         "--out", str(out), "--pgm"]) == 0
        for key in ("rt", "dt", "rd"):
            spectro = dm.load_spectro_map(out / f"{key}.smap")
            assert spectro.domain.value == key
            assert (out / f"{key}.pgm").read_bytes().startswith(b"P5")

    def test_zero_echo_gives_uniform_floor(self, tmp_path):
        params = radar_io.RadarParams(5.8e9, 1e-3, 32, 4e8)
        echo = radar_io.EchoMatrix(params=params,
                                   data=np.zeros((256, 32), dtype=complex))
        src = tmp_path / "zero.datb"
        radar_io.save_recording(src, params, echo)
        out = tmp_path / "maps"
        assert cli.main(["maps", str(src), "--out", str(out)]) == 0
        rt = dm.load_spectro_map(out / "rt.smap")
        assert np.unique(rt.values).size == 1

    @pytest.mark.parametrize("no_mti", [False, True])
    def test_matches_library_maps(self, tmp_path, echo_file, no_mti):
        out = tmp_path / "maps"
        argv = ["maps", str(echo_file), "--domains", "rd,rt,dt", "--out", str(out)]
        assert cli.main(argv + ["--no-mti"] * no_mti) == 0
        _, echo, _ = radar_io.load_recording(echo_file)
        expected = {"rt": dm.range_time_map(echo, mti=not no_mti),
                    "dt": dm.doppler_time_map(echo),
                    "rd": dm.range_doppler_map(echo)}
        for key, spectro in expected.items():
            written = dm.load_spectro_map(out / f"{key}.smap")
            np.testing.assert_array_equal(
                written.values, spectro.values.astype("<f4").astype(np.float64))
            assert (written.row_axis, written.col_axis) == (spectro.row_axis,
                                                            spectro.col_axis)

    def test_unknown_domain_rejected(self, tmp_path, echo_file):
        assert cli.main(["maps", str(echo_file), "--domains", "rt,xx",
                         "--out", str(tmp_path / "m")]) == 2

    # Rejected before the recording is read, so no output directory appears.
    @pytest.mark.parametrize("domains", [",", "rt,rt"], ids=["empty", "repeated"])
    def test_malformed_domain_list_rejected(self, tmp_path, echo_file, domains):
        out = tmp_path / "m"
        assert cli.main(["maps", str(echo_file), "--domains", domains,
                         "--out", str(out)]) == 2
        assert not out.exists()


class TestAugment:
    def test_roundtrip_deterministic(self, tmp_path, echo_file):
        maps_dir = tmp_path / "maps"
        assert cli.main(["maps", str(echo_file), "--domains", "dt",
                         "--out", str(maps_dir)]) == 0
        out1 = tmp_path / "a1.smap"
        out2 = tmp_path / "a2.smap"
        for out in (out1, out2):
            assert cli.main(["augment", str(maps_dir / "dt.smap"),
                             "--seed", "5", "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_policy_file(self, tmp_path, echo_file):
        from fmcwhar.augment import AugmentPolicy

        maps_dir = tmp_path / "maps"
        cli.main(["maps", str(echo_file), "--domains", "rt", "--out", str(maps_dir)])
        policy_path = tmp_path / "p.json"
        policy_path.write_text(AugmentPolicy(var_mid=0.25, seed=9).to_json())
        out = tmp_path / "aug.smap"
        assert cli.main(["augment", str(maps_dir / "rt.smap"),
                         "--policy", str(policy_path), "--out", str(out)]) == 0
        assert out.exists()

    @pytest.mark.parametrize("edit", [lambda raw: raw[:-4], lambda raw: raw[:-2],
                                      lambda raw: raw + b"\0\0\0\0"],
                             ids=["truncated", "truncated_mid_value", "over_long"])
    def test_payload_disagreeing_with_sidecar(self, tmp_path, echo_file, edit):
        maps_dir = tmp_path / "maps"
        assert cli.main(["maps", str(echo_file), "--domains", "dt",
                         "--out", str(maps_dir)]) == 0
        smap = maps_dir / "dt.smap"
        smap.write_bytes(edit(smap.read_bytes()))
        assert cli.main(["augment", str(smap), "--seed", "5",
                         "--out", str(tmp_path / "aug.smap")]) == 2

    @pytest.mark.parametrize("policy", ['{"seed": 1, "var_high": 2.0}',
                                        '{"low_threshold": "0.3"}'],
                             ids=["unknown_key", "string_threshold"])
    def test_bad_policy(self, tmp_path, echo_file, policy):
        maps_dir = tmp_path / "maps"
        assert cli.main(["maps", str(echo_file), "--domains", "dt",
                         "--out", str(maps_dir)]) == 0
        policy_path = tmp_path / "p.json"
        policy_path.write_text(policy)
        out = tmp_path / "aug" / "aug.smap"
        assert cli.main(["augment", str(maps_dir / "dt.smap"), "--policy", str(policy_path),
                         "--out", str(out)]) == 2
        assert not out.parent.exists()

    def test_unknown_sidecar_domain(self, tmp_path, echo_file):
        maps_dir = tmp_path / "maps"
        assert cli.main(["maps", str(echo_file), "--domains", "dt",
                         "--out", str(maps_dir)]) == 0
        sidecar = maps_dir / "dt.json"
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "domain": "xt"}))
        out = tmp_path / "aug" / "aug.smap"
        assert cli.main(["augment", str(maps_dir / "dt.smap"), "--seed", "5",
                         "--out", str(out)]) == 2
        assert not out.parent.exists()


class TestParams:
    def test_b0_table(self, capsys, tmp_path):
        out = tmp_path / "params.txt"
        assert cli.main(["params", "--preset", "b0", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "5,288,548" in text
        assert "23,394,710" in text
        assert "single-branch SE baseline" in text
        assert out.read_text().strip() in text

    def test_c_rule(self, capsys):
        assert cli.main(["params", "--preset", "b0", "--lstm-rule", "c"]) == 0
        assert "15,530,390" in capsys.readouterr().out

    def test_toy_preset(self, capsys):
        assert cli.main(["params", "--preset", "toy"]) == 0
        assert "total" in capsys.readouterr().out


class TestGradcheckCommand:
    def test_single_module_passes(self, capsys):
        assert cli.main(["gradcheck", "--module", "lstm"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_unknown_module_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["gradcheck", "--module", "bogus"])


class TestTrainEval:
    def test_train_then_eval_round_trip(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(
            '{"epochs": 3, "seed": 5, "samples_per_class": 5, "map_size": 32}'
        )
        run_dir = tmp_path / "run"
        assert cli.main(["train-toy", "--config", str(config),
                         "--out", str(run_dir)]) == 0
        assert (run_dir / "metrics.csv").exists()
        assert (run_dir / "dataset" / "index.json").exists()

        manifest = json.loads((run_dir / "manifest.json").read_text())
        train_acc = manifest["summary"]["train_accuracy"]

        eval_dir = tmp_path / "eval"
        assert cli.main(["eval", "--ckpt", str(run_dir / "checkpoint"),
                         "--data", str(run_dir / "dataset"),
                         "--out", str(eval_dir)]) == 0
        rows = (eval_dir / "metrics.csv").read_text().strip().splitlines()
        overall = float(rows[-1].split(",")[1])
        # The reloaded checkpoint reproduces the in-process evaluation
        # (metrics.csv carries six decimals).
        assert overall == pytest.approx(train_acc, abs=1e-6)
        confusion = (eval_dir / "confusion.csv").read_text().splitlines()
        assert len(confusion) == 7  # header + 6 classes

    # Each is rejected when the config is parsed, before the dataset is
    # rendered.
    @pytest.mark.parametrize("config", [
        {"decay_every_epochs": 0},
        {"samples_per_class": 0},
        {"model_preset": "b1"},
        {"epoch": 3},
        {"epochs": "3"},
        {"split": [0.6, 0.2, 0.2]},
    ], ids=["zero_decay_period", "no_samples", "unknown_preset", "unknown_key",
            "string_epochs", "no_op_split"])
    def test_bad_config(self, tmp_path, config):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"samples_per_class": 5, "map_size": 32, **config}))
        run_dir = tmp_path / "run"
        assert cli.main(["train-toy", "--config", str(path), "--out", str(run_dir)]) == 2
        assert not run_dir.exists()


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    """An untrained toy checkpoint and a one-sample-per-class dataset for it."""
    root = tmp_path_factory.mktemp("toy_run")
    save_checkpoint(root / "checkpoint", MultiDomainModel(preset("toy"), seed=2))
    training.save_toy_dataset(root / "dataset", samples_per_class=1, seed=0, map_size=32)
    return root


def _edit_manifest(ckpt, change):
    path = ckpt / "manifest.json"
    manifest = json.loads(path.read_text())
    change(manifest)
    path.write_text(json.dumps(manifest))


def _set_shape(manifest, name, shape):
    next(e for e in manifest["params"] if e["name"] == name)["shape"] = shape


def _omit(manifest, section, name):
    manifest[section] = [e for e in manifest[section] if e["name"] != name]


BLOB = Path("params") / "fusion.linear.w.f32"


class TestMalformedCheckpoints:
    """Checkpoints that do not describe a loadable model are input errors."""

    def eval_exit_code(self, tmp_path, toy_run, corrupt, capsys):
        ckpt = tmp_path / "checkpoint"
        shutil.copytree(toy_run / "checkpoint", ckpt)
        corrupt(ckpt)
        code = cli.main(["eval", "--ckpt", str(ckpt), "--data", str(toy_run / "dataset"),
                         "--out", str(tmp_path / "eval"), "--json"])
        err = capsys.readouterr().err
        return code, json.loads(err)["error"] if err else None

    def test_intact_checkpoint_evaluates(self, tmp_path, toy_run, capsys):
        assert self.eval_exit_code(tmp_path, toy_run, lambda ckpt: None, capsys) == (0, None)

    @pytest.mark.parametrize("corrupt", [
        lambda ckpt: (ckpt / BLOB).write_bytes((ckpt / BLOB).read_bytes()[:-4]),
        lambda ckpt: _edit_manifest(
            ckpt, lambda m: _set_shape(m, "fusion.linear.w", [48, 6])),
        lambda ckpt: _edit_manifest(ckpt, lambda m: m.update(format_version=9)),
        lambda ckpt: _edit_manifest(ckpt, lambda m: m["config"].update(attention="se")),
        lambda ckpt: _edit_manifest(ckpt, lambda m: _omit(m, "params", "fusion.linear.w")),
        lambda ckpt: _edit_manifest(
            ckpt, lambda m: _omit(m, "buffers", "rt.backbone.stem_bn.running_mean")),
    ], ids=["truncated_blob", "swapped_shape", "unknown_version", "se_config",
            "omitted_param", "omitted_buffer"])
    def test_malformed(self, tmp_path, toy_run, corrupt, capsys):
        assert self.eval_exit_code(tmp_path, toy_run, corrupt, capsys) == (
            2, "CheckpointError")

    def test_missing_blob(self, tmp_path, toy_run, capsys):
        code, _ = self.eval_exit_code(tmp_path, toy_run,
                                      lambda ckpt: (ckpt / BLOB).unlink(), capsys)
        assert code == 2


SMALL = radar_io.RadarParams(5.8e9, 1e-3, 8, 4e8)


def parse_exit_code(name, raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(raw)
        return cli.main(["parse", str(path), "--out", str(Path(tmp) / "out")])


class TestMalformedRecordings:
    """Malformed recordings are input errors (exit 2), never internal ones."""

    @given(
        codec=st.sampled_from(["ascii", "binary"]),
        index=st.integers(min_value=0, max_value=4 * 8 - 1),
        bad=st.sampled_from([np.nan, np.inf, -np.inf]),
        imaginary=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_non_finite_sample(self, codec, index, bad, imaginary):
        data = np.ones(4 * 8, dtype=complex)
        data[index] = complex(1.0, bad) if imaginary else complex(bad, 1.0)
        echo = radar_io.EchoMatrix(params=SMALL, data=data.reshape(4, 8))
        raw = radar_io.write_dat(SMALL, echo, codec=codec)
        name = "rec.datb" if codec == "binary" else "rec.dat"
        with pytest.raises(radar_io.NonFiniteSample):
            radar_io.parse_dat(raw, codec=codec)
        assert parse_exit_code(name, raw) == 2

    @given(cut=st.integers(min_value=1, max_value=4 * 8 * 16 + 48))
    @settings(max_examples=25, deadline=None)
    def test_truncated_datb(self, cut):
        echo = radar_io.EchoMatrix(params=SMALL, data=np.ones((4, 8), dtype=complex))
        raw = radar_io.write_dat(SMALL, echo, codec="binary")
        assert parse_exit_code("rec.datb", raw[: len(raw) - cut]) == 2


def test_manifest_contents(tmp_path, echo_file):
    out = tmp_path / "maps"
    assert cli.main(["maps", str(echo_file), "--domains", "rt",
                     "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "maps"
    assert manifest["tool_version"]
    assert len(manifest["config_hash"]) == 16
    assert str(echo_file) in manifest["inputs"][0]
    assert manifest["wall_time_s"] >= 0
