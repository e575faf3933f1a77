import argparse
import json
import shutil
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import _traced_peak

from fmcwhar import cli
from fmcwhar import domain_maps as dm
from fmcwhar import radar_io, training
from fmcwhar.nn import MultiDomainModel, gradcheck, save_checkpoint
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

    # The params, the scene and the echo are built before the output's
    # directory is made.
    @pytest.mark.parametrize("option", [["--samples", "0"], ["--chirp-s", "0.3"]],
                             ids=["zero_samples", "chirp_not_dividing_scene"])
    def test_bad_input_writes_nothing(self, tmp_path, option):
        out = tmp_path / "new" / "x.datb"
        assert cli.main(["synth", "--kind", "walk", *option, "--out", str(out)]) == 2
        assert not out.parent.exists()


class TestParse:
    def test_outputs(self, tmp_path, echo_file):
        out = tmp_path / "parsed"
        assert cli.main(["parse", str(echo_file), "--out", str(out)]) == 0
        header = json.loads((out / "header.json").read_text())
        assert header["n_chirps"] == 1920
        assert sorted(p.name for p in out.iterdir()) == [
            "echo.datb", "header.json", "manifest.json"]
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

    # Two samples per chirp leave the Doppler-time range interval outside
    # the range bins; the DT map rejects the recording, and the failed
    # command removes the --out it made for the RT map.
    def test_rejected_recording_writes_nothing(self, tmp_path, capsys):
        src = tmp_path / "two.datb"
        assert cli.main(["synth", "--kind", "walk", "--samples", "2",
                         "--out", str(src)]) == 0
        out = tmp_path / "m"
        assert cli.main(["maps", str(src), "--out", str(out), "--json"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "RangeIntervalOutOfBounds"
        assert not out.exists()

    # Rejected before the recording is read, so no output directory appears.
    @pytest.mark.parametrize("domains", [",", "rt,rt"], ids=["empty", "repeated"])
    def test_malformed_domain_list_rejected(self, tmp_path, echo_file, domains):
        out = tmp_path / "m"
        assert cli.main(["maps", str(echo_file), "--domains", domains,
                         "--out", str(out)]) == 2
        assert not out.exists()


# Peak traced bytes of ``maps`` on the toy walk recording, as a multiple
# of its echo's bytes. Measured: 4.18 while the command held the echo
# beside the maps; 3.18 with the echo freed after the range FFT.
MAPS_PEAK_RATIO = 3.5


def test_maps_peak_memory(tmp_path, echo_file):
    echo_bytes = radar_io.load_recording(echo_file).echo.data.nbytes
    code, peak = _traced_peak(cli.main, ["maps", str(echo_file), "--out", str(tmp_path / "m")])
    assert code == 0
    assert peak <= MAPS_PEAK_RATIO * echo_bytes, peak / echo_bytes


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
        policy_path.write_text(json.dumps(asdict(AugmentPolicy(var_mid=0.25, seed=9))))
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
                                        '{"low_threshold": "0.3"}',
                                        '{"seed": 1.5}', '{"seed": true}',
                                        '{"var_low": true}', '{"var_mid": false}',
                                        '{"var_low": NaN}',
                                        '{"var_mid": Infinity}',
                                        '{"var_mid": 1%s}' % ("0" * 400)],
                             ids=["unknown_key", "string_threshold", "float_seed",
                                  "bool_seed", "bool_var_low", "bool_var_mid",
                                  "nan_var_low", "infinite_var_mid", "huge_int_var_mid"])
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

    @pytest.mark.parametrize("edit", [
        lambda meta: meta.update(domain="xt"),
        lambda meta: meta["params"].update(antenna_gain_db=3.0),
        lambda meta: meta.update(shape="64x64"),
        lambda meta: meta["row_axis"].update(step="0.016"),
        lambda meta: meta["row_axis"].update(start="zero"),
        lambda meta: meta["col_axis"].update(step=True),
        lambda meta: [meta],
        lambda meta: meta["params"].update(samples_per_chirp=True),
        lambda meta: meta["row_axis"].update(start=float("nan")),
        lambda meta: meta["col_axis"].update(step=float("inf")),
        lambda meta: meta["row_axis"].update(unit=None),
        lambda meta: meta["col_axis"].update(name=5),
        lambda meta: meta["row_axis"].update(offset=0.0),
    ], ids=["unknown_domain", "unknown_param", "string_shape", "string_step",
            "string_start", "bool_step", "list_sidecar", "bool_samples", "nan_start",
            "inf_step", "null_unit", "number_name", "unknown_axis_key"])
    def test_malformed_sidecar(self, tmp_path, echo_file, edit, capsys):
        maps_dir = tmp_path / "maps"
        assert cli.main(["maps", str(echo_file), "--domains", "dt",
                         "--out", str(maps_dir)]) == 0
        sidecar = maps_dir / "dt.json"
        meta = json.loads(sidecar.read_text())
        sidecar.write_text(json.dumps(edit(meta) or meta))
        out = tmp_path / "aug" / "aug.smap"
        assert cli.main(["augment", str(maps_dir / "dt.smap"), "--seed", "5",
                         "--out", str(out), "--json"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "DomainMapError"
        assert not out.parent.exists()

    def test_manifest_lists_every_output(self, tmp_path, echo_file):
        maps_dir = tmp_path / "maps"
        assert cli.main(["maps", str(echo_file), "--domains", "dt",
                         "--out", str(maps_dir)]) == 0
        out = tmp_path / "aug"
        assert cli.main(["augment", str(maps_dir / "dt.smap"), "--seed", "5",
                         "--out", str(out / "n.smap")]) == 0
        manifest = out / "n.smap.manifest.json"
        written = sorted(str(p) for p in out.iterdir() if p != manifest)
        assert sorted(json.loads(manifest.read_text())["outputs"]) == written

    @pytest.mark.parametrize("blocked", ["aug.smap", "aug.json"])
    def test_failed_map_save_leaves_nothing(self, tmp_path, echo_file, blocked):
        maps_dir = tmp_path / "maps"
        assert cli.main(["maps", str(echo_file), "--domains", "dt",
                         "--out", str(maps_dir)]) == 0
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        assert cli.main(["augment", str(maps_dir / "dt.smap"), "--seed", "5",
                         "--out", str(out / "aug.smap")]) == 2
        assert sorted(out.iterdir()) == [out / blocked]

def _dt_map(echo, tmp):
    """The DT map of ``echo``, written under ``tmp``."""
    assert cli.main(["maps", str(echo), "--domains", "dt", "--out", str(tmp / "maps")]) == 0
    return str(tmp / "maps" / "dt.smap")


def _blocked(path, suffix):
    """``path``, with a directory where a command writes ``path`` + ``suffix``."""
    Path(f"{path}{suffix}").mkdir(parents=True)
    return str(path)


# Each names a path of the wrong kind: a directory where a file is read or
# replaced, a file where a directory is read or made. The last three block
# an output that a command writes after others, which it must then remove.
@pytest.mark.parametrize("argv", [
    lambda echo, d, f, tmp: ["parse", str(d), "--out", str(tmp / "out")],
    lambda echo, d, f, tmp: ["maps", str(d), "--out", str(tmp / "out")],
    lambda echo, d, f, tmp: ["train-toy", "--config", str(d), "--out", str(tmp / "out")],
    lambda echo, d, f, tmp: ["augment", str(tmp / "in.smap"), "--policy", str(d),
                             "--out", str(tmp / "out.smap")],
    lambda echo, d, f, tmp: ["eval", "--ckpt", str(f), "--data", str(d),
                             "--out", str(tmp / "out")],
    lambda echo, d, f, tmp: ["parse", str(echo), "--out", str(f)],
    lambda echo, d, f, tmp: ["synth", "--kind", "sit", "--samples", "16", "--out", str(d)],
    lambda echo, d, f, tmp: ["synth", "--kind", "walk", "--seed", "1", "--samples", "16",
                             "--out", _blocked(tmp / "a.datb", ".scene.json")],
    lambda echo, d, f, tmp: ["maps", str(echo), "--out", _blocked(tmp / "m", "/dt.smap")],
    lambda echo, d, f, tmp: ["augment", _dt_map(echo, tmp),
                             "--out", _blocked(tmp / "n.smap", ".manifest.json")],
], ids=["parse_dir", "maps_dir", "config_dir", "policy_dir", "ckpt_file", "parse_out_file",
        "synth_out_dir", "synth_scene_dir", "maps_dt_dir", "augment_manifest_dir"])
def test_path_of_the_wrong_kind(tmp_path, echo_file, argv):
    directory, file = tmp_path / "rec.datb", tmp_path / "file"
    directory.mkdir()
    file.write_text("{}")
    args = argv(echo_file, directory, file, tmp_path)
    before = sorted(tmp_path.rglob("*"))
    assert cli.main(args) == 2
    assert sorted(tmp_path.rglob("*")) == before


class TestParams:
    def test_b0_table(self, capsys, tmp_path):
        out = tmp_path / "params.txt"
        assert cli.main(["params", "--preset", "b0", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "5,288,548" in text
        assert "23,394,710" in text
        assert "single-branch SE baseline" in text
        assert out.read_text().strip() in text

    # One reading of the network: no option picks another sequence layout
    # or stage table.
    def test_c_rule(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["params", "--preset", "b0", "--lstm-rule", "c"])
        assert exc.value.code == 2

    def test_table1_literal_preset(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["params", "--preset", "table1_literal"])
        assert exc.value.code == 2

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

    def test_failed_check_exits_3(self, monkeypatch):
        monkeypatch.setattr(gradcheck, "check_layer",
                            lambda name, *built: gradcheck.GradCheckResult(name, 1.0))
        assert cli.main(["gradcheck", "--module", "loss"]) == 3

    def test_internal_error_exits_4(self, monkeypatch, capsys):
        def fail(cfg):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "count_params", fail)
        assert cli.main(["params", "--preset", "toy", "--json"]) == 4
        assert json.loads(capsys.readouterr().err) == {"error": "RuntimeError",
                                                       "message": "boom"}

    def test_groups_partition_the_cases(self, monkeypatch):
        # Each case runs in exactly one --module group, and "all" runs their union.
        monkeypatch.setattr(gradcheck, "check_layer",
                            lambda name, *built: gradcheck.GradCheckResult(name, 0.0))
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        modules = next(a.choices for a in sub.choices["gradcheck"]._actions
                       if a.dest == "module")
        names = [r.name for m in modules if m != "all" for r in gradcheck.run_gradcheck(m)]
        assert len(names) == len(set(names))
        assert sorted(names) == sorted(r.name for r in gradcheck.run_gradcheck("all"))


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
        {"decay_factor": -2.0},
        {"decay_factor": 0},
        {"lr0": float("nan")},
        {"decay_factor": float("inf")},
        {"epochs": 1.5},
        {"map_size": 32.5},
        {"batch_size": 2.5},
        {"samples_per_class": 1.5},
        {"seed": 1.5},
        {"seed": True},
        {"lr0": True},
        {"decay_factor": True},
        {"lr0": 10**400},
        {"decay_factor": 10**400},
    ], ids=["zero_decay_period", "no_samples", "unknown_preset", "unknown_key",
            "string_epochs", "no_op_split", "negative_decay", "zero_decay", "nan_lr",
            "infinite_decay", "float_epochs", "float_map_size", "float_batch_size",
            "float_samples", "float_seed", "bool_seed", "bool_lr", "bool_decay",
            "huge_int_lr", "huge_int_decay"])
    def test_bad_config(self, tmp_path, config):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"samples_per_class": 5, "map_size": 32, **config}))
        run_dir = tmp_path / "run"
        assert cli.main(["train-toy", "--config", str(path), "--out", str(run_dir)]) == 2
        assert not run_dir.exists()


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory, echo_file):
    """An untrained toy checkpoint, a one-sample-per-class dataset for it,
    and the DT map of a recording."""
    root = tmp_path_factory.mktemp("toy_run")
    save_checkpoint(root / "checkpoint", MultiDomainModel(preset("toy"), seed=2))
    training.save_toy_dataset(root / "dataset", samples_per_class=1, seed=0, map_size=32)
    assert cli.main(["maps", str(echo_file), "--domains", "dt", "--out", str(root / "maps")]) == 0
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


def _set_stage(manifest, **values):
    manifest["config"]["stages"][0].update(values)


BLOB = Path("params.f32")


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
        lambda ckpt: _edit_manifest(ckpt, lambda m: m.update(params=5)),
        lambda ckpt: _edit_manifest(ckpt, lambda m: _set_stage(m, stride=0)),
        lambda ckpt: _edit_manifest(ckpt, lambda m: _set_stage(m, kernel=0)),
        lambda ckpt: _edit_manifest(ckpt, lambda m: _set_stage(m, repeats=True)),
        lambda ckpt: _edit_manifest(ckpt, lambda m: _set_stage(m, out_channels=4.0)),
        lambda ckpt: _edit_manifest(ckpt, lambda m: m["config"].update(lstm_hidden=0)),
        lambda ckpt: _edit_manifest(ckpt, lambda m: m["config"].update(input_hw=-4)),
        lambda ckpt: _edit_manifest(ckpt, lambda m: m["config"].pop("stages")),
        lambda ckpt: _edit_manifest(ckpt, lambda m: m["params"][0].pop("name")),
        lambda ckpt: _edit_manifest(ckpt, lambda m: m["buffers"][0].pop("shape")),
        lambda ckpt: _edit_manifest(
            ckpt, lambda m: _set_shape(m, "fusion.linear.w", "ab")),
        lambda ckpt: _edit_manifest(
            ckpt, lambda m: _set_shape(m, "fusion.linear.w", [-6, -48])),
        lambda ckpt: _edit_manifest(
            ckpt, lambda m: _set_shape(m, "fusion.linear.w", [6.0, 48])),
        lambda ckpt: _edit_manifest(
            ckpt, lambda m: m["params"].append({"name": "fusion.linear.v", "shape": [1]})),
        lambda ckpt: (ckpt / "manifest.json").write_text("[1, 2]"),
        lambda ckpt: _edit_manifest(ckpt, lambda m: m.update(seed=True)),
        lambda ckpt: _edit_manifest(ckpt, lambda m: m.pop("seed")),
        lambda ckpt: (ckpt / "buffers.f32").write_bytes((ckpt / "buffers.f32").read_bytes()[:-4]),
        lambda ckpt: (ckpt / BLOB).write_bytes((ckpt / BLOB).read_bytes() + bytes(4)),
        lambda ckpt: _edit_manifest(ckpt, lambda m: m["params"].insert(0, m["params"][0])),
        # The stem batch norm's gamma and beta: one shape, told apart by order.
        lambda ckpt: _edit_manifest(ckpt, lambda m: m["params"].insert(1, m["params"].pop(2))),
        # A width whose arrays would not fit in memory: refused before any allocation.
        lambda ckpt: _edit_manifest(ckpt, lambda m: m["config"].update(head_channels=10**12)),
    ], ids=["truncated_blob", "swapped_shape", "unknown_version", "se_config",
            "omitted_param", "omitted_buffer", "params_not_a_list", "zero_stride",
            "zero_kernel", "bool_repeats", "float_stage_width", "zero_lstm_hidden",
            "negative_input_hw", "no_stage_table", "unnamed_param", "buffer_without_shape",
            "string_shape", "negative_shape", "float_shape", "unknown_param",
            "manifest_not_an_object", "bool_seed", "no_seed", "truncated_buffers_blob",
            "trailing_bytes", "duplicate_param", "swapped_param_order", "absurd_width"])
    def test_malformed(self, tmp_path, toy_run, corrupt, capsys):
        assert self.eval_exit_code(tmp_path, toy_run, corrupt, capsys) == (
            2, "CheckpointError")
        assert not (tmp_path / "eval").exists()

    # Version 1 configs also held the derived widths and fixed options;
    # version 2 configs held the sequence rule; version 3 stored one blob
    # per array.
    @pytest.mark.parametrize("version, old_fields", [
        (1, dict(cbam_reduction=16, rd_linear_out=16, fused_dim=48, dropout_p=0.2,
                 attention="cbam", include_classifier=False, name="toy")),
        (2, dict(lstm_feature_dim_rule="hxc")),
        (3, {}),
    ], ids=["version_1", "version_2", "version_3"])
    def test_old_version_manifest(self, tmp_path, toy_run, capsys, version, old_fields):
        def downgrade(manifest):
            manifest["format_version"] = version
            manifest["config"].update(old_fields)

        ckpt = tmp_path / "checkpoint"
        shutil.copytree(toy_run / "checkpoint", ckpt)
        _edit_manifest(ckpt, downgrade)
        assert cli.main(["eval", "--ckpt", str(ckpt), "--data", str(toy_run / "dataset"),
                         "--out", str(tmp_path / "eval")]) == 2
        err = capsys.readouterr().err
        assert f"unsupported checkpoint version {version}" in err
        assert "fused_dim" not in err and "lstm_feature_dim_rule" not in err

    def test_missing_blob(self, tmp_path, toy_run, capsys):
        code, _ = self.eval_exit_code(tmp_path, toy_run,
                                      lambda ckpt: (ckpt / BLOB).unlink(), capsys)
        assert code == 2


def _edit_index(data, change):
    path = data / "index.json"
    index = json.loads(path.read_text())
    change(index)
    path.write_text(json.dumps(index))


def _enlarge_last_map(data, key, size):
    blob = data / f"{key}.f32"
    maps = np.fromfile(blob, dtype="<f4").reshape(-1, 32, 32)
    pad = (size - 32) // 2
    blob.write_bytes(maps[:-1].tobytes() + np.pad(maps[-1], pad, mode="edge").tobytes())


class TestMalformedDatasets:
    """Datasets that do not describe a batch the model can run are input
    errors, raised before any forward pass."""

    @pytest.mark.parametrize("corrupt, error", [
        (lambda data: (data / "index.json").write_text("[]"), "TrainingError"),
        (lambda data: _edit_index(data, lambda index: index.update(labels="abc")),
         "TrainingError"),
        (lambda data: _edit_index(data, lambda index: index.update(labels=[])),
         "TrainingError"),
        (lambda data: _edit_index(data, lambda index: index["labels"].__setitem__(2, [1, 2])),
         "LabelOutOfRange"),
        # The last sample's RT map is 48 px, the others 32 px.
        (lambda data: _enlarge_last_map(data, "rt", 48), "TrainingError"),
        # Every map is 48 px; the checkpoint's model takes 32 px.
        (lambda data: training.save_toy_dataset(data, 1, 0, 48), "TrainingError"),
        (lambda data: _edit_index(data, lambda index: index.pop("labels")), "TrainingError"),
        (lambda data: (data / "dt.f32").unlink(), "FileNotFoundError"),
        (lambda data: (data / "rt.f32").write_bytes((data / "rt.f32").read_bytes()[:-4]),
         "TrainingError"),
        (lambda data: (data / "rd.f32").write_bytes((data / "rd.f32").read_bytes() + bytes(4)),
         "TrainingError"),
        # Maps that would not fit in memory: refused before any allocation.
        (lambda data: _edit_index(data, lambda index: index.update(map_size=10**9)),
         "TrainingError"),
        (lambda data: _edit_index(data, lambda index: index.update(map_size="32")),
         "TrainingError"),
    ], ids=["index_not_an_object", "string_samples", "no_samples", "list_entry",
            "mixed_map_sizes", "maps_larger_than_model", "missing_label", "missing_map",
            "truncated_blob", "trailing_bytes", "absurd_map_size", "string_map_size"])
    def test_malformed(self, tmp_path, toy_run, corrupt, error, capsys):
        data = tmp_path / "dataset"
        shutil.copytree(toy_run / "dataset", data)
        corrupt(data)
        code = cli.main(["eval", "--ckpt", str(toy_run / "checkpoint"), "--data", str(data),
                         "--out", str(tmp_path / "eval"), "--json"])
        assert (code, json.loads(capsys.readouterr().err)["error"]) == (2, error)
        assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("label", [-1, 6, 9, 1.5, True, 2**70],
                         ids=["negative", "num_classes", "nine", "fraction", "bool", "huge"])
def test_eval_rejects_bad_label(tmp_path, toy_run, label, capsys):
    data = tmp_path / "dataset"
    shutil.copytree(toy_run / "dataset", data)
    _edit_index(data, lambda index: index["labels"].__setitem__(2, label))
    code = cli.main(["eval", "--ckpt", str(toy_run / "checkpoint"), "--data", str(data),
                     "--out", str(tmp_path / "eval"), "--json"])
    assert (code, json.loads(capsys.readouterr().err)["error"]) == (2, "LabelOutOfRange")
    assert not (tmp_path / "eval").exists()


# More digits than Python converts to an int: json.loads raises ValueError.
HUGE = "1" + "0" * 5000
MAP = "maps/dt.smap"
EVAL = ["eval", "--ckpt", "checkpoint", "--data", "dataset", "--out", "eval"]


# Each sets one value of one JSON input to HUGE; paths are relative to the
# run directory, which holds a copy of the toy checkpoint, dataset and maps.
@pytest.mark.parametrize("target, keys, argv", [
    ("cfg.json", ["lr0"], ["train-toy", "--config", "cfg.json", "--out", "run"]),
    ("p.json", ["var_mid"], ["augment", MAP, "--policy", "p.json", "--out", "aug.smap"]),
    ("maps/dt.json", ["params", "samples_per_chirp"], ["augment", MAP, "--out", "aug.smap"]),
    ("checkpoint/manifest.json", ["seed"], EVAL),
    ("dataset/index.json", ["labels", 0], EVAL),
], ids=["config", "policy", "sidecar", "checkpoint_seed", "dataset_label"])
def test_json_integer_beyond_the_digit_limit(tmp_path, toy_run, monkeypatch,
                                             target, keys, argv):
    monkeypatch.chdir(tmp_path)
    for name in ("checkpoint", "dataset", "maps"):
        shutil.copytree(toy_run / name, name)
    path = Path(target)
    doc = json.loads(path.read_text()) if path.exists() else {}
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = "HUGE"
    path.write_text(json.dumps(doc).replace('"HUGE"', HUGE))
    before = sorted(tmp_path.rglob("*"))
    assert cli.main(argv) == 2
    assert sorted(tmp_path.rglob("*")) == before


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

    @pytest.mark.parametrize("command", ["parse", "maps"])
    def test_datb_with_trailing_bytes(self, tmp_path, command, capsys):
        echo = radar_io.EchoMatrix(params=SMALL, data=np.ones((4, 8), dtype=complex))
        path = tmp_path / "rec.datb"
        path.write_bytes(radar_io.write_dat(SMALL, echo, codec="binary") + bytes(24))
        code = cli.main([command, str(path), "--out", str(tmp_path / "out"), "--json"])
        err = json.loads(capsys.readouterr().err)
        assert (code, err["error"]) == (2, "RadarIoError")
        assert err["message"].startswith("trailing bytes: header declares 32 entries")
        assert [p.name for p in tmp_path.iterdir()] == ["rec.datb"]


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
