import re
from dataclasses import fields
from pathlib import Path

import pytest

import fmcwhar
from fmcwhar.nn import (
    MultiDomainModel,
    count_flops,
    count_params,
    load_checkpoint,
    save_checkpoint,
)
from fmcwhar.nn.config import ModelConfig, StageSpec, preset
from fmcwhar.nn.counting import (
    REFERENCE_SE_BASELINE_TRAINABLE,
    REFERENCE_TOTAL_FLOPS,
    REFERENCE_TOTAL_PARAMS,
    count_se_baseline,
)


class TestBackboneParams:
    def test_se_baseline_within_two_percent(self):
        report = count_se_baseline(preset("b0"))
        rel = abs(report.total - REFERENCE_SE_BASELINE_TRAINABLE)
        assert rel / REFERENCE_SE_BASELINE_TRAINABLE < 0.02
        # The exact stock value, for the record.
        assert report.total == 5_288_548
        assert report.non_trainable == 42_016

    def test_b0_totals_exact(self):
        report = count_params(preset("b0"))
        assert report.total == 23_394_710
        assert report.non_trainable == 126_048

    def test_classifier_breakdown(self):
        se = count_se_baseline(preset("b0"))
        assert se.per_module["classifier"] == 1280 * 1000 + 1000
        assert "classifier" not in count_params(preset("b0")).per_module


# Configs small enough to build: the toy preset, and b0's stage table
# (repeats > 1) on small single-channel maps.
BUILT = {"toy": preset("toy"), "b0": preset("b0", input_hw=32, in_channels=1, lstm_hidden=16)}


class TestFullModelParams:
    def test_hxc_rule_within_twenty_percent_of_reference(self):
        total = count_params(preset("b0")).total
        assert abs(total - REFERENCE_TOTAL_PARAMS) / REFERENCE_TOTAL_PARAMS < 0.20
        # It actually lands within half a percent.
        assert abs(total - REFERENCE_TOTAL_PARAMS) / REFERENCE_TOTAL_PARAMS < 0.005

    def test_breakdown_sums_to_total(self):
        report = count_params(preset("b0"))
        assert sum(report.per_module.values()) == report.total
        assert {"rt.lstm", "dt.lstm", "rd.head", "fusion"} <= set(report.per_module)

    def test_rd_head_and_fusion_counts(self):
        report = count_params(preset("b0"))
        assert report.per_module["rd.head"] == 8960 * 128 + 128 == 1_147_008
        assert report.per_module["fusion"] == 384 * 6 + 6 == 2310

    @pytest.mark.parametrize("cfg", BUILT.values(), ids=BUILT.keys())
    def test_static_walk_matches_instantiation(self, cfg):
        model = MultiDomainModel(cfg, seed=0)
        assert sum(p.size for p in model.params().values()) == count_params(cfg).total

    @pytest.mark.parametrize("cfg", BUILT.values(), ids=BUILT.keys())
    def test_per_module_rows_match_instantiation(self, cfg):
        params = MultiDomainModel(cfg, seed=0).params()
        built = {module: sum(p.size for name, p in params.items()
                             if name.startswith(module + "."))
                 for module in count_params(cfg).per_module}
        assert count_params(cfg).per_module == built
        assert sum(built.values()) == sum(p.size for p in params.values())


class TestFlops:
    def test_full_model_against_reference(self):
        total = count_flops(preset("b0")).total
        # MAC convention: convolutions + linear/recurrent matrix products.
        assert abs(total - REFERENCE_TOTAL_FLOPS) / REFERENCE_TOTAL_FLOPS < 0.10

    def test_b0_totals_exact(self):
        assert count_flops(preset("b0")).total == 1_236_947_534

    def test_one_branch_magnitude(self):
        report = count_flops(preset("b0"))
        backbone = report.per_module["rt.backbone"]
        assert 3.5e8 < backbone < 4.5e8  # the stock backbone is ~0.39 GMACs

    def test_flops_scale_with_input(self):
        small = count_flops(preset("b0", input_hw=112)).total
        large = count_flops(preset("b0")).total
        assert large > 2.5 * small


def test_preset_table_matches_declared_stage_table():
    cfg = preset("b0")
    declared = [
        (16, 3, 1, 1), (24, 3, 6, 2), (40, 5, 6, 2), (80, 3, 6, 2),
        (112, 5, 6, 1), (192, 5, 6, 2), (320, 3, 6, 1),
    ]
    assert [(s.out_channels, s.kernel, s.expand_ratio, s.stride) for s in cfg.stages] \
        == declared
    assert [s.repeats for s in cfg.stages] == [1, 2, 2, 3, 3, 4, 1]


def test_toy_preset_caps_channels():
    cfg = preset("toy")
    assert cfg.input_hw == 32 and cfg.in_channels == 1
    assert all(s.out_channels <= 8 for s in cfg.stages)


def test_config_validation():
    with pytest.raises(ValueError, match="at least one stage"):
        ModelConfig(stages=())
    with pytest.raises(ValueError, match="repeats"):
        ModelConfig(stages=(StageSpec(8, 3, 1, 1, repeats=0),))


def test_config_json_round_trip(tmp_path):
    # A checkpoint's manifest is where a config is stored as JSON.
    cfg = preset("toy", lstm_hidden=8)
    save_checkpoint(tmp_path, MultiDomainModel(cfg))
    assert load_checkpoint(tmp_path).cfg == cfg


def test_every_config_field_is_read():
    # A field that no code reads is a dormant option; this keeps one from
    # coming back.
    source = "\n".join(path.read_text()
                       for path in Path(fmcwhar.__file__).parent.rglob("*.py"))
    unread = [f.name for f in fields(ModelConfig)
              if not re.search(rf"\bcfg\.{f.name}\b", source)]
    assert unread == []
