import pytest

from fmcwhar.nn import MultiDomainModel, count_flops, count_params
from fmcwhar.nn.config import ModelConfig, StageSpec, preset
from fmcwhar.nn.counting import (
    REFERENCE_SE_BASELINE_TRAINABLE,
    REFERENCE_TOTAL_FLOPS,
    REFERENCE_TOTAL_PARAMS,
    count_backbone_params,
)


class TestBackboneParams:
    def test_se_baseline_within_two_percent(self):
        cfg = preset("b0", attention="se", include_classifier=True)
        report = count_backbone_params(cfg)
        rel = abs(report.total - REFERENCE_SE_BASELINE_TRAINABLE)
        assert rel / REFERENCE_SE_BASELINE_TRAINABLE < 0.02
        # The exact stock value, for the record.
        assert report.total == 5_288_548
        assert report.non_trainable == 42_016

    @pytest.mark.parametrize("rule, total", [("hxc", 23_394_710), ("c", 15_530_390)])
    def test_b0_totals_exact(self, rule, total):
        report = count_params(preset("b0", lstm_feature_dim_rule=rule))
        assert report.total == total
        assert report.non_trainable == 126_048

    def test_classifier_breakdown(self):
        with_clf = count_backbone_params(preset("b0", include_classifier=True))
        without = count_backbone_params(preset("b0"))
        assert with_clf.total - without.total == 1280 * 1000 + 1000


WALK_CASES = [(name, attention, rule) for name in ("toy", "table1_literal")
              for attention in ("cbam", "none") for rule in ("hxc", "c")]


class TestFullModelParams:
    def test_hxc_rule_within_twenty_percent_of_reference(self):
        total = count_params(preset("b0")).total
        assert abs(total - REFERENCE_TOTAL_PARAMS) / REFERENCE_TOTAL_PARAMS < 0.20
        # It actually lands within half a percent.
        assert abs(total - REFERENCE_TOTAL_PARAMS) / REFERENCE_TOTAL_PARAMS < 0.005

    def test_c_rule_total_smaller(self):
        hxc = count_params(preset("b0")).total
        c = count_params(preset("b0", lstm_feature_dim_rule="c")).total
        assert c < hxc
        # Less recurrent input means exactly the LSTM input-map difference.
        diff = 2 * 4 * (8960 - 1280) * 128
        assert hxc - c == diff

    def test_breakdown_sums_to_total(self):
        report = count_params(preset("b0"))
        assert sum(report.per_module.values()) == report.total
        assert {"rt.lstm", "dt.lstm", "rd.head", "fusion"} <= set(report.per_module)

    def test_rd_head_and_fusion_counts(self):
        report = count_params(preset("b0"))
        assert report.per_module["rd.head"] == 8960 * 128 + 128 == 1_147_008
        assert report.per_module["fusion"] == 384 * 6 + 6 == 2310

    # Ids name only what differs from the default cbam/hxc network.
    @pytest.mark.parametrize("name, attention, rule", WALK_CASES, ids=[
        "-".join(v for v in case if v not in ("cbam", "hxc")) for case in WALK_CASES])
    def test_static_walk_matches_instantiation(self, name, attention, rule):
        small = {} if name == "toy" else dict(input_hw=32, in_channels=1, lstm_hidden=16,
                                              rd_linear_out=16, fused_dim=48)
        cfg = preset(name, attention=attention, lstm_feature_dim_rule=rule, **small)
        model = MultiDomainModel(cfg, seed=0)
        assert model.n_params() == count_params(cfg).total


class TestFlops:
    def test_full_model_against_reference(self):
        total = count_flops(preset("b0")).total
        # MAC convention: convolutions + linear/recurrent matrix products.
        assert abs(total - REFERENCE_TOTAL_FLOPS) / REFERENCE_TOTAL_FLOPS < 0.10

    @pytest.mark.parametrize("rule, total", [("hxc", 1_236_947_534), ("c", 1_181_897_294)])
    def test_b0_totals_exact(self, rule, total):
        assert count_flops(preset("b0", lstm_feature_dim_rule=rule)).total == total

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
    literal = preset("table1_literal")
    assert all(s.repeats == 1 for s in literal.stages)


def test_toy_preset_caps_channels():
    cfg = preset("toy")
    assert cfg.input_hw == 32 and cfg.in_channels == 1
    assert all(s.out_channels <= 8 for s in cfg.stages)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(stages=(StageSpec(8, 3, 1, 1),), lstm_hidden=128,
                    rd_linear_out=128, fused_dim=256)
    with pytest.raises(ValueError):
        ModelConfig(stages=(StageSpec(8, 3, 1, 1),), lstm_feature_dim_rule="bogus")
    with pytest.raises(ValueError, match="attention"):
        ModelConfig(stages=(StageSpec(8, 3, 1, 1),), attention="cbma")
    with pytest.raises(ValueError, match="at least one block"):
        ModelConfig(stages=(StageSpec(8, 3, 1, 1, repeats=0),))


def test_config_json_round_trip():
    cfg = preset("b0", lstm_feature_dim_rule="c")
    again = ModelConfig.from_json(cfg.to_json())
    assert again == cfg
