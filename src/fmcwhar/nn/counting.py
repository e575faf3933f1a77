"""Static parameter and FLOP accounting from a ModelConfig.

Counts come from walking the architecture description, never from
instantiating arrays, so they are cheap and deterministic. FLOPs follow
the multiply-accumulate convention (one MAC = one FLOP) used by the
common profilers, counting convolutions, linear maps, attention MLPs
and LSTM matrix products; normalization and elementwise ops are free.

Trainable parameters are weights plus batch-norm affine terms; the
batch-norm running statistics are reported separately as non-trainable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .attention import SPATIAL_KERNEL, mlp_width
from .config import BlockSpec, ModelConfig, block_plan

# Audit targets: published totals for the full-scale three-branch network
# (params / MAC-FLOPs) and the trainable count of one stock single-branch
# backbone with SE attention and its 1000-class classifier.
REFERENCE_TOTAL_PARAMS = 23_420_000
REFERENCE_TOTAL_FLOPS = 1_324_820_000
REFERENCE_SE_BASELINE_TRAINABLE = 5_290_000


@dataclass
class CountReport:
    per_module: dict[str, int] = field(default_factory=dict)
    total: int = 0
    non_trainable: int = 0

    def add(self, module: str, count: int) -> None:
        self.per_module[module] = self.per_module.get(module, 0) + count
        self.total += count


@dataclass
class _Tally:
    """Trainable parameters, batch-norm running statistics and MACs of one part."""

    trainable: int = 0
    running: int = 0
    macs: int = 0

    def conv(self, k: int, c_in: int, c_out: int, hw_out: int, bias: bool = False) -> None:
        """A k x k convolution; a depthwise one is ``conv(k, 1, channels, ...)``."""
        self.trainable += k * k * c_in * c_out + (c_out if bias else 0)
        self.macs += k * k * c_in * c_out * hw_out * hw_out

    def dense(self, n_in: int, n_out: int, bias: bool = False, calls: int = 1) -> None:
        self.trainable += n_in * n_out + (n_out if bias else 0)
        self.macs += calls * n_in * n_out

    def batch_norm(self, channels: int) -> None:
        self.trainable += 2 * channels  # gamma, beta
        self.running += 2 * channels  # running mean, running variance


def _mbconv_tally(cfg: ModelConfig, block: BlockSpec) -> _Tally:
    tally = _Tally()
    expanded = block.c_in * block.expand_ratio
    if block.expand_ratio != 1:
        tally.conv(1, block.c_in, expanded, block.hw_in)
        tally.batch_norm(expanded)
    tally.conv(block.kernel, 1, expanded, block.hw_out)
    tally.batch_norm(expanded)
    if cfg.attention == "cbam":
        # One shared MLP runs on both the average- and the max-pooled vector.
        hidden = mlp_width(expanded, cfg.cbam_reduction)
        tally.dense(expanded, hidden, calls=2)
        tally.dense(hidden, expanded, calls=2)
        tally.conv(SPATIAL_KERNEL, 2, 1, block.hw_out, bias=True)
    elif cfg.attention == "se":
        squeeze = max(1, block.c_in // 4)
        tally.dense(expanded, squeeze, bias=True)
        tally.dense(squeeze, expanded, bias=True)
    tally.conv(1, expanded, block.c_out, block.hw_out)
    tally.batch_norm(block.c_out)
    return tally


def _backbone_tallies(cfg: ModelConfig) -> list[tuple[str, _Tally]]:
    """(module, tally) for the stem, each block, the head and the classifier."""
    plan = block_plan(cfg)
    stem = _Tally()
    stem.conv(3, cfg.in_channels, cfg.stem_channels, plan[0].hw_in)
    stem.batch_norm(cfg.stem_channels)
    tallies = [("stem", stem)]
    tallies += [(f"stage{block.stage}", _mbconv_tally(cfg, block)) for block in plan]
    head = _Tally()
    head.conv(1, plan[-1].c_out, cfg.head_channels, plan[-1].hw_out)
    head.batch_norm(cfg.head_channels)
    tallies.append(("head_conv", head))
    if cfg.include_classifier:
        classifier = _Tally()
        classifier.dense(cfg.head_channels, 1000, bias=True)
        tallies.append(("classifier", classifier))
    return tallies


def count_backbone_params(cfg: ModelConfig) -> CountReport:
    report = CountReport()
    for module, tally in _backbone_tallies(cfg):
        report.add(module, tally.trainable)
        report.non_trainable += tally.running
    return report


def count_backbone_flops(cfg: ModelConfig) -> CountReport:
    report = CountReport()
    for module, tally in _backbone_tallies(cfg):
        report.add(module, tally.macs)
    return report


def _lstm_params(input_dim: int, hidden: int) -> int:
    return 4 * (input_dim * hidden + hidden * hidden + hidden)


def count_params(cfg: ModelConfig) -> CountReport:
    """Per-module trainable parameter counts for the three-branch network."""
    report = CountReport()
    backbone = count_backbone_params(cfg)
    for branch in ("rt", "dt", "rd"):
        report.add(f"{branch}.backbone", backbone.total)
        report.non_trainable += backbone.non_trainable
    for branch in ("rt", "dt"):
        report.add(f"{branch}.lstm", _lstm_params(cfg.lstm_feature_dim(), cfg.lstm_hidden))
    report.add("rd.head", cfg.rd_feature_dim() * cfg.rd_linear_out + cfg.rd_linear_out)
    report.add("fusion", cfg.fused_dim * cfg.num_classes + cfg.num_classes)
    return report


def count_flops(cfg: ModelConfig) -> CountReport:
    """Multiply-accumulate count for one forward pass of the full network."""
    report = CountReport()
    backbone = count_backbone_flops(cfg)
    for branch in ("rt", "dt", "rd"):
        report.add(f"{branch}.backbone", backbone.total)
    steps = cfg.feature_hw
    hidden = cfg.lstm_hidden
    for branch in ("rt", "dt"):
        d = cfg.lstm_feature_dim()
        report.add(f"{branch}.lstm", steps * 4 * (d * hidden + hidden * hidden))
    report.add("rd.head", steps * cfg.rd_feature_dim() * cfg.rd_linear_out)
    report.add("fusion", cfg.fused_dim * cfg.num_classes)
    return report
