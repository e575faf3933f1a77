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

from .attention import CBAM_REDUCTION, SPATIAL_KERNEL, mlp_width
from .config import BlockSpec, ModelConfig, block_plan
from .model import BRANCHES, LSTM_BRANCHES

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


def _mbconv_tally(block: BlockSpec, se: bool) -> _Tally:
    tally = _Tally()
    expanded = block.c_in * block.expand_ratio
    if block.expand_ratio != 1:
        tally.conv(1, block.c_in, expanded, block.hw_in)
        tally.batch_norm(expanded)
    tally.conv(block.kernel, 1, expanded, block.hw_out)
    tally.batch_norm(expanded)
    if se:
        squeeze = max(1, block.c_in // 4)
        tally.dense(expanded, squeeze, bias=True)
        tally.dense(squeeze, expanded, bias=True)
    else:
        # One shared MLP runs on both the average- and the max-pooled vector.
        hidden = mlp_width(expanded, CBAM_REDUCTION)
        tally.dense(expanded, hidden, calls=2)
        tally.dense(hidden, expanded, calls=2)
        tally.conv(SPATIAL_KERNEL, 2, 1, block.hw_out, bias=True)
    tally.conv(1, expanded, block.c_out, block.hw_out)
    tally.batch_norm(block.c_out)
    return tally


def _backbone_tallies(cfg: ModelConfig, se: bool) -> list[tuple[str, _Tally]]:
    """(module, tally) for the stem, each CBAM (or ``se``) block and the head conv."""
    plan = block_plan(cfg)
    stem = _Tally()
    stem.conv(3, cfg.in_channels, cfg.stem_channels, plan[0].hw_in)
    stem.batch_norm(cfg.stem_channels)
    tallies = [("stem", stem)]
    tallies += [(f"stage{block.stage}", _mbconv_tally(block, se)) for block in plan]
    head = _Tally()
    head.conv(1, plan[-1].c_out, cfg.head_channels, plan[-1].hw_out)
    head.batch_norm(cfg.head_channels)
    tallies.append(("head_conv", head))
    return tallies


def _network_tallies(cfg: ModelConfig) -> list[tuple[str, _Tally]]:
    """(module, tally) for every part of the three-branch network; a
    module's parts add up, each backbone being many parts."""
    backbone = [tally for _, tally in _backbone_tallies(cfg, se=False)]
    tallies = [(f"{branch}.backbone", tally) for branch in BRANCHES for tally in backbone]
    # The RD head and each fusion input share the LSTM hidden width.
    steps, hidden = cfg.feature_hw, cfg.lstm_hidden
    for branch in LSTM_BRANCHES:
        lstm = _Tally()
        # Each step maps its input and the last hidden state to four gates.
        lstm.dense(cfg.sequence_dim, 4 * hidden, bias=True, calls=steps)
        lstm.dense(hidden, 4 * hidden, calls=steps)
        tallies.append((f"{branch}.lstm", lstm))
    head, fusion = _Tally(), _Tally()
    head.dense(cfg.sequence_dim, hidden, bias=True, calls=steps)
    fusion.dense(3 * hidden, cfg.num_classes, bias=True)
    return tallies + [("rd.head", head), ("fusion", fusion)]


def _params_report(tallies) -> CountReport:
    report = CountReport()
    for module, tally in tallies:
        report.add(module, tally.trainable)
        report.non_trainable += tally.running
    return report


def count_se_baseline(cfg: ModelConfig) -> CountReport:
    """Count-only baseline: one stock backbone with squeeze-excite blocks
    in place of CBAM, plus its 1000-class classifier. No layer builds it.
    """
    classifier = _Tally()
    classifier.dense(cfg.head_channels, 1000, bias=True)
    return _params_report(_backbone_tallies(cfg, se=True) + [("classifier", classifier)])


def count_params(cfg: ModelConfig) -> CountReport:
    """Per-module trainable parameter counts for the three-branch network."""
    return _params_report(_network_tallies(cfg))


def count_flops(cfg: ModelConfig) -> CountReport:
    """Multiply-accumulate count for one forward pass of the full network."""
    report = CountReport()
    for module, tally in _network_tallies(cfg):
        report.add(module, tally.macs)
    return report
