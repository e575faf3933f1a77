"""Declarative network configuration and the built-in presets.

The stage table drives everything. ``block_plan`` walks it once into
one record per MBConv block, and the backbone construction, the shape
audit and the static parameter/FLOP counting all read that plan.
Two presets:

- ``b0``: the full-scale backbone stage table with canonical per-stage
  repeats (1, 2, 2, 3, 3, 4, 1) and 224 x 224 three-channel input, so
  the single-branch parameter audit is meaningful.
- ``toy``: channels capped at 8 and 32 x 32 single-channel input for
  desk-scale training and gradient checks.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..radar_io import check_field_types


@dataclass(frozen=True)
class StageSpec:
    out_channels: int
    kernel: int
    expand_ratio: int
    stride: int
    repeats: int = 1

    def __post_init__(self):
        check_field_types(self, ValueError, minimum=1)


@dataclass(frozen=True)
class BlockSpec:
    """One MBConv block of the backbone: its place, widths and sizes."""

    name: str
    stage: int
    c_in: int
    c_out: int
    kernel: int
    expand_ratio: int
    stride: int
    hw_in: int
    hw_out: int


@dataclass(frozen=True)
class ModelConfig:
    stages: tuple[StageSpec, ...]
    stem_channels: int = 32
    head_channels: int = 1280
    in_channels: int = 3
    input_hw: int = 224
    lstm_hidden: int = 128
    num_classes: int = 6

    def __post_init__(self):
        check_field_types(self, ValueError, minimum=1)
        if not self.stages:
            raise ValueError("the stage table needs at least one stage")
        object.__setattr__(self, "stages", tuple(self.stages))

    @property
    def feature_hw(self) -> int:
        """Spatial size after the stem and all stage strides."""
        return block_plan(self)[-1].hw_out

    @property
    def sequence_dim(self) -> int:
        """Width of one sequence step: a feature-map column, H * C."""
        return self.head_channels * self.feature_hw


def block_plan(cfg: ModelConfig) -> tuple[BlockSpec, ...]:
    """Every MBConv block of the backbone, in order, from the stage table.

    The first repeat of a stage takes the stage stride and the incoming
    channels; later repeats keep stride 1 and the stage width. Sizes
    start after the stride-2 stem and round up at each stride.
    """
    plan = []
    channels, hw = cfg.stem_channels, (cfg.input_hw + 1) // 2
    for stage_idx, stage in enumerate(cfg.stages, start=1):
        for rep in range(stage.repeats):
            stride = stage.stride if rep == 0 else 1
            hw_out = (hw + stride - 1) // stride
            plan.append(BlockSpec(
                name=f"stage{stage_idx}_block{rep}", stage=stage_idx,
                c_in=channels, c_out=stage.out_channels, kernel=stage.kernel,
                expand_ratio=stage.expand_ratio, stride=stride,
                hw_in=hw, hw_out=hw_out,
            ))
            channels, hw = stage.out_channels, hw_out
    return tuple(plan)


PRESETS = {
    "b0": ModelConfig(
        stages=(
            StageSpec(16, 3, 1, 1, 1),
            StageSpec(24, 3, 6, 2, 2),
            StageSpec(40, 5, 6, 2, 2),
            StageSpec(80, 3, 6, 2, 3),
            StageSpec(112, 5, 6, 1, 3),
            StageSpec(192, 5, 6, 2, 4),
            StageSpec(320, 3, 6, 1, 1),
        ),
    ),
    "toy": ModelConfig(
        stages=(
            StageSpec(4, 3, 1, 1),
            StageSpec(4, 3, 2, 2),
            StageSpec(8, 5, 2, 2),
            StageSpec(8, 3, 2, 2),
            StageSpec(8, 5, 2, 1),
            StageSpec(8, 5, 2, 2),
            StageSpec(8, 3, 2, 1),
        ),
        stem_channels=4,
        head_channels=16,
        in_channels=1,
        input_hw=32,
        lstm_hidden=16,
    ),
}


def preset(name: str, **overrides) -> ModelConfig:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    cfg = PRESETS[name]
    if overrides:
        cfg = ModelConfig(**{**asdict(cfg), "stages": cfg.stages, **overrides})
    return cfg
