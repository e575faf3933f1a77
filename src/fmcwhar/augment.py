"""Power-stratified Gaussian noise injection on spectrograms.

A map is split into three regions by power relative to its peak: low
(< 30%), medium (30-60%, both ends inclusive) and high (> 60%). Strong
noise (variance 1 by default) lands on low-power pixels, moderate noise
on medium ones, and high-power pixels pass through bit-identical, so
salient motion features survive augmentation.

Thresholds compare linear power fractions; the noise itself is added in
the dB domain the network consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .domain_maps import SpectroMap
from .radar_io import check_field_types
from .synth import seeded_rng

REGION_LOW = 0
REGION_MID = 1
REGION_HIGH = 2


class AugmentError(ValueError):
    pass


@dataclass(frozen=True)
class AugmentPolicy:
    low_threshold: float = 0.30
    high_threshold: float = 0.60
    var_low: float = 1.0
    var_mid: float = 0.5
    seed: int = 0

    def __post_init__(self):
        check_field_types(self, AugmentError)
        if not 0.0 < self.low_threshold < self.high_threshold < 1.0:
            raise AugmentError(
                f"need 0 < low < high < 1, got {self.low_threshold}, {self.high_threshold}"
            )
        if self.var_low < 0 or self.var_mid < 0:
            raise AugmentError(
                f"variances must be >= 0, got {self.var_low}, {self.var_mid}"
            )


def segment_regions(spectro: SpectroMap, policy: AugmentPolicy) -> np.ndarray:
    """Label each pixel LOW / MID / HIGH by linear power relative to the peak.

    dB values v convert to power p = 10^(v/10) and compare against
    fractions of the peak power. The comparison runs in the dB domain
    (v - v_max against 10 log10 of each threshold), which is the same
    predicate but keeps pixels sitting exactly on a boundary exact.
    """
    values = spectro.values
    db_rel = values - values.max()
    labels = np.full(values.shape, REGION_MID, dtype=np.int8)
    labels[db_rel < 10.0 * np.log10(policy.low_threshold)] = REGION_LOW
    labels[db_rel > 10.0 * np.log10(policy.high_threshold)] = REGION_HIGH
    return labels


def inject(spectro: SpectroMap, policy: AugmentPolicy) -> SpectroMap:
    """Add zero-mean Gaussian noise in the dB domain, stratified by region.

    High-power pixels are returned bit-identical. Same (map, policy)
    always yields the same output.
    """
    labels = segment_regions(spectro, policy)
    rng = seeded_rng(policy.seed)
    noise = rng.standard_normal(spectro.values.shape)

    out = spectro.values.copy()
    low = labels == REGION_LOW
    mid = labels == REGION_MID
    out[low] += np.sqrt(policy.var_low) * noise[low]
    out[mid] += np.sqrt(policy.var_mid) * noise[mid]
    return replace(spectro, values=out)
