import json
from dataclasses import asdict

import numpy as np
import pytest

from fmcwhar import domain_maps as dm
from fmcwhar.augment import (
    REGION_HIGH,
    REGION_LOW,
    REGION_MID,
    AugmentError,
    AugmentPolicy,
    inject,
    segment_regions,
)
from fmcwhar.radar_io import RadarParams

PARAMS = RadarParams(5.8e9, 1e-3, 128, 4e8)


def make_map(values):
    values = np.asarray(values, dtype=float)
    return dm.SpectroMap(
        domain=dm.Domain.DOPPLER_TIME,
        values=values,
        row_axis=dm.Axis("Doppler", "Hz", 0.0, 1.0),
        col_axis=dm.Axis("time", "s", 0.0, 1.0),
        params=PARAMS,
    )


def db_of_power_fraction(frac):
    # Pixels at `frac` of peak power, peak at 0 dB.
    return 10.0 * np.log10(frac)


class TestSegmentRegions:
    def test_uniform_peak_map_is_all_high(self):
        labels = segment_regions(make_map(np.full((4, 4), -17.3)), AugmentPolicy())
        np.testing.assert_array_equal(labels, np.full((4, 4), REGION_HIGH))

    def test_exact_30_percent_is_mid(self):
        values = np.array([[0.0, db_of_power_fraction(0.30)]])
        labels = segment_regions(make_map(values), AugmentPolicy())
        assert labels[0, 1] == REGION_MID

    def test_exact_60_percent_is_mid(self):
        values = np.array([[0.0, db_of_power_fraction(0.60)]])
        labels = segment_regions(make_map(values), AugmentPolicy())
        assert labels[0, 1] == REGION_MID

    def test_three_pixel_thresholds(self):
        values = np.array([[db_of_power_fraction(0.1),
                            db_of_power_fraction(0.5),
                            0.0]])
        labels = segment_regions(make_map(values), AugmentPolicy())
        np.testing.assert_array_equal(labels[0], [REGION_LOW, REGION_MID, REGION_HIGH])

    def test_monotone_thresholds(self):
        # Raising low_threshold never moves a pixel from LOW straight to HIGH.
        rng = np.random.default_rng(0)
        values = rng.uniform(-30, 0, size=(16, 16))
        before = segment_regions(make_map(values), AugmentPolicy(low_threshold=0.2))
        after = segment_regions(make_map(values), AugmentPolicy(low_threshold=0.45))
        moved = before != after
        assert np.all(after[moved & (before == REGION_LOW)] != REGION_HIGH)


class TestInject:
    def test_high_only_map_unchanged(self):
        values = np.full((8, 8), -1.0)
        out = inject(make_map(values), AugmentPolicy(seed=3))
        np.testing.assert_array_equal(out.values, values)

    def test_high_pixels_bit_identical(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(-40, 0, size=(32, 32))
        spectro = make_map(values)
        policy = AugmentPolicy(seed=9)
        labels = segment_regions(spectro, policy)
        out = inject(spectro, policy)
        high = labels == REGION_HIGH
        assert high.any()
        assert np.array_equal(out.values[high], values[high])

    def test_low_region_statistics(self):
        # 1e5 LOW pixels: sample variance within 5% of 1, mean within 0.02.
        side = 320
        values = np.full((side, side), -30.0)
        values[0, 0] = 0.0  # peak pixel, HIGH
        out = inject(make_map(values), AugmentPolicy(seed=123))
        noise = (out.values - values).reshape(-1)[1:]
        assert noise.size >= 1e5
        assert abs(noise.mean()) < 0.02
        assert abs(noise.var() - 1.0) < 0.05

    def test_mid_region_variance(self):
        side = 320
        values = np.full((side, side), db_of_power_fraction(0.45))
        values[0, 0] = 0.0
        out = inject(make_map(values), AugmentPolicy(seed=5))
        noise = (out.values - values).reshape(-1)[1:]
        assert abs(noise.var() - 0.5) < 0.05 * 0.5

    def test_determinism(self):
        rng = np.random.default_rng(2)
        spectro = make_map(rng.uniform(-40, 0, size=(20, 20)))
        policy = AugmentPolicy(seed=77)
        a = inject(spectro, policy)
        b = inject(spectro, policy)
        np.testing.assert_array_equal(a.values, b.values)

    def test_seed_changes_noise(self):
        rng = np.random.default_rng(2)
        spectro = make_map(rng.uniform(-40, 0, size=(20, 20)))
        a = inject(spectro, AugmentPolicy(seed=1))
        b = inject(spectro, AugmentPolicy(seed=2))
        assert not np.array_equal(a.values, b.values)

    def test_noise_decorrelated_across_pixels(self):
        side = 200
        values = np.full((side, side), -30.0)
        values[0, 0] = 0.0
        out = inject(make_map(values), AugmentPolicy(seed=11))
        noise = (out.values - values).reshape(-1)[1:]
        lag1 = np.corrcoef(noise[:-1], noise[1:])[0, 1]
        assert abs(lag1) < 0.02


class TestPolicy:
    def test_threshold_ordering_enforced(self):
        with pytest.raises(AugmentError):
            AugmentPolicy(low_threshold=0.7, high_threshold=0.6)
        with pytest.raises(AugmentError):
            AugmentPolicy(low_threshold=0.0)
        with pytest.raises(AugmentError):
            AugmentPolicy(var_low=-1.0)

    @pytest.mark.parametrize("text", ['{"var_low": NaN}', '{"var_mid": Infinity}',
                                      '{"var_low": true}', '{"var_mid": false}'])
    def test_variance_must_be_a_finite_number(self, text):
        with pytest.raises(AugmentError):
            AugmentPolicy(**json.loads(text))

    def test_json_round_trip(self):
        policy = AugmentPolicy(low_threshold=0.25, high_threshold=0.7,
                               var_low=0.9, var_mid=0.3, seed=42)
        assert AugmentPolicy(**json.loads(json.dumps(asdict(policy)))) == policy
