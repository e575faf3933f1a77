import numpy as np
import pytest
from oracles import _traced_peak, generate_reference

from fmcwhar import synth
from fmcwhar.radar_io import RadarParams, SPEED_OF_LIGHT
from fmcwhar.synth import (
    ActivityKind,
    RangeWentNonpositive,
    Scatterer,
    Scene,
    SynthError,
    activity_template,
    generate,
)

PARAMS = RadarParams(5.8e9, 1e-3, 128, 4e8)


def test_stationary_target_beat_frequency():
    # R = 3 m with k = 4e11 Hz/s gives f_b = 2kR/c ~= 8 kHz, i.e. fast-time
    # bin 8 at 1 kHz resolution.
    scene = Scene(scatterers=(Scatterer(3.0, 0.0),), duration_s=0.016)
    echo = generate(scene, PARAMS)
    spectrum = np.abs(np.fft.fft(echo.data[0]))
    assert np.argmax(spectrum) == 8
    f_b = 2 * PARAMS.chirp_slope_hz_per_s * 3.0 / SPEED_OF_LIGHT
    assert f_b == pytest.approx(8e3, rel=1e-2)


def test_empty_scene_is_silent():
    scene = Scene(scatterers=(), duration_s=0.004)
    echo = generate(scene, PARAMS)
    np.testing.assert_array_equal(echo.data, np.zeros((4, 128), dtype=complex))


def test_superposition():
    a = Scatterer(2.0, 0.7, amplitude=1.0)
    b = Scatterer(5.0, -1.2, amplitude=0.5)
    both = generate(Scene(scatterers=(a, b), duration_s=0.064), PARAMS)
    only_a = generate(Scene(scatterers=(a,), duration_s=0.064), PARAMS)
    only_b = generate(Scene(scatterers=(b,), duration_s=0.064), PARAMS)
    np.testing.assert_allclose(both.data, only_a.data + only_b.data, atol=1e-12)


def test_amplitude_scaling():
    base = Scatterer(3.0, 1.0, amplitude=1.0)
    doubled = Scatterer(3.0, 1.0, amplitude=2.0)
    e1 = generate(Scene(scatterers=(base,), duration_s=0.032), PARAMS)
    e2 = generate(Scene(scatterers=(doubled,), duration_s=0.032), PARAMS)
    np.testing.assert_array_equal(e2.data, 2.0 * e1.data)


def test_determinism_bit_identical():
    scene = Scene(scatterers=(Scatterer(3.0, 1.0),), duration_s=0.064,
                  noise_std=0.1, seed=1234)
    e1 = generate(scene, PARAMS)
    e2 = generate(scene, PARAMS)
    np.testing.assert_array_equal(e1.data, e2.data)


class TestBlockRender:
    """``generate`` renders in chirp blocks; its echoes must equal the
    one-piece reference byte for byte."""

    @pytest.mark.parametrize("n_s", [128, 37])
    @pytest.mark.parametrize("kind", list(ActivityKind), ids=lambda k: k.value)
    def test_templates_match_reference(self, kind, n_s):
        params = RadarParams(5.8e9, 1e-3, n_s, 4e8)
        for seed in (1, 2, 3):
            scene = activity_template(kind, seed)
            assert generate(scene, params).data.tobytes() == \
                generate_reference(scene, params).data.tobytes()

    # 37 samples make blocks of 442 chirps, so 1000 chirps end in a part
    # block; one sample above the block size makes one-chirp blocks.
    @pytest.mark.parametrize("n_s, n_chirps", [(37, 1000),
                                               (synth._RENDER_BLOCK_SAMPLES + 1, 3)])
    def test_block_edges_match_reference(self, n_s, n_chirps):
        params = RadarParams(5.8e9, 1e-3, n_s, 4e8)
        scene = Scene(scatterers=(Scatterer(2.0, 0.7),
                                  Scatterer(5.0, ((0.0, -1.2), (0.002, 0.4)), amplitude=0.5)),
                      duration_s=n_chirps * 1e-3, noise_std=0.05, seed=9)
        assert generate(scene, params).data.tobytes() == \
            generate_reference(scene, params).data.tobytes()


# Peak traced bytes of one toy render, as a multiple of the echo's own
# bytes. Measured: 3.55 with full-size phase, exponential and noise
# arrays; 1.18 rendering in blocks; 1.29 with a phase and an exponential
# buffer for each of two render threads.
GENERATE_PEAK_RATIO = 2.0


def test_generate_peak_memory():
    echo, peak = _traced_peak(generate, activity_template("walk", seed=3), PARAMS)
    assert peak <= GENERATE_PEAK_RATIO * echo.data.nbytes, peak / echo.data.nbytes


def test_range_went_nonpositive():
    scene = Scene(scatterers=(Scatterer(0.5, 3.0),), duration_s=0.512)
    with pytest.raises(RangeWentNonpositive):
        generate(scene, PARAMS)


def test_duration_must_divide_into_chirps():
    scene = Scene(scatterers=(), duration_s=0.0105)
    with pytest.raises(SynthError):
        generate(scene, RadarParams(5.8e9, 1e-3, 8, 4e8))


def test_piecewise_velocity_integration():
    sc = Scatterer(5.0, ((0.0, 0.0), (1.0, 2.0), (2.0, -1.0)))
    # Approach rate v shrinks the range: R(t) = R(seg start) - v dt.
    assert sc.range_at(0.5)[0] == pytest.approx(5.0)
    assert sc.range_at(1.5)[0] == pytest.approx(5.0 - 2.0 * 0.5)
    assert sc.range_at(2.0)[0] == pytest.approx(3.0)
    assert sc.range_at(3.0)[0] == pytest.approx(3.0 + 1.0)


def test_velocity_schedule_validation():
    with pytest.raises(SynthError):
        Scatterer(5.0, ((0.5, 1.0),)).segments()
    with pytest.raises(SynthError):
        Scatterer(5.0, ((0.0, 1.0), (2.0, 0.0), (1.0, 0.5))).segments()


class TestActivityTemplates:
    def test_walk_speed_bounds(self):
        for seed in range(20):
            scene = activity_template(ActivityKind.WALK, seed)
            speed = scene.scatterers[0].max_speed()
            assert 1.0 <= speed <= 1.5

    def test_fall_burst_shape(self):
        for seed in range(20):
            scene = activity_template("fall", seed)
            segs = scene.scatterers[0].segments()
            fast = [(t, v) for t, v in segs if abs(v) > 2.0]
            assert len(fast) == 1
            t_start = fast[0][0]
            following = [t for t, _ in segs if t > t_start]
            assert following, "fall burst must end inside the scene"
            assert following[0] - t_start < 0.5
            assert segs[-1][1] == 0.0

    def test_same_kind_seed_is_identical(self):
        for kind in ActivityKind:
            assert activity_template(kind, 99) == activity_template(kind, 99)

    def test_all_templates_generate(self):
        params = RadarParams(5.8e9, 1e-3, 64, 4e8)
        for kind in ActivityKind:
            scene = activity_template(kind, seed=3)
            echo = generate(scene, params)
            assert echo.data.shape == (1920, 64)
            assert np.all(np.isfinite(echo.data.real))

    def test_distinct_kinds_differ(self):
        scenes = {k: activity_template(k, 5) for k in ActivityKind}
        schedules = {k: s.scatterers[0].velocity_mps for k, s in scenes.items()}
        assert len(set(schedules.values())) == len(ActivityKind)


def test_scene_json_round_trip():
    assert synth.RNG_ALGORITHM in activity_template("pick", seed=11).to_json()


class TestSeededRng:
    # Draws pinned before the key became a uint64 array: seeds below 2**63
    # keep their streams.
    @pytest.mark.parametrize("seed,stream,draws", [
        (0, 0, [53250005300491814, 1113949052550656364, 513861059969551262]),
        (12345, 3, [4228711949419509886, 2132976548683133493, 931399599867844706]),
        (2**63 - 1, 2, [3896529072827741048, 3138073668934645364, 549823554791251115]),
    ])
    def test_draws_unchanged_below_2_63(self, seed, stream, draws):
        assert synth.seeded_rng(seed, stream).integers(0, 2**62, 3).tolist() == draws

    def test_negative_seed_is_its_value_mod_2_64(self):
        # -1 and 2**64 - 1 are one key, reached without a float cast, so
        # no "invalid value encountered in cast" warning.
        a = synth.seeded_rng(-1).integers(0, 2**62, 4)
        b = synth.seeded_rng(2**64 - 1).integers(0, 2**62, 4)
        np.testing.assert_array_equal(a, b)

    def test_keys_above_2_63_stay_distinct(self):
        a = synth.seeded_rng(2**63).integers(0, 2**62, 4)
        b = synth.seeded_rng(2**63 + 1).integers(0, 2**62, 4)
        assert not np.array_equal(a, b)
