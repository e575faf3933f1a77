import itertools

import numpy as np
import pytest

from fmcwhar import domain_maps as dm
from fmcwhar import _workers, dsp, synth, training
from fmcwhar.radar_io import EchoMatrix, RadarParams, SPEED_OF_LIGHT

from oracles import check_scene_bins, df2t_rows, doppler_time_reference, mti_profiles

PARAMS = RadarParams(5.8e9, 1e-3, 128, 4e8)


def single_target(r0, v, duration=1.024, noise=0.0, seed=0):
    scene = synth.Scene(
        scatterers=(synth.Scatterer(r0, v),), duration_s=duration,
        noise_std=noise, seed=seed,
    )
    return synth.generate(scene, PARAMS)


def expected_range_bin(r_m):
    return 2 * PARAMS.bandwidth_hz * r_m / SPEED_OF_LIGHT


def expected_doppler_hz(v):
    return 2 * v / PARAMS.wavelength_m


class TestRangeTimeMap:
    def test_stationary_target_bin(self):
        echo = single_target(3.0, 0.0)
        rtm = dm.range_time_map(echo, mti=False)
        assert np.argmax(rtm.values[10]) == round(expected_range_bin(3.0))
        assert rtm.row_axis.step == PARAMS.chirp_duration_s
        assert rtm.col_axis.step == pytest.approx(SPEED_OF_LIGHT / (2 * PARAMS.bandwidth_hz))

    def test_mti_suppresses_stationary_clutter(self):
        echo = single_target(3.0, 0.0)
        off = dm.range_time_map(echo, mti=False).values
        on = dm.range_time_map(echo, mti=True).values
        # Steady state only: the causal high-pass needs ~1000 chirps to settle.
        half = off.shape[0] // 2
        drop_db = 10 * np.log10(
            np.sum(10 ** (off[half:] / 10)) / np.sum(10 ** (on[half:] / 10))
        )
        assert drop_db >= 40.0

    def test_all_zero_echo_hits_log_floor(self):
        echo = EchoMatrix(params=PARAMS, data=np.zeros((64, 128), dtype=complex))
        for mti in (False, True):
            rtm = dm.range_time_map(echo, mti=mti)
            np.testing.assert_array_equal(rtm.values, np.full((64, 128), -240.0))

    def test_moving_target_tracks_range(self):
        echo = single_target(6.0, 2.0)  # approaches at 2 m/s for ~1 s
        rtm = dm.range_time_map(echo, mti=False)
        for n in (300, 600, 900):
            r_true = 6.0 - 2.0 * n * PARAMS.chirp_duration_s
            assert abs(np.argmax(rtm.values[n]) - expected_range_bin(r_true)) <= 1.0


class TestDopplerTimeMap:
    def test_approaching_target_doppler(self):
        echo = single_target(3.5, 1.0)
        dtm = dm.doppler_time_map(echo)
        freqs = dtm.row_axis.centers(dtm.shape[0])
        frame = dtm.shape[1] // 2
        peak_hz = freqs[np.argmax(dtm.values[:, frame])]
        assert abs(peak_hz - expected_doppler_hz(1.0)) <= dtm.row_axis.step

    def test_receding_target_negative_doppler(self):
        echo = single_target(2.5, -1.5)
        dtm = dm.doppler_time_map(echo)
        freqs = dtm.row_axis.centers(dtm.shape[0])
        frame = dtm.shape[1] // 2
        peak_hz = freqs[np.argmax(dtm.values[:, frame])]
        assert peak_hz < 0
        assert abs(peak_hz - expected_doppler_hz(-1.5)) <= dtm.row_axis.step

    def test_single_member_bank_equals_fixed_stft(self):
        echo = single_target(3.0, 1.2, duration=0.512)
        cfg = dm.AstftConfig(alphas=(4.0,), range_bin_lo=2, range_bin_hi=13)
        adaptive = dm.doppler_time_map(echo, cfg)

        # Independent fixed-window STFT of the same pipeline stages.
        profiles = mti_profiles(echo)
        w = dsp.gaussian_windows(128, (4.0,))[0]
        accum = None
        for r in range(2, 14):
            sig = profiles[:, r]
            centers = np.arange(0, sig.size, 16)
            frames = []
            for c in centers:
                seg = np.zeros(128, dtype=complex)
                lo = c - 64
                src = slice(max(0, lo), min(sig.size, lo + 128))
                dst = slice(src.start - lo, src.stop - lo)
                seg[dst] = sig[src]
                frames.append(np.abs(np.fft.fft(seg * w)))
            frames = np.stack(frames)
            accum = frames if accum is None else accum + frames
        fixed = dsp.log_magnitude(np.fft.fftshift(accum, axes=1).T)
        np.testing.assert_array_equal(adaptive.values, fixed)

    def test_selection_attains_bank_minimum(self):
        echo = single_target(3.0, 1.0, duration=0.512)
        cfg = dm.AstftConfig.default_for(PARAMS)
        _, selection = dm.doppler_time_map(echo, cfg, return_selection=True)

        profiles = mti_profiles(echo)
        length = min(dm.ASTFT_LENGTH, echo.n_chirps)
        windows = dsp.gaussian_windows(length, cfg.alphas)
        n_bins = cfg.range_bin_hi - cfg.range_bin_lo + 1
        assert selection.shape[0] == n_bins
        for i, r in enumerate(range(cfg.range_bin_lo, cfg.range_bin_hi + 1)):
            sig = profiles[:, r]
            for f_idx, c in enumerate(range(0, sig.size, dm.ASTFT_HOP)):
                seg = np.zeros(length, dtype=complex)
                lo = c - length // 2
                src = slice(max(0, lo), min(sig.size, lo + length))
                seg[src.start - lo: src.stop - lo] = sig[src]
                concs = np.array([
                    dsp.concentration(np.abs(np.fft.fft(seg * w))) for w in windows
                ])
                assert concs[selection[i, f_idx]] == concs.min()

    def test_zero_signal_defaults_to_first_window(self):
        echo = EchoMatrix(params=PARAMS, data=np.zeros((256, 128), dtype=complex))
        dtm, selection = dm.doppler_time_map(echo, return_selection=True)
        assert np.all(selection == 0)
        assert np.unique(dtm.values).size == 1

    def test_bank_validation(self):
        with pytest.raises(dm.BankEmpty):
            dm.AstftConfig(alphas=(), range_bin_lo=0, range_bin_hi=4)
        with pytest.raises(dm.RangeIntervalOutOfBounds):
            dm.AstftConfig(alphas=(1.0,), range_bin_lo=5, range_bin_hi=3)
        with pytest.raises(dm.DomainMapError):
            dm.AstftConfig(alphas=(2.0, 1.0), range_bin_lo=0, range_bin_hi=4)

    def test_range_interval_checked_against_echo(self):
        echo = single_target(3.0, 1.0, duration=0.256)
        cfg = dm.AstftConfig(alphas=(1.0,), range_bin_lo=0, range_bin_hi=128)
        with pytest.raises(dm.RangeIntervalOutOfBounds):
            dm.doppler_time_map(echo, cfg)


class TestRangeDopplerMap:
    def test_joint_argmax(self):
        echo = single_target(3.5, 1.0, duration=0.512)
        rdm = dm.range_doppler_map(echo)
        r_idx, d_idx = np.unravel_index(np.argmax(rdm.values), rdm.shape)
        r_mid = 3.5 - 1.0 * 0.256
        assert abs(r_idx - expected_range_bin(r_mid)) <= 1.5
        doppler_hz = rdm.col_axis.centers(rdm.shape[1])[d_idx]
        assert abs(doppler_hz - expected_doppler_hz(1.0)) <= rdm.col_axis.step

    def test_stationary_target_suppressed(self):
        # The MTI attenuation seen by a stationary target (its post- vs
        # pre-filter peak) sits >= 40 dB below the attenuation seen by a
        # moving one, which the filter passes nearly unchanged.
        def mti_peak_change(v):
            echo = single_target(3.0, v, duration=4.096)
            profiles = dm.range_profiles(echo)
            pre = dsp.log_magnitude(np.fft.fft(profiles, axis=0)).max()
            post = dm.range_doppler_map(echo).values.max()
            return post - pre

        still_change = mti_peak_change(0.0)
        moving_change = mti_peak_change(-1.0)
        assert still_change <= moving_change - 40.0

    def test_all_zero_echo(self):
        echo = EchoMatrix(params=PARAMS, data=np.zeros((32, 128), dtype=complex))
        rdm = dm.range_doppler_map(echo)
        np.testing.assert_array_equal(rdm.values, np.full((128, 32), -240.0))


def assert_same_map(a, b):
    assert a.domain is b.domain
    np.testing.assert_array_equal(a.values, b.values, strict=True)
    assert (a.row_axis, a.col_axis, a.params) == (b.row_axis, b.col_axis, b.params)


class TestSharedFrontEnd:
    """domain_maps() shares one range FFT and one MTI pass; its maps must
    equal the per-domain wrappers' bit for bit."""

    @pytest.mark.parametrize("n_s", [128, 37])
    @pytest.mark.parametrize("kind", [k.value for k in synth.ActivityKind])
    def test_matches_wrappers(self, kind, n_s):
        params = RadarParams(5.8e9, 1e-3, n_s, 4e8)
        full = synth.generate(synth.activity_template(kind, seed=4), params)
        echo = EchoMatrix(params=params, data=full.data[:512])
        dt = dm.doppler_time_map(echo)
        rd = dm.range_doppler_map(echo)
        for mti in (True, False):
            rt, dt_shared, rd_shared = dm.domain_maps(echo, mti=mti)
            assert_same_map(rt, dm.range_time_map(echo, mti=mti))
            assert_same_map(dt_shared, dt)
            assert_same_map(rd_shared, rd)

    @pytest.mark.parametrize("n_s", [128, 37])
    @pytest.mark.parametrize("kind", [k.value for k in synth.ActivityKind])
    def test_maps_match_row_loop_filter(self, kind, n_s, monkeypatch):
        params = RadarParams(5.8e9, 1e-3, n_s, 4e8)
        full = synth.generate(synth.activity_template(kind, seed=4), params)
        echo = EchoMatrix(params=params, data=full.data[:512])
        production = {mti: list(dm.domain_maps(echo, mti=mti)) for mti in (True, False)}

        def row_loop(b, a, x, y):
            y[...] = df2t_rows(b, a, x)
        monkeypatch.setattr(dsp, "_lfilter_df2t", row_loop)
        for mti in (True, False):
            for got, want in zip(dm.domain_maps(echo, mti=mti), production[mti]):
                assert_same_map(got, want)
                assert got.values.tobytes() == want.values.tobytes()

    def test_requested_domains_in_requested_order(self):
        echo = single_target(3.0, 1.0, duration=0.256)
        maps = list(dm.domain_maps(echo, mti=False, domains=["rd", "rt"]))
        assert [m.domain for m in maps] == [dm.Domain.RANGE_DOPPLER, dm.Domain.RANGE_TIME]
        assert_same_map(maps[0], dm.range_doppler_map(echo))
        assert_same_map(maps[1], dm.range_time_map(echo, mti=False))

    def test_unknown_domain_raises_domain_map_error(self):
        echo = single_target(3.0, 1.0, duration=0.256)
        with pytest.raises(dm.DomainMapError, match="'xx' is not a valid Domain"):
            next(dm.domain_maps(echo, domains=["rt", "xx"]))

    @pytest.fixture(scope="class")
    def echo_and_maps(self):
        params = RadarParams(5.8e9, 1e-3, 37, 4e8)
        full = synth.generate(synth.activity_template("pick", seed=4), params)
        echo = EchoMatrix(params=params, data=full.data[:512])
        single = {(d, mti): next(dm.domain_maps(echo, mti=mti, domains=[d]))
                  for d in ("rt", "dt", "rd") for mti in (True, False)}
        return echo, single

    # The RD map's slow-time DFT runs in place only when no later map
    # reads the profiles; no order may let it feed the DT map.
    @pytest.mark.parametrize("domains", [
        order for r in (1, 2, 3) for order in itertools.permutations(("rt", "dt", "rd"), r)
    ], ids="-".join)
    def test_every_order_and_subset_gives_the_same_maps(self, echo_and_maps, domains):
        echo, single = echo_and_maps
        for mti in (True, False):
            maps = list(dm.domain_maps(echo, mti=mti, domains=domains))
            assert [m.domain.value for m in maps] == list(domains)
            for d, got in zip(domains, maps):
                assert_same_map(got, single[d, mti])
                assert got.values.tobytes() == single[d, mti].values.tobytes()

    def test_one_range_fft_and_one_filter_pass(self, monkeypatch):
        calls = {"iir_filter": 0, "range_profiles": 0}

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counted(dsp, "iir_filter")
        counted(dm, "range_profiles")
        echo = single_target(3.0, 1.0, duration=0.256)
        training.maps_for_echo(echo, 16)
        assert calls == {"iir_filter": 1, "range_profiles": 1}


class TestAstftMatchesPerBinLoop:
    """The ASTFT splits each bin's frames over up to two threads; its map
    and window selections must equal the one-thread per-bin loop byte
    for byte, on one worker and on two."""

    @staticmethod
    def assert_matches_reference(echo):
        cfg = dm.AstftConfig.default_for(echo.params)
        got, selection = dm.doppler_time_map(echo, cfg, return_selection=True)
        want, want_selection = doppler_time_reference(echo.params, mti_profiles(echo), cfg)
        assert_same_map(got, want)
        assert got.values.tobytes() == want.values.tobytes()
        assert selection.dtype == want_selection.dtype
        assert selection.tobytes() == want_selection.tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind", [k.value for k in synth.ActivityKind])
    def test_templates(self, kind, workers, monkeypatch):
        monkeypatch.setattr(_workers, "WORKERS", workers)
        for seed in (1, 2):
            self.assert_matches_reference(
                synth.generate(synth.activity_template(kind, seed), PARAMS))

    # 1 and 7 chirps give one frame, 20 give two, 100 and 300 give 7 and 19.
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n_chirps", [1, 7, 20, 100, 300])
    def test_frame_counts(self, n_chirps, workers, monkeypatch):
        monkeypatch.setattr(_workers, "WORKERS", workers)
        scene = synth.Scene(
            scatterers=(synth.Scatterer(2.0, 1.0), synth.Scatterer(3.5, -0.6, 0.5)),
            duration_s=n_chirps * PARAMS.chirp_duration_s, noise_std=0.02, seed=n_chirps)
        self.assert_matches_reference(synth.generate(scene, PARAMS))


class TestTranslationCovariance:
    def test_rtm_shift(self):
        echo = single_target(3.0, 1.0, duration=0.256)
        d = 16
        shifted = EchoMatrix(
            params=PARAMS,
            data=np.vstack([np.zeros((d, 128), dtype=complex), echo.data[:-d]]),
        )
        rtm = dm.range_time_map(echo).values
        rtm_shifted = dm.range_time_map(shifted).values
        np.testing.assert_array_equal(rtm_shifted[d:], rtm[:-d])

    def test_dtm_frame_shift(self):
        echo = single_target(3.0, 1.0, duration=0.512)
        hop = dm.ASTFT_HOP
        shifted = EchoMatrix(
            params=PARAMS,
            data=np.vstack([np.zeros((hop, 128), dtype=complex), echo.data[:-hop]]),
        )
        a = dm.doppler_time_map(echo).values
        b = dm.doppler_time_map(shifted).values
        # Interior frames (windows clear of both edges) shift by one hop.
        interior = slice(8, a.shape[1] - 8)
        np.testing.assert_array_equal(b[:, 9: a.shape[1] - 7], a[:, interior])


class TestBinPositionOracle:
    def test_randomized_scenes(self):
        rng = np.random.default_rng(2024)
        hits = 0
        trials = 12
        for _ in range(trials):
            ok = check_scene_bins(
                r0=rng.uniform(1.0, 10.0),
                v=rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0]),
                seed=int(rng.integers(2**31)),
            )
            hits += all(ok)
        assert hits >= trials - 1


class TestResize:
    def make_map(self, values):
        values = np.asarray(values, dtype=float)
        return dm.SpectroMap(
            domain=dm.Domain.RANGE_TIME,
            values=values,
            row_axis=dm.Axis("slow time", "s", 0.0, 1.0),
            col_axis=dm.Axis("range", "m", 0.0, 1.0),
            params=PARAMS,
        )

    def test_identity(self):
        rng = np.random.default_rng(0)
        spectro = self.make_map(rng.standard_normal((6, 7)))
        out = dm.resize_bilinear(spectro, 6, 7)
        np.testing.assert_allclose(out.values, spectro.values, atol=1e-12)

    def test_constant(self):
        spectro = self.make_map(np.full((5, 5), 3.25))
        out = dm.resize_bilinear(spectro, 9, 4)
        np.testing.assert_allclose(out.values, np.full((9, 4), 3.25), atol=1e-12)

    def test_ramp_downsize_hand_weights(self):
        # 4x4 ramp, half-pixel centers: each output pixel averages a 2x2 block.
        ramp = np.arange(16, dtype=float).reshape(4, 4)
        out = dm.resize_bilinear(self.make_map(ramp), 2, 2)
        np.testing.assert_allclose(
            out.values, np.array([[2.5, 4.5], [10.5, 12.5]]), atol=1e-12
        )

    def test_output_range_bounded(self):
        rng = np.random.default_rng(1)
        values = rng.standard_normal((10, 13))
        out = dm.resize_bilinear(self.make_map(values), 23, 5)
        assert out.values.min() >= values.min() - 1e-12
        assert out.values.max() <= values.max() + 1e-12

    def test_transposed_view_matches_contiguous_copy(self):
        values = np.random.default_rng(2).standard_normal((40, 9)).T
        copy = np.ascontiguousarray(values)
        for shape in ((4, 16), (9, 40), (23, 5)):
            assert (dm.resize_bilinear(self.make_map(values), *shape).values.tobytes()
                    == dm.resize_bilinear(self.make_map(copy), *shape).values.tobytes())

    def test_axis_rescaling(self):
        spectro = self.make_map(np.zeros((8, 8)))
        out = dm.resize_bilinear(spectro, 4, 4)
        assert out.row_axis.step == pytest.approx(2.0)
        assert out.row_axis.start == pytest.approx(0.5)


class TestMapFiles:
    def test_smap_round_trip(self, tmp_path):
        echo = single_target(3.0, 1.0, duration=0.256)
        spectro = dm.range_time_map(echo)
        path = tmp_path / "demo.smap"
        dm.save_spectro_map(spectro, path)
        again = dm.load_spectro_map(path)
        assert again.domain == spectro.domain
        assert again.params == spectro.params
        assert again.row_axis == spectro.row_axis
        np.testing.assert_allclose(
            again.values, spectro.values.astype(np.float32), atol=0
        )

    def test_pgm_header_and_size(self, tmp_path):
        spectro = dm.range_time_map(single_target(3.0, 0.0, duration=0.064))
        path = tmp_path / "demo.pgm"
        dm.write_pgm(spectro, path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n128 64\n255\n")
        assert len(raw) == len(b"P5\n128 64\n255\n") + 64 * 128
