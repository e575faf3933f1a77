"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Budgets are asserted, not just observed.
"""

import time

import numpy as np

from fmcwhar import augment, cli, dsp
from fmcwhar import domain_maps as dm
from fmcwhar import radar_io, synth
from fmcwhar.nn import MultiDomainModel, run_gradcheck
from fmcwhar.nn.config import block_plan, preset
from fmcwhar.nn.counting import count_backbone_params, count_flops, count_params

from oracles import GLASGOW_PARAMS, check_scene_bins
from test_dsp import dft_direct


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS  [{detail}]")


def test_criterion_1_oracle_bin_recovery():
    # 50 randomized single-scatterer scenes, SNR >= 20 dB; every map's
    # argmax must land within one bin of the closed-form prediction in
    # at least 48, inside a 2-minute budget.
    started = time.time()
    rng = np.random.default_rng(20260810)
    hits = 0
    for _ in range(50):
        r0 = rng.uniform(1.0, 10.0)
        v = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
        # noise_std 0.05 per quadrature on unit-amplitude echoes ~ 23 dB SNR
        ok = check_scene_bins(r0, v, seed=int(rng.integers(2**31)), noise_std=0.05)
        hits += all(ok)
    elapsed = time.time() - started
    assert hits >= 48, f"only {hits}/50 scenes recovered"
    assert elapsed < 120.0, f"oracle suite took {elapsed:.1f} s"
    report(1, f"bin recovery {hits}/50 scenes, {elapsed:.1f} s")


def test_criterion_2_mti_filter_audit():
    coeffs = dsp.butterworth_highpass(order=4, cutoff_norm=0.0075)
    dc = abs(coeffs.gain_at(0.0))
    cutoff = abs(coeffs.gain_at(0.0075))
    pole_max = float(np.max(np.abs(coeffs.poles())))
    assert dc <= 1e-10, f"|H(DC)| = {dc:.3e}"
    assert abs(cutoff - 2 ** -0.5) <= 0.01 * 2 ** -0.5, f"|H(fc)| = {cutoff:.6f}"
    assert pole_max < 1.0, f"max pole modulus {pole_max:.6f}"

    # Stationary-target energy drop, measured after the filter settles.
    scene = synth.Scene(scatterers=(synth.Scatterer(3.0, 0.0),), duration_s=4.096)
    echo = synth.generate(scene, GLASGOW_PARAMS)
    off = dm.range_time_map(echo, mti=False).values
    on = dm.range_time_map(echo, mti=True).values
    half = off.shape[0] // 2
    drop_db = 10 * np.log10(
        np.sum(10 ** (off[half:] / 10)) / np.sum(10 ** (on[half:] / 10))
    )
    assert drop_db >= 40.0, f"MTI drop {drop_db:.1f} dB"
    report(2, f"|H(DC)|={dc:.1e}, |H(fc)|={cutoff:.4f}, "
              f"poles<{pole_max:.4f}, drop {drop_db:.1f} dB")


def test_criterion_3_gradient_suite():
    started = time.time()
    results = run_gradcheck("all")
    elapsed = time.time() - started
    required = {"conv", "conv_pointwise", "conv_stride1", "depthwise", "batchnorm",
                "relu", "swish", "cbam_channel", "cbam_spatial", "mbconv", "lstm",
                "rd_head", "fusion", "cross_entropy"}
    names = {r.name for r in results}
    assert required <= names, f"missing cases: {required - names}"
    worst = max(results, key=lambda r: r.max_rel_error)
    for r in results:
        assert r.passed, f"{r.name}: max relative error {r.max_rel_error:.3e}"
    assert elapsed < 300.0, f"gradcheck took {elapsed:.1f} s"
    report(3, f"{len(results)} checks, worst {worst.name} "
              f"{worst.max_rel_error:.2e}, {elapsed:.1f} s")


def test_criterion_4_shape_contract():
    cfg = preset("b0")
    model = MultiDomainModel(cfg, seed=0)
    x = np.random.default_rng(0).standard_normal((1, 3, 224, 224)) * 0.1

    expected_stages = [
        ("stem", (1, 32, 112, 112)),
        ("stage1", (1, 16, 112, 112)),
        ("stage2", (1, 24, 56, 56)),
        ("stage3", (1, 40, 28, 28)),
        ("stage4", (1, 80, 14, 14)),
        ("stage5", (1, 112, 14, 14)),
        ("stage6", (1, 192, 7, 7)),
        ("stage7", (1, 320, 7, 7)),
        ("head", (1, 1280, 7, 7)),
    ]
    bb = model.rt.backbone
    out = bb.stem_act.forward(bb.stem_bn.forward(bb.stem_conv.forward(x), False), False)
    seen = {"stem": out.shape}
    for block in block_plan(cfg):
        out = getattr(bb, block.name).forward(out)
        seen[f"stage{block.stage}"] = out.shape
    out = bb.head_act.forward(bb.head_bn.forward(bb.head_conv.forward(out), False), False)
    seen["head"] = out.shape
    for name, shape in expected_stages:
        assert seen[name] == shape, f"{name}: {seen[name]} != {shape}"

    seq = model.rt.reshape.forward(out)
    assert seq.shape == (1, 7, 8960)
    logits = model.forward(x, x, x, train=False)
    assert logits.shape == (1, 6)
    report(4, "stem (1,32,112,112) through head (1,6), all stages exact")


def test_criterion_5_parameter_audit():
    se = count_backbone_params(preset("b0", attention="se", include_classifier=True))
    baseline_rel = abs(se.total - 5.29e6) / 5.29e6
    assert baseline_rel < 0.02, f"SE baseline {se.total:,} off by {baseline_rel:.2%}"

    target = 23.42e6
    deltas = {}
    for rule in ("hxc", "c"):
        totals = count_params(preset("b0", lstm_feature_dim_rule=rule))
        deltas[rule] = (totals.total - target) / target
        print(f"  params[{rule}]: {totals.total:,} ({deltas[rule]:+.2%} vs 23.42M); "
              f"breakdown: " + ", ".join(
                  f"{k}={v:,}" for k, v in totals.per_module.items()))
    flops = count_flops(preset("b0")).total
    print(f"  flops[hxc]: {flops:,} ({(flops - 1324.82e6) / 1324.82e6:+.2%} "
          f"vs 1324.82M)")
    assert any(abs(d) <= 0.20 for d in deltas.values()), \
        f"no feature rule lands within 20%: {deltas}"
    report(5, f"SE baseline {se.total:,} ({baseline_rel:+.2%}), "
              f"hxc delta {deltas['hxc']:+.2%}, c delta {deltas['c']:+.2%}")


def test_criterion_6_augmentation_statistics():
    side = 330  # > 1e5 noised pixels
    values = np.full((side, side), -30.0)
    values[0, 0] = 0.0
    spectro = dm.SpectroMap(
        domain=dm.Domain.DOPPLER_TIME, values=values,
        row_axis=dm.Axis("Doppler", "Hz", 0.0, 1.0),
        col_axis=dm.Axis("time", "s", 0.0, 1.0),
        params=GLASGOW_PARAMS,
    )
    policy = augment.AugmentPolicy(seed=606)
    labels = augment.segment_regions(spectro, policy)
    out1 = augment.inject(spectro, policy)
    out2 = augment.inject(spectro, policy)

    high = labels == augment.REGION_HIGH
    assert high.any()
    assert np.array_equal(out1.values[high], values[high]), "HIGH pixels changed"
    assert np.array_equal(out1.values, out2.values), "not deterministic"

    noise = (out1.values - values)[labels == augment.REGION_LOW]
    assert noise.size >= 1e5
    mean, var = float(noise.mean()), float(noise.var())
    assert abs(mean) < 0.02, f"LOW mean {mean:.4f}"
    assert abs(var - 1.0) < 0.05, f"LOW variance {var:.4f}"
    report(6, f"{noise.size} LOW pixels: mean {mean:+.4f}, var {var:.4f}; "
              f"HIGH bit-identical; deterministic")


def test_criterion_7_toy_overfit(tmp_path):
    started = time.time()
    config = tmp_path / "toy.json"
    config.write_text(
        '{"epochs": 50, "seed": 1, "samples_per_class": 10, "map_size": 64}'
    )
    run_dir = tmp_path / "run"
    assert cli.main(["train-toy", "--config", str(config),
                     "--out", str(run_dir)]) == 0
    elapsed = time.time() - started

    rows = (run_dir / "metrics.csv").read_text().strip().splitlines()[1:]
    history = [(int(r.split(",")[0]), float(r.split(",")[1]), float(r.split(",")[2]))
               for r in rows]
    assert len(history) == 50
    losses = {epoch: loss for epoch, loss, _ in history}
    best_acc = max(acc for _, _, acc in history)
    final_acc = history[-1][2]
    assert final_acc >= 0.95, f"final train accuracy {final_acc:.3f}"
    assert losses[19] < losses[0], \
        f"loss at epoch 20 ({losses[19]:.4f}) not below epoch 1 ({losses[0]:.4f})"
    assert elapsed < 600.0, f"toy training took {elapsed:.1f} s"
    report(7, f"train accuracy {final_acc:.3f} (best {best_acc:.3f}), "
              f"loss {losses[0]:.3f} -> {losses[19]:.3f} @20, {elapsed:.0f} s")


def test_criterion_8_round_trip_and_dft_oracles():
    # Write-parse identity on both codecs.
    rng = np.random.default_rng(8)
    params = radar_io.RadarParams(5.8e9, 1e-3, 64, 4e8)
    data = rng.standard_normal((5, 64)) + 1j * rng.standard_normal((5, 64))
    echo = radar_io.EchoMatrix(params=params, data=data)
    for codec in ("ascii", "binary"):
        raw = radar_io.write_dat(params, echo, codec=codec)
        params2, echo2, _ = radar_io.parse_dat(raw, codec=codec)
        assert params2 == params
        assert np.array_equal(echo2.data, data), f"{codec} round trip failed"
        assert radar_io.write_dat(params2, echo2, codec=codec) == raw

    # FFT against the direct O(N^2) sum, and Parseval, for N <= 256.
    worst_dft = 0.0
    worst_parseval = 0.0
    for n in (1, 2, 3, 16, 17, 100, 128, 255, 256):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        bins = dsp.dft(x, dsp.WindowSpec.rectangular(n)).bins
        oracle = dft_direct(x, np.ones(n))
        scale = max(1e-300, float(np.max(np.abs(oracle))))
        worst_dft = max(worst_dft, float(np.max(np.abs(bins - oracle))) / scale)
        time_e = float(np.sum(np.abs(x) ** 2))
        freq_e = float(np.sum(np.abs(bins) ** 2) / n)
        worst_parseval = max(worst_parseval, abs(time_e - freq_e) / time_e)
    assert worst_dft <= 1e-9, f"DFT vs direct sum: {worst_dft:.2e}"
    assert worst_parseval <= 1e-9, f"Parseval: {worst_parseval:.2e}"
    report(8, f"round trips exact; DFT err {worst_dft:.1e}, "
              f"Parseval err {worst_parseval:.1e}")


def test_criterion_9_astft_selection():
    scene = synth.Scene(
        scatterers=(synth.Scatterer(3.0, 1.2), synth.Scatterer(4.5, -0.6, 0.7)),
        duration_s=0.512, noise_std=0.02, seed=99,
    )
    echo = synth.generate(scene, GLASGOW_PARAMS)

    # Single-member bank: the adaptive transform equals the fixed-window
    # STFT bitwise (same pipeline, no selection freedom).
    window = dsp.WindowSpec.gaussian(128, 4.0)
    single = dm.AstftConfig(window_bank=(window,), hop=16,
                            range_bin_lo=2, range_bin_hi=13)
    adaptive, selection = dm.doppler_time_map(echo, single, return_selection=True)
    assert np.all(selection == 0)
    fixed = dm.doppler_time_map(echo, single)
    assert np.array_equal(adaptive.values, fixed.values)

    # Default bank: every frame's choice attains the bank's concentration
    # minimum, verified by exhaustive evaluation over all members.
    cfg = dm.AstftConfig.default_for(GLASGOW_PARAMS, echo.n_chirps)
    _, selection = dm.doppler_time_map(echo, cfg, return_selection=True)
    profiles = dm.mti_filter_complex(dm.range_profiles(echo))
    checked = 0
    for i, r in enumerate(range(cfg.range_bin_lo, cfg.range_bin_hi + 1)):
        sig = profiles[:, r]
        for f_idx, center in enumerate(range(0, sig.size, cfg.hop)):
            seg = np.zeros(cfg.window_length, dtype=complex)
            lo = center - cfg.window_length // 2
            src = slice(max(0, lo), min(sig.size, lo + cfg.window_length))
            seg[src.start - lo: src.stop - lo] = sig[src]
            concs = np.array([
                dsp.concentration(np.abs(np.fft.fft(seg * w.values())))
                for w in cfg.window_bank
            ])
            assert concs[selection[i, f_idx]] == concs.min(), \
                f"bin {r} frame {f_idx}: chose {selection[i, f_idx]}, " \
                f"minimum at {concs.argmin()}"
            checked += 1
    report(9, f"single-member bank bitwise equal; "
              f"{checked} frame choices attain the bank minimum")
