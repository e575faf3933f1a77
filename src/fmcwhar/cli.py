"""Command-line front door for the radar pipeline.

Subcommands: parse, synth, maps, augment, train-toy, eval, params,
gradcheck. Every command writes a run manifest next to its outputs so a
run can be reproduced bit-exactly; every seeded command is
deterministic.

Exit codes: 0 success, 2 input error, 3 verification failure,
4 internal error. With ``--json``, errors land on stderr as one JSON
object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from . import augment as augment_mod
from . import domain_maps as dm
from . import radar_io, synth, training
from .nn.checkpoint import CheckpointError, load_checkpoint
from .nn.config import preset
from .nn.counting import (
    REFERENCE_SE_BASELINE_TRAINABLE,
    REFERENCE_TOTAL_FLOPS,
    REFERENCE_TOTAL_PARAMS,
    count_backbone_params,
    count_flops,
    count_params,
)
from .nn.gradcheck import DEFAULT_TOLERANCE, MODULE_GROUPS, run_gradcheck

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_VERIFICATION_FAILURE = 3
EXIT_INTERNAL_ERROR = 4


class CliInputError(ValueError):
    pass


@dataclass
class RunManifest:
    command: str
    config_hash: str
    seeds: dict
    inputs: list
    outputs: list
    tool_version: str
    wall_time_s: float

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2)


def _config_hash(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _manifest(command, args_payload, seeds, inputs, outputs, started) -> RunManifest:
    return RunManifest(
        command=command,
        config_hash=_config_hash(args_payload),
        seeds=seeds,
        inputs=[str(p) for p in inputs],
        outputs=[str(p) for p in outputs],
        tool_version=__version__,
        wall_time_s=round(time.time() - started, 3),
    )


def _cmd_parse(args) -> int:
    started = time.time()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    params, echo, discarded = radar_io.load_recording(args.input)

    header = {
        "carrier_freq_hz": params.carrier_freq_hz,
        "chirp_duration_s": params.chirp_duration_s,
        "samples_per_chirp": params.samples_per_chirp,
        "bandwidth_hz": params.bandwidth_hz,
        "sample_rate_hz": params.sample_rate_hz,
        "chirp_slope_hz_per_s": params.chirp_slope_hz_per_s,
        "wavelength_m": params.wavelength_m,
        "range_bin_m": params.range_bin_m,
        "n_chirps": echo.n_chirps,
        "discarded_entries": discarded,
    }
    with open(out_dir / "header.json", "w") as fh:
        json.dump(header, fh, indent=2)
    radar_io.save_recording(out_dir / "echo.datb", params, echo)

    magnitude = dm.SpectroMap(
        domain=dm.Domain.RANGE_TIME,
        values=dm.dsp.log_magnitude(np.abs(echo.data)),
        row_axis=dm.Axis("slow time", "s", 0.0, params.chirp_duration_s),
        col_axis=dm.Axis("fast time", "s", 0.0, 1.0 / params.sample_rate_hz),
        params=params,
    )
    dm.save_spectro_map(magnitude, out_dir / "raw_magnitude.smap")

    outputs = ["header.json", "echo.datb", "raw_magnitude.smap", "raw_magnitude.json"]
    _manifest("parse", {"input": args.input}, {}, [args.input],
              [out_dir / o for o in outputs], started).write(out_dir / "manifest.json")
    print(f"parsed {args.input}: {echo.n_chirps} chirps x "
          f"{params.samples_per_chirp} samples, {discarded} entries discarded")
    return EXIT_OK


def _radar_params_from(args) -> radar_io.RadarParams:
    return radar_io.RadarParams(
        carrier_freq_hz=args.carrier_hz,
        chirp_duration_s=args.chirp_s,
        samples_per_chirp=args.samples,
        bandwidth_hz=args.bandwidth_hz,
    )


def _cmd_synth(args) -> int:
    started = time.time()
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    scene = synth.activity_template(args.kind, args.seed)
    params = _radar_params_from(args)
    echo = synth.generate(scene, params)
    radar_io.save_recording(out_path, params, echo)
    scene_path = out_path.with_suffix(out_path.suffix + ".scene.json")
    scene_path.write_text(scene.to_json())

    payload = {"kind": args.kind, "seed": args.seed, "params": asdict(params)}
    _manifest("synth", payload, {"scene_seed": args.seed}, [],
              [out_path, scene_path], started).write(
        out_path.with_suffix(out_path.suffix + ".manifest.json"))
    print(f"wrote {out_path} ({echo.n_chirps} chirps) and {scene_path.name}")
    return EXIT_OK


def _cmd_maps(args) -> int:
    started = time.time()
    domains = [d.strip() for d in args.domains.split(",") if d.strip()]
    unknown = set(domains) - {"rt", "dt", "rd"}
    if unknown:
        raise CliInputError(f"unknown domains {sorted(unknown)}; use rt, dt, rd")
    if not domains or len(set(domains)) != len(domains):
        raise CliInputError(
            f"--domains must list rt, dt or rd, each at most once, got {args.domains!r}")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _, echo, _ = radar_io.load_recording(args.input)
    outputs = []
    for key, spectro in zip(domains, dm.domain_maps(echo, mti=not args.no_mti,
                                                     domains=domains)):
        path = out_dir / f"{key}.smap"
        dm.save_spectro_map(spectro, path)
        outputs += [path, out_dir / f"{key}.json"]
        if args.pgm:
            pgm = out_dir / f"{key}.pgm"
            dm.write_pgm(spectro, pgm)
            outputs.append(pgm)

    _manifest("maps", {"input": args.input, "domains": domains,
                       "no_mti": args.no_mti, "pgm": args.pgm},
              {}, [args.input], outputs, started).write(out_dir / "manifest.json")
    print(f"wrote {len(outputs)} files to {out_dir}")
    return EXIT_OK


def _cmd_augment(args) -> int:
    started = time.time()
    out_path = Path(args.out)
    policy = (augment_mod.AugmentPolicy.from_json(Path(args.policy).read_text())
              if args.policy else augment_mod.AugmentPolicy())
    if args.seed is not None:
        policy = replace(policy, seed=args.seed)
    spectro = dm.load_spectro_map(args.input)
    noised = augment_mod.inject(spectro, policy)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    dm.save_spectro_map(noised, out_path)

    _manifest("augment", {"input": args.input, "policy": json.loads(policy.to_json())},
              {"noise_seed": policy.seed}, [args.input],
              [out_path], started).write(
        out_path.with_suffix(out_path.suffix + ".manifest.json"))
    print(f"wrote {out_path} (seed {policy.seed})")
    return EXIT_OK


def _cmd_train_toy(args) -> int:
    started = time.time()
    out_dir = Path(args.out)
    cfg = (training.TrainConfig.from_json(Path(args.config).read_text())
           if args.config else training.TrainConfig())
    summary = training.run_toy_training(cfg, out_dir)

    manifest = _manifest(
        "train-toy", json.loads(cfg.to_json()), {"train_seed": cfg.seed},
        [args.config] if args.config else [],
        [out_dir / name for name in
         ("dataset", "metrics.csv", "train_metrics.csv", "train_confusion.csv",
          "checkpoint")],
        started,
    )
    payload = asdict(manifest)
    payload["summary"] = summary
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"train accuracy {summary['train_accuracy']:.3f} after "
          f"{summary['epochs']} epochs "
          f"(loss {summary['first_epoch_loss']:.4f} -> {summary['final_loss']:.4f})")
    return EXIT_OK


def _cmd_eval(args) -> int:
    started = time.time()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    model = load_checkpoint(args.ckpt)
    dataset = training.load_dataset(args.data)
    report = training.evaluate(model, dataset)
    report.write_csv(out_dir / "metrics.csv", out_dir / "confusion.csv")

    _manifest("eval", {"ckpt": args.ckpt, "data": args.data}, {},
              [args.ckpt, args.data],
              [out_dir / "metrics.csv", out_dir / "confusion.csv"],
              started).write(out_dir / "manifest.json")
    print(f"overall accuracy {report.overall_accuracy:.4f} "
          f"on {int(report.confusion.sum())} samples")
    return EXIT_OK


def _cmd_params(args) -> int:
    cfg = preset(args.preset, lstm_feature_dim_rule=args.lstm_rule)
    params = count_params(cfg)
    flops = count_flops(cfg)

    lines = [f"preset {args.preset}  (feature rule {args.lstm_rule})", ""]
    lines.append(f"{'module':<16} {'params':>12} {'MACs':>14}")
    for module in params.per_module:
        lines.append(f"{module:<16} {params.per_module[module]:>12,} "
                     f"{flops.per_module.get(module, 0):>14,}")
    lines.append(f"{'total':<16} {params.total:>12,} {flops.total:>14,}")
    lines.append(f"{'non-trainable':<16} {params.non_trainable:>12,}")

    if args.preset in ("b0", "table1_literal"):
        se = count_backbone_params(
            preset(args.preset, attention="se", include_classifier=True))
        lines.append("")
        lines.append(
            f"single-branch SE baseline: {se.total:,} trainable "
            f"({100 * (se.total - REFERENCE_SE_BASELINE_TRAINABLE) / REFERENCE_SE_BASELINE_TRAINABLE:+.2f}% "
            f"vs {REFERENCE_SE_BASELINE_TRAINABLE:,})")
        lines.append(
            f"full-model delta vs reference: params "
            f"{100 * (params.total - REFERENCE_TOTAL_PARAMS) / REFERENCE_TOTAL_PARAMS:+.2f}% "
            f"of {REFERENCE_TOTAL_PARAMS:,}, FLOPs "
            f"{100 * (flops.total - REFERENCE_TOTAL_FLOPS) / REFERENCE_TOTAL_FLOPS:+.2f}% "
            f"of {REFERENCE_TOTAL_FLOPS:,}")
    text = "\n".join(lines)
    print(text)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text + "\n")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    results = run_gradcheck(args.module)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {r.max_rel_error:.3e}  {status}")
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed")
        return EXIT_VERIFICATION_FAILURE
    print(f"all {len(results)} gradient checks passed (tolerance {DEFAULT_TOLERANCE:g})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fmcwhar",
        description="FMCW radar spectrogram pipeline and neural reference tools",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit machine-readable errors on stderr")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[common], **kw))

    p = sub.add_parser("parse", help="parse a raw recording, dump header and echo")
    p.add_argument("input")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("synth", help="generate a synthetic activity recording")
    p.add_argument("--kind", required=True,
                   choices=[k.value for k in synth.ActivityKind])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True,
                   help="echo file (.dat ASCII or .datb binary)")
    p.add_argument("--carrier-hz", type=float, default=5.8e9)
    p.add_argument("--chirp-s", type=float, default=1e-3)
    p.add_argument("--samples", type=int, default=128)
    p.add_argument("--bandwidth-hz", type=float, default=4e8)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("maps", help="build spectrogram domains from a recording")
    p.add_argument("input")
    p.add_argument("--domains", default="rt,dt,rd")
    p.add_argument("--out", required=True)
    p.add_argument("--pgm", action="store_true", help="also write 8-bit previews")
    p.add_argument("--no-mti", action="store_true",
                   help="skip clutter filtering in the range-time map")
    p.set_defaults(func=_cmd_maps)

    p = sub.add_parser("augment", help="power-stratified noise injection on a map")
    p.add_argument("input", help=".smap file")
    p.add_argument("--policy", help="policy JSON (defaults apply if omitted)")
    p.add_argument("--seed", type=int, default=None, help="override the policy seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("train-toy", help="overfit the small preset on synthetic data")
    p.add_argument("--config", help="TrainConfig JSON (defaults apply if omitted)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_toy)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset directory")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("params", help="parameter/FLOP audit tables")
    p.add_argument("--preset", default="b0", choices=["b0", "table1_literal", "toy"])
    p.add_argument("--lstm-rule", default="hxc", choices=["hxc", "c"])
    p.add_argument("--out", help="also write the table to this file")
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("gradcheck", help="finite-difference verification suite")
    p.add_argument("--module", default="all",
                   choices=sorted(MODULE_GROUPS))
    p.set_defaults(func=_cmd_gradcheck)

    return parser


_INPUT_ERRORS = (
    CliInputError,
    radar_io.RadarIoError,
    dm.DomainMapError,
    synth.SynthError,
    augment_mod.AugmentError,
    training.TrainingError,
    CheckpointError,
    FileNotFoundError,
    json.JSONDecodeError,
    KeyError,
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        _report_error(args, exc)
        return EXIT_INPUT_ERROR
    except Exception as exc:  # anything else is an internal failure
        _report_error(args, exc)
        return EXIT_INTERNAL_ERROR


def _report_error(args, exc) -> None:
    if getattr(args, "json", False):
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
    else:
        print(f"error: {exc}", file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
