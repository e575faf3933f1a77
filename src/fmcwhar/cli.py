"""Command-line front door for the radar pipeline.

Subcommands: parse, synth, maps, augment, train-toy, eval, params,
gradcheck. Every command except params and gradcheck writes a run
manifest next to its outputs so a run can be reproduced bit-exactly;
every seeded command is deterministic.

Exit codes: 0 success, 2 input error, 3 verification failure,
4 internal error. With ``--json``, errors land on stderr as one JSON
object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, replace
from pathlib import Path

from . import __version__
from . import augment as augment_mod
from . import domain_maps as dm
from . import radar_io, synth, training
from .nn.checkpoint import CheckpointError, load_checkpoint
from .nn.config import PRESETS, preset
from .nn.counting import (
    REFERENCE_SE_BASELINE_TRAINABLE,
    REFERENCE_TOTAL_FLOPS,
    REFERENCE_TOTAL_PARAMS,
    count_flops,
    count_params,
    count_se_baseline,
)
from .nn.gradcheck import DEFAULT_TOLERANCE, GROUPS, run_gradcheck

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_VERIFICATION_FAILURE = 3
EXIT_INTERNAL_ERROR = 4


class CliInputError(ValueError):
    pass


def _write_manifest(path, command, config, seeds, inputs, outputs, started, **extra) -> None:
    """Write a run manifest: the hash of ``config``, seeds, paths, tool
    version and wall time, then each ``extra`` section in order."""
    canonical = json.dumps(config, sort_keys=True, default=str)
    manifest = {
        "command": command,
        "config_hash": hashlib.sha256(canonical.encode()).hexdigest()[:16],
        "seeds": seeds,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "tool_version": __version__,
        "wall_time_s": round(time.time() - started, 3),
        **extra,
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)


@contextmanager
def _removed_on_error(*paths):
    """Run the block; if it raises, remove what it made of ``paths``: each
    path that did not exist before it, or the outermost directory above
    that path that did not, with all it holds."""
    made = []
    for path in map(Path, paths):
        made += [p for p in (path, *path.parents) if not os.path.lexists(p)][-1:]
    try:
        yield
    except BaseException:
        for path in made:
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink(missing_ok=True)
        raise


def _read_record(path, cls, error):
    """The ``cls`` record spelled out by the JSON object in the file at ``path``."""
    fields = radar_io.read_json_object(path, error)
    try:
        return cls(**fields)
    except TypeError as exc:  # unknown keys
        raise error(f"{path}: bad {cls.__name__}: {exc}") from exc


def _cmd_parse(args) -> int:
    started = time.time()
    params, echo, discarded = radar_io.load_recording(args.input)
    out_dir = Path(args.out)
    outputs = [out_dir / "header.json", out_dir / "echo.datb"]
    header = {
        **asdict(params),
        "sample_rate_hz": params.sample_rate_hz,
        "chirp_slope_hz_per_s": params.chirp_slope_hz_per_s,
        "wavelength_m": params.wavelength_m,
        "range_bin_m": params.range_bin_m,
        "n_chirps": echo.n_chirps,
        "discarded_entries": discarded,
    }
    with _removed_on_error(*outputs, out_dir / "manifest.json"):
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "header.json", "w") as fh:
            json.dump(header, fh, indent=2)
        radar_io.save_recording(out_dir / "echo.datb", params, echo)
        _write_manifest(out_dir / "manifest.json", "parse", {"input": args.input}, {},
                        [args.input], outputs, started)
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
    params = _radar_params_from(args)
    scene = synth.activity_template(args.kind, args.seed)
    echo = synth.generate(scene, params)
    out_path = Path(args.out)
    scene_path = out_path.with_suffix(out_path.suffix + ".scene.json")
    manifest_path = out_path.with_suffix(out_path.suffix + ".manifest.json")
    with _removed_on_error(out_path, scene_path, manifest_path):
        out_path.parent.mkdir(parents=True, exist_ok=True)
        radar_io.save_recording(out_path, params, echo)
        scene_path.write_text(scene.to_json())
        payload = {"kind": args.kind, "seed": args.seed, "params": asdict(params)}
        _write_manifest(manifest_path, "synth", payload, {"scene_seed": args.seed}, [],
                        [out_path, scene_path], started)
    print(f"wrote {out_path} ({echo.n_chirps} chirps) and {scene_path.name}")
    return EXIT_OK


def _cmd_maps(args) -> int:
    started = time.time()
    domains = [d.strip() for d in args.domains.split(",") if d.strip()]
    unknown = set(domains) - set(training.DOMAIN_KEYS)
    if unknown:
        raise CliInputError(f"unknown domains {sorted(unknown)}; use rt, dt, rd")
    if not domains or len(set(domains)) != len(domains):
        raise CliInputError(
            f"--domains must list rt, dt or rd, each at most once, got {args.domains!r}")

    # No reference to the echo is kept here, so the maps free it after the
    # range FFT; the first map is built, and a bad recording rejected,
    # before --out exists.
    maps = dm.domain_maps(radar_io.load_recording(args.input).echo,
                          mti=not args.no_mti, domains=domains)
    spectro = next(maps)
    out_dir = Path(args.out)
    suffixes = (".smap", ".json", ".pgm") if args.pgm else (".smap", ".json")
    outputs = [out_dir / (key + suffix) for key in domains for suffix in suffixes]
    with _removed_on_error(*outputs, out_dir / "manifest.json"):
        out_dir.mkdir(parents=True, exist_ok=True)
        for key in domains:
            dm.save_spectro_map(spectro, out_dir / f"{key}.smap")
            if args.pgm:
                dm.write_pgm(spectro, out_dir / f"{key}.pgm")
            spectro = next(maps, None)
        _write_manifest(out_dir / "manifest.json", "maps",
                        {"input": args.input, "domains": domains, "no_mti": args.no_mti,
                         "pgm": args.pgm}, {}, [args.input], outputs, started)
    print(f"wrote {len(outputs)} files to {out_dir}")
    return EXIT_OK


def _cmd_augment(args) -> int:
    started = time.time()
    out_path = Path(args.out)
    policy = (_read_record(args.policy, augment_mod.AugmentPolicy, augment_mod.AugmentError)
              if args.policy else augment_mod.AugmentPolicy())
    if args.seed is not None:
        policy = replace(policy, seed=args.seed)
    spectro = dm.load_spectro_map(args.input)
    noised = augment_mod.inject(spectro, policy)
    manifest_path = out_path.with_suffix(out_path.suffix + ".manifest.json")
    outputs = [out_path, dm.sidecar_path(out_path)]
    with _removed_on_error(*outputs, manifest_path):
        out_path.parent.mkdir(parents=True, exist_ok=True)
        dm.save_spectro_map(noised, out_path)
        _write_manifest(manifest_path, "augment",
                        {"input": args.input, "policy": asdict(policy)},
                        {"noise_seed": policy.seed}, [args.input], outputs, started)
    print(f"wrote {out_path} (seed {policy.seed})")
    return EXIT_OK


def _cmd_train_toy(args) -> int:
    started = time.time()
    out_dir = Path(args.out)
    cfg = (_read_record(args.config, training.TrainConfig, training.TrainingError)
           if args.config else training.TrainConfig())
    outputs = [out_dir / name for name in
               ("dataset", "metrics.csv", "train_metrics.csv", "train_confusion.csv",
                "checkpoint")]
    with _removed_on_error(*outputs, out_dir / "manifest.json"):
        summary = training.run_toy_training(cfg, out_dir)
        _write_manifest(out_dir / "manifest.json", "train-toy", asdict(cfg),
                        {"train_seed": cfg.seed}, [args.config] if args.config else [],
                        outputs, started, summary=summary)
    print(f"train accuracy {summary['train_accuracy']:.3f} after "
          f"{summary['epochs']} epochs "
          f"(loss {summary['first_epoch_loss']:.4f} -> {summary['final_loss']:.4f})")
    return EXIT_OK


def _cmd_eval(args) -> int:
    started = time.time()
    out_dir = Path(args.out)
    model = load_checkpoint(args.ckpt)
    dataset = training.load_dataset(args.data)
    report = training.evaluate(model, dataset)
    outputs = [out_dir / "metrics.csv", out_dir / "confusion.csv"]
    with _removed_on_error(*outputs, out_dir / "manifest.json"):
        out_dir.mkdir(parents=True, exist_ok=True)
        report.write_csv(*outputs)
        _write_manifest(out_dir / "manifest.json", "eval",
                        {"ckpt": args.ckpt, "data": args.data}, {}, [args.ckpt, args.data],
                        outputs, started)
    print(f"overall accuracy {report.overall_accuracy:.4f} "
          f"on {int(report.confusion.sum())} samples")
    return EXIT_OK


def _cmd_params(args) -> int:
    cfg = preset(args.preset)
    params = count_params(cfg)
    flops = count_flops(cfg)

    lines = [f"preset {args.preset}", ""]
    lines.append(f"{'module':<16} {'params':>12} {'MACs':>14}")
    for module in params.per_module:
        lines.append(f"{module:<16} {params.per_module[module]:>12,} "
                     f"{flops.per_module.get(module, 0):>14,}")
    lines.append(f"{'total':<16} {params.total:>12,} {flops.total:>14,}")
    lines.append(f"{'non-trainable':<16} {params.non_trainable:>12,}")

    if args.preset == "b0":
        se = count_se_baseline(cfg)
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
    toy = training.TOY_RADAR_PARAMS
    p.add_argument("--carrier-hz", type=float, default=toy.carrier_freq_hz)
    p.add_argument("--chirp-s", type=float, default=toy.chirp_duration_s)
    p.add_argument("--samples", type=int, default=toy.samples_per_chirp)
    p.add_argument("--bandwidth-hz", type=float, default=toy.bandwidth_hz)
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
    p.add_argument("--preset", default="b0", choices=sorted(PRESETS))
    p.add_argument("--out", help="also write the table to this file")
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("gradcheck", help="finite-difference verification suite")
    p.add_argument("--module", default="all",
                   choices=sorted(["all", *GROUPS]))
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
    FileExistsError,
    IsADirectoryError,
    NotADirectoryError,
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
