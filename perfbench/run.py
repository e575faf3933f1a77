"""Benchmark of the fmcwhar chain, end to end and layer by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload {dataset,train,classify} \\
        --seed N --seconds S --trace {0,1}

The library is imported from ``src/`` of the checkout; nothing is
installed. Set-up runs ``SETUP_REPEATS`` times and its median is
reported. With ``--trace 0`` the run measures for ``--seconds`` and
reports the end-to-end metrics of ``BENCHMARK.json``, whose timings are
host-speed-adjusted (see ``hostspeed.py``); with ``--trace 1`` it
measures half the time untraced and half traced and reports the
per-layer metrics. Every op's output is checked. The last line of
standard output is the result as one JSON object; the line before it is
a report with the environment, op counts, the wall-clock timings and
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def import_library():
    """Import fmcwhar from this checkout's sources, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import fmcwhar

    origin = Path(fmcwhar.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"fmcwhar imported from {origin}, not from {SRC}")


def tail_quantile(n_ops: int) -> float:
    """The highest quantile with at least ten ops beyond it, capped at the
    90th percentile; runs of fewer than 20 ops report the median."""
    return min(0.9, max(0.5, 1.0 - 10.0 / n_ops))


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var, "default") for var in BLAS_THREAD_VARS},
        "src_py_lines": src_lines,
    }


def completed(ops):
    return [op for op in ops if op.seconds is not None]


def op_seconds(ops, adjusted: bool) -> list[float]:
    return [op.adjusted_seconds if adjusted else op.seconds for op in completed(ops)]


def items_per_s(ops, adjusted: bool = True) -> float:
    return sum(op.items for op in completed(ops)) / sum(op_seconds(ops, adjusted))


def timings(ops, setup_seconds, adjusted: bool) -> dict:
    op_ms = np.array(op_seconds(ops, adjusted)) * 1e3
    q = tail_quantile(len(op_ms))
    return {
        "setup_s": statistics.median(setup_seconds),
        "items_per_s": items_per_s(ops, adjusted),
        "op_ms_p50": float(np.percentile(op_ms, 50)),
        "op_ms_p90": float(np.percentile(op_ms, 100 * q)),
    }


def end_to_end(session, setups) -> tuple[dict, dict]:
    """Metrics in host-speed-adjusted time; the report adds the wall-clock ones."""
    ops = session.ops["plain"]
    metrics = timings(ops, [s["adjusted"] for s in setups], adjusted=True)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    kernel = [op.kernel_before for op in completed(ops)]
    report = {
        "ops": len(completed(ops)),
        "op_ms_p90_percentile": 100 * tail_quantile(len(completed(ops))),
        "wall_clock": timings(ops, [s["wall"] for s in setups], adjusted=False),
        "host_speed": hostspeed.NOMINAL_S / statistics.median(kernel),
    }
    return metrics, report


def per_layer(session, ctx) -> tuple[dict, dict]:
    from spans import FRONT_END_SPANS, STEP_SPANS

    ops = session.ops["traced"]
    recordings = sum(op.recordings for op in ops)
    steps = sum(op.steps for op in ops)
    totals = session.tracer.totals()
    metrics = {}
    for spans, unit_name, per in ((FRONT_END_SPANS, "calls_per_recording", recordings),
                                  (STEP_SPANS, "calls_per_step", steps)):
        for name in spans:
            calls, self_s = totals.get(name, (0, 0.0))
            metrics[f"{name}.self_ms"] = self_s * 1e3 / len(ops)
            metrics[f"{name}.{unit_name}"] = calls / per if per else float(calls)
    for codec in ("binary", "ascii"):
        name = f"radar_io.parse_dat.{codec}"
        calls, self_s = totals.get(name, (0, 0.0))
        mb = session.tracer.bytes_in[name] / 1e6
        metrics[f"{name}.mb_per_s"] = mb / self_s if calls else 0.0

    plain_rate = items_per_s(session.ops["plain"], adjusted=False)
    traced_rate = items_per_s(ops, adjusted=False)
    layer = {"nn.forward.macs_per_sample": 0.0, "nn.train.achieved_gmac_per_s": 0.0,
             "nn.checkpoint.load_checkpoint.ms": 0.0, **ctx["layer_metrics"]}
    if "cfg" in ctx:  # only the train workload carries a TrainConfig
        # One training sample costs a forward and a backward pass, about
        # three forward passes of multiply-accumulates.
        layer["nn.train.achieved_gmac_per_s"] = (
            3 * layer["nn.forward.macs_per_sample"] * plain_rate / 1e9)
    metrics.update(layer)
    # Host-speed-adjusted, since the two halves run at different times.
    metrics["trace.overhead_pct"] = (items_per_s(session.ops["plain"])
                                     / items_per_s(ops) - 1.0) * 100
    unexpected = sorted(set(totals) - set(FRONT_END_SPANS) - set(STEP_SPANS))
    report = {
        "traced_ops": len(ops),
        "untraced_ops": len(session.ops["plain"]),
        "traced_recordings": recordings,
        "traced_steps": steps,
        "items_per_s_untraced": plain_rate,
        "items_per_s_traced": traced_rate,
        "spans_recorded": len(session.tracer.spans),
        "unlisted_spans": unexpected,
    }
    return metrics, report


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import_library()
    from workloads import WORKLOADS, Session  # imports fmcwhar, so only after the path is set

    setup, body = WORKLOADS[workload]
    units = declared_metrics(trace)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        setups = []
        for repeat in range(SETUP_REPEATS):
            setup_dir = work / f"setup{repeat}"
            setup_dir.mkdir()
            kernel_before = hostspeed.measure()
            start = perf_counter()
            ctx = setup(seed, setup_dir)
            wall = perf_counter() - start
            adjusted = hostspeed.adjusted(wall, kernel_before, hostspeed.measure())
            setups.append({"wall": wall, "adjusted": adjusted})
        with Session(seconds, trace) as session:
            body(ctx, session)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        metrics, details = per_layer(session, ctx)
    else:
        metrics, details = end_to_end(session, setups)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")

    ops = session.ops["plain"] + session.ops["traced"]
    failed = [op for op in ops if op.errors]
    for op in failed[:5]:
        print("check failed: " + "; ".join(op.errors), file=sys.stderr)
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "setups": setups, "environment": environment(), **details}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failed and len(ops) > 0,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("dataset", "train", "classify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
