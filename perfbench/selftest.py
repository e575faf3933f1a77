"""Self-tests for the benchmark harness.

    python3 perfbench/selftest.py

Smoke-runs every workload briefly in both modes, checks the host-speed
adjustment and that every op is bracketed by kernel timings, checks
that each output check accepts real outputs and rejects a deliberately
corrupted one, and checks that the harness refuses to run without the
library sources.
Scratch directories are made inside the checkout and removed afterwards.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402
from fmcwhar import domain_maps as dm  # noqa: E402
from fmcwhar import dsp, synth, training  # noqa: E402
from fmcwhar.radar_io import EchoMatrix  # noqa: E402
from spans import Tracer  # noqa: E402


def run_bench(cwd, workload, trace, seconds="1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


class SmokeTest(unittest.TestCase):
    def test_every_workload_reports_every_declared_metric(self):
        with open(ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
        # Exact call counts per recording: (iir_filter, range_profiles).
        front_end_calls = {"dataset": 3.0, "classify": 3.0, "train": 0.0}
        for workload in (w["name"] for w in spec["workloads"]):
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_bench(ROOT, workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"], proc.stderr)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    metrics = result["metrics"]
                    self.assertEqual(set(metrics), {m["name"] for m in spec[section]})
                    if trace:
                        for span in ("dsp.iir_filter", "domain_maps.range_profiles"):
                            self.assertEqual(metrics[f"{span}.calls_per_recording"]["value"],
                                             front_end_calls[workload])
                    else:
                        self.assertTrue(all(m["value"] > 0 for m in metrics.values()))

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=ROOT) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench(tmp, "dataset", 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class TracerTest(unittest.TestCase):
    def test_sees_inner_calls_and_restores_originals(self):
        original = dsp.iir_filter
        scene = synth.activity_template("walk", seed=1)
        echo = synth.generate(scene, workloads.PARAMS)
        short = EchoMatrix(echo.params, echo.data[:256])
        tracer = Tracer()
        tracer.install()
        try:
            dm.range_time_map(short)
        finally:
            tracer.uninstall()
        self.assertIs(dsp.iir_filter, original)
        totals = tracer.totals()
        for name in ("domain_maps.range_time_map", "domain_maps.range_profiles",
                     "dsp.iir_filter", "dsp.log_magnitude"):
            self.assertEqual(totals[name][0], 1, name)
        root = next(s for s in tracer.spans if s[4] == -1)
        self.assertEqual(root[0], "domain_maps.range_time_map")
        total_self = sum(self_s for _, self_s in totals.values())
        self.assertAlmostEqual(total_self, root[3] - root[2], places=9)


class HostSpeedTest(unittest.TestCase):
    def test_adjusted_time_scales_with_the_kernel(self):
        self.assertAlmostEqual(hostspeed.adjusted(1.0, hostspeed.NOMINAL_S, hostspeed.NOMINAL_S),
                               1.0)
        slow = 2 * hostspeed.NOMINAL_S
        self.assertAlmostEqual(hostspeed.adjusted(1.0, slow, slow), 0.5)
        self.assertAlmostEqual(hostspeed.adjusted(1.0, hostspeed.NOMINAL_S, slow), 1 / 1.5)

    def test_every_op_is_bracketed_by_kernel_timings(self):
        with workloads.Session(0.05, traced=False) as session:
            while session.more():
                session.record(0.01, 1)
        ops = session.ops["plain"]
        self.assertGreater(len(ops), 0)
        for before, after in zip(ops, ops[1:]):
            self.assertEqual(before.kernel_after, after.kernel_before)
        self.assertTrue(all(op.kernel_before > 0 and op.kernel_after > 0 for op in ops))


class ChecksTest(unittest.TestCase):
    """Each check passes a real output and fails a corrupted copy of it."""

    @classmethod
    def setUpClass(cls):
        with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=ROOT) as tmp:
            ctx = workloads.setup_classify(5, Path(tmp))
            seed = 17
            cls.dataset = workloads.render_and_load(Path(tmp) / "dataset", seed)
        cls.dataset_scenes, cls.dataset_labels = workloads.dataset_scenes(
            seed, workloads.DATASET_SAMPLES_PER_CLASS)
        cls.scene = ctx["scenes"][0]
        cls.tensors, cls.logits, _ = workloads.classify(ctx["model"], ctx["binary"][0], "binary")
        _, cls.ascii_logits, _ = workloads.classify(ctx["model"], ctx["ascii_first"], "ascii")
        cls.num_classes = ctx["model"].cfg.num_classes

    def check_maps(self, tensors):
        return checks.check_maps(tensors, [self.scene], workloads.PARAMS)

    def with_rd(self, rd):
        return [self.tensors[0], self.tensors[1], rd]

    def test_real_outputs_pass(self):
        self.assertEqual(self.check_maps(self.tensors), [])
        self.assertEqual(checks.check_logits(self.logits, self.num_classes), [])
        self.assertEqual(checks.check_codec_twin(self.logits, self.ascii_logits), [])
        self.assertEqual(checks.check_dataset(self.dataset, self.dataset_scenes,
                                              self.dataset_labels, workloads.PARAMS), [])

    def test_moved_rd_peak_fails(self):
        rolled = np.roll(self.tensors[2], 32, axis=3)
        self.assertTrue(self.check_maps(self.with_rd(rolled)))
        x_rt, x_dt, x_rd, labels = self.dataset
        moved = (x_rt, x_dt, np.roll(x_rd, 32, axis=3), labels)
        self.assertTrue(checks.check_dataset(moved, self.dataset_scenes,
                                             self.dataset_labels, workloads.PARAMS))

    def test_non_finite_map_fails(self):
        rd = self.tensors[2].copy()
        rd[0, 0, 5, 5] = np.nan
        self.assertTrue(self.check_maps(self.with_rd(rd)))

    def test_map_outside_unit_interval_fails(self):
        self.assertTrue(self.check_maps(self.with_rd(self.tensors[2] * 1.5)))
        self.assertTrue(self.check_maps(self.with_rd(self.tensors[2] - 0.25)))

    def test_wrong_dataset_labels_fail(self):
        x_rt, x_dt, x_rd, labels = self.dataset
        relabeled = (x_rt, x_dt, x_rd, labels[::-1].copy())
        self.assertTrue(checks.check_dataset(relabeled, self.dataset_scenes,
                                             self.dataset_labels, workloads.PARAMS))

    def test_bad_logits_fail(self):
        self.assertTrue(checks.check_logits(self.logits[:, :-1], self.num_classes))
        self.assertTrue(checks.check_logits(self.logits * np.inf, self.num_classes))

    def test_codec_mismatch_fails(self):
        nudged = self.ascii_logits.copy()
        nudged[0, 0] = np.nextafter(nudged[0, 0], np.inf)
        self.assertTrue(checks.check_codec_twin(self.logits, nudged))

    def test_bad_epoch_records_fail(self):
        ok = training.EpochRecord(epoch=2, loss=1.5, accuracy=0.5, lr=1e-3)
        self.assertEqual(checks.check_epoch(ok, 2), [])
        self.assertTrue(checks.check_epoch(ok, 3))
        self.assertTrue(checks.check_epoch(
            training.EpochRecord(epoch=2, loss=float("nan"), accuracy=0.5, lr=1e-3), 2))
        self.assertTrue(checks.check_epoch(
            training.EpochRecord(epoch=2, loss=1.5, accuracy=1.5, lr=1e-3), 2))

    def test_loss_that_did_not_fall_fails(self):
        self.assertEqual(checks.check_loss_fell([1.8, 1.7, 1.2]), [])
        self.assertTrue(checks.check_loss_fell([1.8, 1.2, 1.8]))


if __name__ == "__main__":
    unittest.main()
