"""Tests for the benchmark itself.

    python3 -m unittest discover -s perfbench/tests

The metric tests run in milliseconds. The program tests build the benchmark
(into .bench_build/perfbench under the current directory, as run.py does)
and run short single-unit runs; they take about a minute.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
PERFBENCH = HERE.parent
sys.path.insert(0, str(PERFBENCH))
import metrics  # noqa: E402
import run  # noqa: E402

UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class MetricNames(unittest.TestCase):
    def test_names_and_units_are_well_formed(self):
        for table in (metrics.END_TO_END, metrics.PER_LAYER):
            for name, unit in table.items():
                self.assertTrue(metrics.NAME_RE.fullmatch(name), name)
                self.assertLessEqual(len(name), 64, name)
                self.assertTrue(UNIT_RE.fullmatch(unit), unit)

    def test_benchmark_json_matches_the_tables(self):
        spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         metrics.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         metrics.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))


class RatioMetrics(unittest.TestCase):
    def test_stall_share_sums_every_stall_counter_over_core_cycles(self):
        counters = {
            "cpu0.stall_rob": 300, "cpu0.stall_dependent": 100,
            "cpu0.stall_fixed": 50, "cpu0.stall_structural": 50,
            "cpu1.stall_rob": 200, "cpu1.committed_instrs": 999,
            "gpu.stall_no_context": 10_000,
        }
        # 700 stalls over 2 cores x 1000 cycles.
        self.assertAlmostEqual(metrics.stall_share(counters, 1000, 2), 0.35)
        self.assertEqual(metrics.per_core_sum(counters, "stall_rob"), 500)

    def test_unattributed_is_the_span_minus_every_module(self):
        prof = {"cpu_core": 2.0, "dram": 0.5, "llc": 0.25, "ckpt": 0.0}
        self.assertAlmostEqual(metrics.unattributed_s(3.0, prof), 0.25)
        # Sampled scopes can over-attribute; the residual goes negative.
        self.assertAlmostEqual(metrics.unattributed_s(2.5, prof), -0.25)

    def test_worker_busy_share_and_critical_job(self):
        # Worker 0 finishes jobs at 1 s and 4 s, worker 1 at 2 s; the batch
        # ends at 4 s. Busy: 4 + 2 of 2 x 4 worker-seconds.
        busy, longest = metrics.worker_busy([(0, 1.0), (1, 2.0), (0, 4.0)],
                                            2, 4.0)
        self.assertAlmostEqual(busy, 0.75)
        self.assertAlmostEqual(longest, 3.0)

    def test_ratios_guard_an_empty_base(self):
        self.assertEqual(metrics.ratio(5, 0), 0.0)
        self.assertAlmostEqual(metrics.weighted_speedup([0.5, 1.0],
                                                        [1.0, 2.0]), 1.0)
        self.assertAlmostEqual(metrics.fps_error_pct(44.0, 40.0), 10.0)


def unit(digest, delta="d0", cap=False, error=""):
    return {"wall_s": 1.0, "sim_cycles": 1000, "digest": digest,
            "delta_digest": delta, "cap": cap, "error": error}


class Correctness(unittest.TestCase):
    def raw(self, units):
        return {"workload": "m8-throt", "units": units,
                "calibration": {"delta_digest": "d0", "totals_digest": "t0"}}

    def test_agreeing_units_pass(self):
        self.assertEqual(metrics.check(self.raw([unit("a")] * 3))[:2], (3, 0))

    def test_disagreeing_capped_or_throwing_units_fail(self):
        units = [unit("a"), unit("a"), unit("b"), unit("a", cap=True),
                 unit("a", error="boom"), unit("a", delta="d1")]
        attempted, failed, problems = metrics.check(self.raw(units))
        self.assertEqual((attempted, failed), (6, 4))
        self.assertEqual(len(problems), 4)


def job(digest):
    return {"digest": digest, "resubmit_digest": digest, "cap": False}


def batch(jobs, error=""):
    return {"jobs": jobs, "error": error}


class SweepCorrectness(unittest.TestCase):
    def raw(self, batches, njobs=2):
        return {"workload": "policy-sweep", "units": batches,
                "sweep_jobs": njobs,
                "calibration": {"delta_digest": "d0", "totals_digest": "t0"}}

    def test_agreeing_batches_pass(self):
        batches = [batch([job("a"), job("b")])] * 3
        self.assertEqual(metrics.check(self.raw(batches))[:2], (12, 0))

    def test_every_batch_throwing_fails_every_job(self):
        # A thrown run_batch returns no results; the job list still counts.
        batches = [batch([], error="boom")] * 3
        attempted, failed, _ = metrics.check(self.raw(batches))
        self.assertEqual((attempted, failed), (12, 12))

    def test_short_or_disagreeing_batches_fail(self):
        stale = job("b")
        stale["resubmit_digest"] = "x"
        batches = [batch([job("a"), job("b")]), batch([job("a")]),
                   batch([job("a"), stale]), batch([job("c"), job("b")])]
        attempted, failed, _ = metrics.check(self.raw(batches))
        # The short batch fails both jobs twice; one stale store hit; one
        # digest that disagrees with the other batches.
        self.assertEqual((attempted, failed), (16, 6))


class HostNormalisation(unittest.TestCase):
    def test_host_times_scale_by_the_probe_timed_beside_them(self):
        ref = metrics.PROBE_REF_S
        # A unit timed while the probe ran at half speed took twice as long
        # as the reference host would have.
        self.assertAlmostEqual(metrics.to_ref_s(4.0, 2 * ref), 2.0)
        raw = {"units": [dict(unit("a"), wall_s=2.0, probe_s=ref),
                         dict(unit("a"), wall_s=4.0, probe_s=2 * ref),
                         dict(unit("a"), wall_s=6.0, probe_s=ref)],
               "setup_s": [1e-4, 2e-4], "setup_probe_s": [ref, 2 * ref],
               "peak_rss_kb": 2048}
        e = metrics.end_to_end(raw)
        for got, want in zip(e["wall_ref_s"], [2.0, 2.0, 6.0]):
            self.assertAlmostEqual(got, want)
        # 1000 simulated cycles per unit.
        for got, want in zip(e["sim_kcycles_per_ref_s"], [0.5, 0.5, 1 / 6]):
            self.assertAlmostEqual(got, want)
        for got in e["setup_s"]:
            self.assertAlmostEqual(got, 1e-4)
        self.assertEqual(e["peak_rss_mb"], [2.0])
        got = metrics.measured(raw)
        self.assertEqual((got["wall_s"], got["probe_s"]), (4.0, ref))
        self.assertAlmostEqual(got["setup_s"], 1.5e-4)


class NotExercised(unittest.TestCase):
    def test_single_runs_name_the_sweep_only_rows(self):
        self.assertEqual(metrics.not_exercised({"workload": "m8-throt"}),
                         metrics.SWEEP_ONLY)
        self.assertEqual(metrics.not_exercised({"workload": "policy-sweep"}),
                         ())
        for name in metrics.SWEEP_ONLY:
            self.assertIn(name, metrics.PER_LAYER)


class Program(unittest.TestCase):
    """Runs the real benchmark program: the seed must reach the simulation."""

    @classmethod
    def setUpClass(cls):
        cls.program = run.build(Path.cwd() / ".bench_build" / "perfbench")
        if cls.program is None:
            raise unittest.SkipTest("the benchmark does not build here")

    def digests(self, workload, seed):
        with tempfile.TemporaryDirectory() as work:
            out = subprocess.run(
                [str(self.program), "--workload", workload, "--seed", str(seed),
                 "--seconds", "0", "--trace", "0", "--work-dir", work],
                stdout=subprocess.PIPE, text=True, check=True).stdout
        raw = json.loads(out.strip().splitlines()[-1])
        attempted, failed, problems = metrics.check(raw)
        self.assertEqual(failed, 0, problems)
        if workload == "policy-sweep":
            return [[j["digest"] for j in b["jobs"]] for b in raw["units"]]
        return [u["digest"] for u in raw["units"]]

    def test_seed_reaches_the_program(self):
        for workload in ("m1-telemetry", "policy-sweep"):
            with self.subTest(workload=workload):
                first = self.digests(workload, 7)
                self.assertEqual(first, self.digests(workload, 7))
                self.assertNotEqual(first, self.digests(workload, 8))

    def test_refuses_to_run_without_the_simulator_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(PERFBENCH, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(PERFBENCH.parent / "BENCHMARK.json", tmp)
            r = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "m8-throt",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, timeout=180)
        self.assertNotEqual(r.returncode, 0)
        self.assertEqual(r.stdout, "")


if __name__ == "__main__":
    unittest.main()
