#!/usr/bin/env python3
"""Tests of the benchmark's own logic (no engine run needed).

    python3 perfbench/test_perfbench.py
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import run  # noqa: E402


def chain(energy, weight, acceptance, num_walkers, t_end=None):
    n = len(energy)
    return {"energy": energy, "weight": weight, "acceptance": acceptance,
            "num_walkers": num_walkers,
            "t_end": t_end if t_end is not None else [0.1 * (i + 1) for i in range(n)]}


class TailTest(unittest.TestCase):
    def test_thirty_values(self):
        # 30 generations: rank 20 has exactly 10 beyond it, at p66.7.
        value, pct = metrics.tail([float(v) for v in range(30, 0, -1)])
        self.assertEqual(value, 20.0)
        self.assertAlmostEqual(pct, 200.0 / 3.0)

    def test_hundred_values_is_p90(self):
        value, pct = metrics.tail([float(v) for v in range(1, 101)])
        self.assertEqual((value, pct), (90.0, 90.0))

    def test_too_few(self):
        self.assertIsNone(metrics.tail([1.0] * 10))
        self.assertEqual(metrics.tail([5.0] + [1.0] * 10), (1.0, 100.0 / 11.0))

    def test_generation_times(self):
        for got, want in zip(metrics.generation_times([0.5, 1.25, 2.0]), [0.5, 0.75, 0.75]):
            self.assertAlmostEqual(got, want)


class FailedShareTest(unittest.TestCase):
    def test_generation_rules(self):
        f = metrics.generation_failed
        self.assertFalse(f(-10.0, 8.0, 0.99))
        self.assertFalse(f(-10.0, 8.0, 1.0))
        self.assertTrue(f(None, 8.0, 0.99))          # NaN energy prints as null
        self.assertTrue(f(-10.0, None, 0.99))        # non-finite weight
        self.assertTrue(f(-10.0, math.inf, 0.99))
        self.assertTrue(f(-10.0, 0.0, 0.99))         # total weight 0
        self.assertTrue(f(-10.0, 8.0, 0.0))          # acceptance outside (0, 1]
        self.assertTrue(f(-10.0, 8.0, 1.5))

    def test_hand_built_dmc_series(self):
        # The nio64 defect's shape: a zero-weight first generation, then
        # healthy generations with a varying population.
        c = chain(energy=[0.0, -10.0, -12.0, None, -11.0, -30.0],
                  weight=[0.0, 7.5, 6.0, 5.0, 6.5, 7.0],
                  acceptance=[0.98, 0.98, 0.99, 0.99, 0.98, 0.98],
                  num_walkers=[8, 4, 7, 6, 5, 6])
        attempted, failed, mean, ok = metrics.chain_failures(c, 5, -11.0, 0.5)
        self.assertEqual(attempted, 36)
        self.assertEqual(failed, 8 + 6)              # generations 0 and 3
        self.assertEqual(mean, -11.0)                # generations 1, 2, 4; 5 is past check_gens
        self.assertTrue(ok)
        self.assertAlmostEqual(failed / attempted, 14.0 / 36.0)

    def test_mean_outside_tolerance_fails_every_sample(self):
        c = chain([-10.0, -10.0], [8.0, 8.0], [0.9, 0.9], [8, 8])
        attempted, failed, mean, ok = metrics.chain_failures(c, 2, -20.0, 1.0)
        self.assertEqual((attempted, failed, mean, ok), (16, 16, -10.0, False))

    def test_no_healthy_generation_fails_every_sample(self):
        c = chain([None, None], [8.0, 8.0], [0.9, 0.9], [8, 8])
        self.assertEqual(metrics.chain_failures(c, 2, 0.0, 1e9), (16, 16, None, False))


def fake_trace_record():
    spans = {n: 0.5 for n in ("drivers.stage_s", "particle.move_s", "particle.update_s",
                              "wavefunction.grad_s", "wavefunction.ratio_grad_s",
                              "wavefunction.accept_s", "wavefunction.drift_guard_s",
                              "hamiltonian.eval_s")}
    trace = dict(spans, walltime_s=5.0, untraced_walltime_s=4.0, crowd_busy_s=4.0,
                 barrier_wait_s=0.2, imbalance=1.1, reduce_s=0.01, branch_s=0.02,
                 untimed_s=0.3, thread_time_s=6.0, accepted=90, proposed=100,
                 drift_refreshes=1, move_pairs=1e6, update_pairs=1e6,
                 walker_bytes_mean=2.0 * (1 << 20), population_mean=8.0, population_max=9,
                 table_bytes=3 << 20,
                 kernels={k: 0.1 for k in ("DistTable", "J1", "J2", "Bspline-v",
                                           "Bspline-vgh", "SPO-vgl", "DetRatio",
                                           "DetUpdate", "Other")})
    return {"trace": trace, "init_s": 0.7, "build_s": 0.3, "spline_bytes": 1 << 20,
            "traced": chain([-1.0] * 3, [8.0] * 3, [0.9] * 3, [8] * 3)}


class NamesTest(unittest.TestCase):
    def setUp(self):
        with open(metrics.BENCHMARK_JSON) as f:
            self.spec = json.load(f)

    def test_end_to_end_names(self):
        rec = {"untraced": chain([-1.0] * 12, [8.0] * 12, [0.9] * 12, [8] * 12),
               "peak_rss_mb": 100.0}
        values, extra = metrics.end_to_end(rec, [1.0, 3.0, 2.0])
        self.assertEqual(sorted(values), sorted(n for n, _ in metrics.contract_metrics("end_to_end")))
        self.assertEqual(values["setup_s"], 2.0)
        self.assertAlmostEqual(values["samples_per_s"], 96 / 1.2)
        self.assertAlmostEqual(values["gen_ms_p50"], 100.0)
        self.assertEqual(extra["generations"], 12)

    def test_per_layer_names(self):
        values = metrics.per_layer(fake_trace_record())
        self.assertEqual(sorted(values), sorted(n for n, _ in metrics.contract_metrics("per_layer")))
        self.assertAlmostEqual(values["particle.pairs_per_us"], 2.0)
        self.assertAlmostEqual(values["trace.overhead"], 1.25)
        self.assertAlmostEqual(values["trace.untimed_share"], 0.05)

    def test_workload_names(self):
        self.assertEqual(sorted(w["name"] for w in self.spec["workloads"]),
                         sorted(n for n, w in run.WORKLOADS.items() if w["in_benchmark"]))

    def test_contract_shape(self):
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        e2e = self.spec["end_to_end"]
        for m in e2e + self.spec["per_layer"]:
            self.assertRegex(m["name"], name)
            self.assertRegex(m["unit"], unit)
        for m in e2e:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in e2e if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in e2e))

    def test_references_committed(self):
        for w in run.WORKLOADS.values():
            self.assertIsInstance(w["reference"], float)
            self.assertGreater(w["tolerance"], 0.0)


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_the_sources(self):
        # Only BENCHMARK.json and perfbench/: no sources to build, so the
        # run must fail fast without printing a result.
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(metrics.BENCHMARK_JSON, d)
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "nio32-dmc",
                                "--seed", "1", "--seconds", "1", "--trace", "0"],
                               cwd=d, capture_output=True, text=True, timeout=60)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()
