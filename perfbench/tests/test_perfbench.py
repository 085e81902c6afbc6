"""Tests of the benchmark's own logic, plus a smoke run of each workload.

    python3 -m unittest discover -s perfbench/tests -v

The smoke tests build the benchmark binary first (about a minute on a
cold build tree).
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run  # noqa: E402


def raw_result(attempted, failed, errors=(), run_s=2.0):
    return {"seed": 1, "op_s": [0.1] * attempted, "attempted": attempted,
            "failed": failed, "errors": list(errors), "run_s": run_s,
            "setup_s": [0.4, 0.5, 0.6], "peak_rss_mb": 10.0, "layers": {},
            "notes": {}}


class PercentileRule(unittest.TestCase):
    def test_p90_reported_when_ten_samples_lie_beyond_it(self):
        samples = [float(i) for i in range(1, 101)]
        p90 = run.tail_percentile(samples)
        self.assertIsNotNone(p90)
        self.assertEqual(sum(1 for x in samples if x > p90), 10)

    def test_p90_omitted_when_nine_samples_lie_beyond_it(self):
        self.assertIsNone(run.tail_percentile([float(i) for i in range(1, 91)]))
        self.assertIsNone(run.tail_percentile([float(i) for i in range(1, 100)]))

    def test_p90_omitted_on_a_steady_solve_sized_run(self):
        self.assertIsNone(run.tail_percentile([1.5 + 0.01 * i for i in range(16)]))

    def test_too_few_samples(self):
        self.assertIsNone(run.tail_percentile([]))
        self.assertIsNone(run.tail_percentile([1.0]))


class FailFrac(unittest.TestCase):
    def test_clean_run(self):
        self.assertEqual(run.fail_frac(72, 0), 0.0)
        line = json.loads(run.result_line(raw_result(72, 0), trace=False))
        self.assertTrue(line["correct"])
        self.assertEqual((line["attempted"], line["failed"]), (72, 0))

    def test_failed_ops_count_against_attempted(self):
        self.assertAlmostEqual(run.fail_frac(72, 3), 3 / 72)
        line = json.loads(run.result_line(raw_result(72, 3), trace=False))
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"], 3)

    def test_throughput_counts_only_completed_ops(self):
        e2e = run.end_to_end(raw_result(10, 2, run_s=2.0))
        self.assertEqual(e2e["ops_per_s"], 4.0)
        self.assertEqual(e2e["setup_s"], 0.5)

    def test_nothing_attempted_is_a_failure(self):
        self.assertEqual(run.fail_frac(0, 0), 1.0)
        self.assertFalse(json.loads(run.result_line(raw_result(0, 0), False))["correct"])

    def test_an_error_without_a_failed_op_is_incorrect(self):
        raw = raw_result(5, 0, errors=["client 0: connect-failed"])
        self.assertFalse(json.loads(run.result_line(raw, False))["correct"])


class Contract(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]),
                         run.WORKLOADS)

    def test_result_line_carries_exactly_the_contract_keys(self):
        line = json.loads(run.result_line(raw_result(3, 0), trace=False))
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(line["metrics"]), set(run.END_TO_END))
        for metric in line["metrics"].values():
            self.assertEqual(set(metric), {"value", "unit"})

    def test_traced_line_requires_every_layer(self):
        with self.assertRaises(run.BenchError):
            run.result_line(raw_result(3, 0), trace=True)


class StoreHygiene(unittest.TestCase):
    def test_only_dead_runs_and_our_own_entries_are_removed(self):
        store = run.build_dir() / "hygiene-test"
        shutil.rmtree(store, ignore_errors=True)
        store.mkdir(parents=True)
        own = f"pb{os.getpid()}"
        dead = store / "pb999999999-solve0"  # beyond any pid_max
        live = store / f"{own}-solve0"
        unrelated = store / "notes.txt"
        dead.mkdir()
        live.mkdir()
        unrelated.write_text("")
        try:
            self.assertEqual(run.scan_leftovers(store), 1)
            self.assertFalse(dead.exists())
            self.assertTrue(live.exists() and unrelated.exists())
            self.assertEqual(run.scan_leftovers(store, own_prefix=own), 1)
            self.assertFalse(live.exists())
            self.assertTrue(unrelated.exists())
        finally:
            shutil.rmtree(store, ignore_errors=True)


class Smoke(unittest.TestCase):
    """n=192 steady solve, a 6-cell campaign, one request — traced, so
    every probe and every per-layer metric runs too."""

    @classmethod
    def setUpClass(cls):
        cls.out = run.build_dir()
        cls.binary = run.build(cls.out)
        cls.store = cls.out / "store"
        cls.store.mkdir(parents=True, exist_ok=True)
        cls.prefix = f"pb{os.getpid()}"

    def smoke(self, workload):
        raw, code = run.run_binary(self.binary, workload, seed=7, seconds=1,
                                   trace=True, store=self.store,
                                   prefix=self.prefix, smoke=True)
        self.assertEqual(code, 0, raw["errors"])
        self.assertEqual(raw["failed"], 0)
        self.assertEqual(set(raw["layers"]), set(run.PER_LAYER))
        for trace in (False, True):
            line = json.loads(run.result_line(raw, trace))
            self.assertTrue(line["correct"])
        leftovers = [p for p in self.store.iterdir()
                     if p.name.startswith(self.prefix + "-")]
        self.assertEqual(leftovers, [])
        return raw

    def test_lu_steady_n192_solve(self):
        raw = self.smoke("lu_steady")
        self.assertEqual(raw["attempted"], 1)
        self.assertEqual(raw["layers"]["ckpt.commits"], 3)

    def test_lu_faults_six_cell_campaign(self):
        raw = self.smoke("lu_faults")
        self.assertEqual(raw["attempted"], 6)
        self.assertGreater(raw["layers"]["dist.restores"], 0)

    def test_sweep_mix_one_request(self):
        raw = self.smoke("sweep_mix")
        self.assertEqual(raw["attempted"], 1)
        self.assertGreater(raw["layers"]["core.cells_per_s"], 0)


class Standalone(unittest.TestCase):
    def test_fails_without_the_repository_sources(self):
        """Given only BENCHMARK.json and perfbench/, the command must exit
        non-zero without printing a result."""
        bare = run.build_dir() / "standalone-test"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        env = dict(os.environ, CARGO_TARGET_DIR=str(bare / ".bench_build"))
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "lu_faults",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, env=env, capture_output=True, text=True, timeout=170)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
