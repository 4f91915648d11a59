"""Self-tests of the benchmark itself (under a minute on a 2-core machine):

    python3 perfbench/selftest.py

They check that inputs follow the seed, that a corrupted reference is
counted as a failed check without a traceback, that two traced runs give
identical exact counts, and that the command fails cleanly without the
engine's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402


def bench(*args: str, root: Path = ROOT) -> tuple[int, str, str]:
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout, proc.stderr


def gammas(workload: str, seed: int, index: int) -> list[tuple[int, ...]]:
    return [job.gamma for job in inputs.sample_jobs(workload, seed, index)]


class InputTests(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in inputs.WORKLOADS:
            for index in range(3):
                self.assertEqual(inputs.sample_jobs(workload, 7, index),
                                 inputs.sample_jobs(workload, 7, index))

    def test_different_seed_different_gammas(self):
        for workload in ("sweep-wide", "poles-graphs"):
            self.assertNotEqual(gammas(workload, 1, 0), gammas(workload, 2, 0))
            self.assertNotEqual(gammas(workload, 1, 0), gammas(workload, 1, 1))

    def test_deep_p2_ignores_the_seed(self):
        self.assertEqual(inputs.sample_jobs("deep-p2", 1, 0),
                         inputs.sample_jobs("deep-p2", 2, 5))

    def test_draws_keep_ranks_range_and_work_proxy(self):
        for seed in range(20):
            sweep = gammas("sweep-wide", seed, 0)
            poles = gammas("poles-graphs", seed, 0)
            self.assertEqual([len(g) for g in sweep], list(inputs.SWEEP_RANKS))
            self.assertEqual([len(g) for g in poles], [2, 3])
            entries = [x for g in sweep + poles for x in g]
            self.assertTrue(all(-2 <= x <= 2 for x in entries))
            self.assertEqual(sum(g.count(-2) for g in sweep), inputs.SWEEP_MINUS_TWOS)
            self.assertEqual(sum(x + 2 for g in sweep for x in g), inputs.SWEEP_WEIGHT)
            self.assertIn(tuple(tuple(sorted(g)) for g in poles), inputs.POLES_PAIRS)


class RunTests(unittest.TestCase):
    def setUp(self):
        OUT_DIR.mkdir(exist_ok=True)

    def corrupted_run(self, corrupt) -> tuple[int, str, str]:
        """A deep-p2 run against a copy of refs/ whose AKMV table `corrupt` changed."""
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            refs = Path(tmp) / "refs"
            shutil.copytree(HERE / "refs", refs)
            akmv = json.loads((refs / "akmv_local_p2.json").read_text(encoding="utf-8"))
            corrupt(akmv["class_sums"])
            (refs / "akmv_local_p2.json").write_text(json.dumps(akmv), encoding="utf-8")
            return bench("--workload", "deep-p2", "--seconds", "1", "--refs", str(refs))

    def assert_one_failure(self, rc: int, out: str, err: str, message: str) -> None:
        result = json.loads(out.strip().splitlines()[-1])
        self.assertEqual(rc, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertIn(message, out)
        self.assertNotIn("Traceback", out + err)

    def test_corrupted_reference_is_a_failed_check(self):
        def wrong_n0(sums):  # one wrong n^0 at D = 3
            sums["0"]["3"] += 1

        self.assert_one_failure(*self.corrupted_run(wrong_n0), "class sum n^0 at D=3")

    def test_genus_missing_from_reference_is_a_failed_check(self):
        def drop_top_genus(sums):  # the engine still reports n^6 at D = 5
            del sums["6"]

        self.assert_one_failure(*self.corrupted_run(drop_top_genus),
                                "class sum n^6 at D=5 is 21, AKMV has none")

    def test_two_traced_runs_give_identical_counts(self):
        runs = []
        for _ in range(2):
            rc, out, _ = bench("--workload", "poles-graphs", "--seed", "3",
                               "--seconds", "1", "--trace", "1")
            self.assertEqual(rc, 0)
            metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
            runs.append({k: m["value"] for k, m in metrics.items() if m["unit"] != "s"})
        self.assertIn("qalgebra.t_image_calls", runs[0])
        self.assertGreater(runs[0]["graph_engine.forests"], 0)
        self.assertEqual(runs[0], runs[1])

    def test_fails_cleanly_without_engine_sources(self):
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            rc, out, err = bench("--workload", "deep-p2", "--seconds", "1",
                                 root=Path(tmp))
        self.assertNotEqual(rc, 0)
        self.assertFalse(out.strip())
        self.assertNotIn("Traceback", err)


if __name__ == "__main__":
    unittest.main(verbosity=2)
