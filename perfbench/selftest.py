"""Self-tests of the benchmark at a tiny size (radius <= 2).

    python3 perfbench/selftest.py

They check that every metric named in BENCHMARK.json is emitted, that a
flipped known answer shows as a wrong verdict, that the work counters
repeat for a fixed seed, that the host-scaled clock reads the probe's own
work as its reference time, and that the benchmark refuses to run without
the hamsurf sources.  The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import shutil
import signal
import subprocess
import sys
import unittest
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from clock import PROBE_REF_S, HostClock, probe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = run.SPEC

# one claim per workload whose known answer is flipped
FLIPS = {
    "check-all-r2": ("quotient.genus", "pass"),
    "surfaces-r3": ("surfaces.two", 3),
    "expand-r4": ("cover.idempotent", False),
}


class MetricNames(unittest.TestCase):
    def test_untraced_run_emits_every_end_to_end_metric(self):
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(WORKLOADS))
        names = {m["name"] for m in SPEC["end_to_end"]}
        for workload in WORKLOADS:
            result, _ = run.measure(workload, 7, 0, False, tiny=True)
            self.assertTrue(result["correct"], workload)
            self.assertEqual(set(result["metrics"]), names, workload)
            self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_traced_run_emits_every_per_layer_metric(self):
        spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload in WORKLOADS:
            result, report = run.measure(workload, 7, 0, True, tiny=True)
            self.assertTrue(result["correct"], workload)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(units, spec, workload)
            self.assertEqual(result["metrics"]["wrong_verdicts_frac"]["value"], 0)
            self.assertTrue(report["spans"][0]["spans"], workload)


class KnownAnswers(unittest.TestCase):
    def test_flipped_expected_verdict_is_counted_wrong(self):
        for workload, (claim, flipped) in FLIPS.items():
            expected = WORKLOADS[workload].expected(True)
            self.assertNotEqual(expected[claim], flipped)
            expected[claim] = flipped
            result, report = run.measure(workload, 7, 0, True, tiny=True, expected=expected)
            self.assertFalse(result["correct"], workload)
            self.assertGreater(result["metrics"]["wrong_verdicts_frac"]["value"], 0)
            self.assertEqual(report["wrong_claims"], [claim])

    def test_counters_repeat_for_a_fixed_seed(self):
        for workload in WORKLOADS:
            _, first = run.measure(workload, 11, 0, False, tiny=True)
            _, again = run.measure(workload, 11, 0, False, tiny=True)
            self.assertEqual(first["inputs"], again["inputs"])
            self.assertEqual(first["counters"], again["counters"], workload)


class Clock(unittest.TestCase):
    def test_probe_work_reads_as_the_reference_time(self):
        marks = []
        with HostClock(period=0.005) as clock:
            for _ in range(40):
                marks.append(perf_counter())
                probe()
            marks.append(perf_counter())
        self.assertIs(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)
        self.assertGreater(len(clock.starts), 10)
        times = [clock.at(t) for t in marks]
        self.assertEqual(times, sorted(times))
        self.assertAlmostEqual(clock.scaled(marks[0], marks[-1]),
                               clock.scaled(marks[0], marks[20]) + clock.scaled(marks[20], marks[-1]))
        # the work is the probe itself, so the host's speed cancels out
        ratio = clock.scaled(marks[0], marks[-1]) / (40 * PROBE_REF_S)
        self.assertTrue(0.7 < ratio < 1.4, ratio)


class Checkout(unittest.TestCase):
    def test_refuses_to_run_without_the_sources(self):
        bare = run.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(HERE.parent / "BENCHMARK.json", bare)
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "expand-r4",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
