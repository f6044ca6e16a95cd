"""The benchmark's own tests. Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

They build the driver through perfbench/run.py (first run: a few minutes).
"""

import filecmp
import importlib.util
import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = importlib.util.spec_from_file_location("perfbench_run",
                                              ROOT / "perfbench" / "run.py")
run = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(run)

WORKLOADS = ("metro_grid", "paper_sweep", "serve_mix")


def expected_unit(name):
    """The unit a metric's name implies; the table the tests hold every
    declared unit to, so a unit cannot drift from what the name says."""
    rules = [
        (r"_req_s$", "req/s"),
        (r"_ms$", "ms"),
        (r"_us$", "us"),
        (r"_s$", "s"),
        (r"_mb$", "MiB"),
        (r"(_ratio|\.gap|_utilization)$", "ratio"),
        (r"customers$", "customers"),
    ]
    for pattern, unit in rules:
        if re.search(pattern, name):
            return unit
    return "count"


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out = ROOT / run.build()
        cls.binary = cls.out / "perfbench"
        cls.scratch = cls.out / "tests"
        shutil.rmtree(cls.scratch, ignore_errors=True)
        cls.scratch.mkdir(parents=True)
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def driver(self, *args):
        return subprocess.run([str(self.binary), *args], cwd=ROOT,
                              capture_output=True, text=True, check=True)

    def test_same_seed_gives_byte_identical_inputs(self):
        for workload in WORKLOADS:
            paths = []
            for tag, seed in (("a", 5), ("b", 5), ("c", 6)):
                path = self.scratch / f"{workload}-{tag}.txt"
                self.driver(f"--dump-inputs={path}", f"--workload={workload}",
                            f"--seed={seed}", "--smoke")
                paths.append(path)
            self.assertTrue(filecmp.cmp(paths[0], paths[1], shallow=False),
                            f"{workload}: seed 5 twice differs")
            self.assertFalse(filecmp.cmp(paths[0], paths[2], shallow=False),
                             f"{workload}: seeds 5 and 6 agree")

    def test_percentile_helper_keeps_ten_samples_beyond(self):
        self.assertIn("selftest ok", self.driver("--selftest").stdout)

    def test_every_metric_has_the_unit_its_name_implies(self):
        listed = [line.split() for line in
                  self.driver("--list-metrics").stdout.splitlines()]
        for kind in ("end_to_end", "per_layer"):
            declared = [(m["name"], m["unit"]) for m in self.spec[kind]]
            driver = [(name, unit) for k, name, unit in listed if k == kind]
            self.assertEqual(declared, driver, kind)
            for name, unit in declared:
                self.assertEqual(unit, expected_unit(name), name)
        self.assertEqual(
            {m["name"]: m["unit"] for m in self.spec["end_to_end"]}["peak_rss_mb"],
            "MiB")

    def test_smoke_runs_every_workload(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    result = subprocess.run(
                        [sys.executable, "perfbench/run.py", "--workload",
                         workload, "--seed", "3", "--seconds", "1", "--trace",
                         str(trace), "--smoke"],
                        cwd=ROOT, capture_output=True, text=True)
                    self.assertEqual(result.returncode, 0, result.stderr)
                    last = json.loads(result.stdout.splitlines()[-1])
                    self.assertEqual(
                        sorted(last), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(last["correct"])
                    self.assertEqual(last["failed"], 0)
                    self.assertGreater(last["attempted"], 0)
                    kind = "per_layer" if trace else "end_to_end"
                    self.assertEqual(sorted(last["metrics"]),
                                     sorted(m["name"] for m in self.spec[kind]))
                    if not trace:
                        for name, metric in last["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)

    def test_refuses_without_the_sources(self):
        bare = self.scratch / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        result = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "metro_grid",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(result.returncode, 0)
        self.assertNotIn("{", result.stdout)


if __name__ == "__main__":
    unittest.main()
