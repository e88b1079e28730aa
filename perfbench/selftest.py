"""Tests of the benchmark itself.

Run from the root of a checkout (takes about a minute):

    python3 perfbench/selftest.py

Each run test starts the benchmark in a subprocess with a short
``--seconds``, as a user would.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import tracing  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
CONFIG = json.loads((BENCH_DIR / "workloads.json").read_text())
SCRATCH = BENCH_DIR / "out" / "selftest"
END_TO_END = ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "failed_ratio", "peak_rss_mb")
GROUPS = ("core", "multiset", "distribution", "evidence", "validity", "update", "channel", "divergence")


def run_bench(*args: str, script: Path = BENCH_DIR / "run.py", cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def copy_checkout(dest: Path, with_sources: bool) -> Path:
    """A fresh checkout at ``dest`` holding BENCHMARK.json, the benchmark
    and, if asked, the library sources; returns its run.py."""
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(BENCH_DIR, dest / BENCH_DIR.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest / BENCH_DIR.name / "run.py"


def summary(done) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


def printed_metrics(done) -> dict[str, str]:
    """Metric name -> unit, from the ``name = value unit (samples)`` lines."""
    metrics = {}
    for line in done.stdout.splitlines():
        if " = " in line and not line.startswith("#"):
            name, _, rest = line.partition(" = ")
            metrics[name] = rest.split()[1]
    return metrics


class ShortRuns(unittest.TestCase):
    def test_every_workload_emits_every_metric_with_its_unit(self):
        layer_names = [f"{layer}.{kind}" for layer in tracing.ELEMENTS for kind in ("calls", "self_s", "ns_per_elem")]
        for workload in CONTRACT["workloads"]:
            for trace, wanted in ((0, CONTRACT["end_to_end"]), (1, CONTRACT["per_layer"])):
                with self.subTest(workload=workload["name"], trace=trace):
                    done = run_bench(
                        "--workload", workload["name"], "--seed", "3", "--seconds", "1", "--trace", str(trace),
                    )
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = summary(done)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
                    for metric in wanted:
                        self.assertEqual(result["metrics"][metric["name"]]["unit"], metric["unit"])
                        self.assertIsInstance(result["metrics"][metric["name"]]["value"], (int, float))
                    printed = printed_metrics(done)
                    for name in END_TO_END:
                        self.assertIn(name, printed)
                    if trace:
                        for name in layer_names + ["trace.overhead_s"]:
                            self.assertIn(name, printed)
                    if trace and workload["name"] == "check":
                        for group in GROUPS:
                            self.assertIn(f"properties.{group}.self_s", printed)
                            self.assertIn(f"properties.{group}.trials", printed)


class Inputs(unittest.TestCase):
    def test_wide_inputs_follow_the_seed(self):
        sizes = CONFIG["workloads"]["wide-exact"]["sizes"]
        first = workloads.generate_wide(5, sizes, as_float=False)
        again = workloads.generate_wide(5, sizes, as_float=False)
        other = workloads.generate_wide(6, sizes, as_float=False)
        self.assertEqual(first.prior, again.prior)
        self.assertEqual(first.predicates, again.predicates)
        self.assertNotEqual(first.prior, other.prior)
        wide = workloads.Wide(sizes, 5, {}, SCRATCH)
        self.assertEqual(wide.draw(3), wide.draw(3))


class Gate(unittest.TestCase):
    def setUp(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)

    def test_corrupted_reference_digest_trips_the_gate(self):
        copy = SCRATCH / "corrupted"
        script = copy_checkout(copy, with_sources=True)
        path = script.parent / "reference.json"
        reference = json.loads(path.read_text())
        reference["sha256"]["pearl-update"] = "0" * 64
        path.write_text(json.dumps(reference))
        done = run_bench(
            "--workload", "reproduce", "--seed", "1", "--seconds", "1", "--trace", "0", script=script, cwd=copy,
        )
        shutil.rmtree(copy)
        self.assertEqual(done.returncode, 1, done.stderr)
        result = summary(done)
        self.assertFalse(result["correct"])
        # the digest check itself, and every pearl-update cell it no longer vouches for
        self.assertGreaterEqual(result["failed"], 1 + 60 * 60)

    def test_without_sources_exits_nonzero_and_prints_no_result(self):
        bare = SCRATCH / "bare"
        script = copy_checkout(bare, with_sources=False)
        done = run_bench("--workload", "reproduce", "--seed", "1", "--seconds", "1", "--trace", "0", script=script, cwd=bare)
        shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)

if __name__ == "__main__":
    unittest.main()
