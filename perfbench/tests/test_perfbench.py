#!/usr/bin/env python3
"""Self-tests of the TERP-sim benchmark (perfbench/run.py).

Run from the root of a checkout:

    python3 perfbench/tests/test_perfbench.py

The first test builds terp-perfbench (as perfbench/run.py does) if it
is not built yet. Every run uses the tiny input size.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
sys.path.insert(0, str(RUN.parent))
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT, timeout=170):
    return subprocess.run([sys.executable, str(RUN), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def binary():
    return run.build(run.build_dir())


def setUpModule():
    binary()


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TinyRuns(unittest.TestCase):
    def check_metrics(self, trace, declared):
        for wl in WORKLOADS:
            with self.subTest(workload=wl, trace=trace):
                p = bench("--workload", wl, "--seed", "1", "--seconds",
                          "1", "--trace", str(trace), "--size", "tiny")
                self.assertEqual(p.returncode, 0, p.stderr[-2000:])
                r = result(p)
                self.assertEqual(set(r), {"correct", "attempted",
                                          "failed", "metrics"})
                self.assertTrue(r["correct"])
                self.assertGreaterEqual(r["attempted"], 1)
                self.assertEqual(r["failed"], 0)
                got = {k: v["unit"] for k, v in r["metrics"].items()}
                self.assertEqual(got, {m["name"]: m["unit"]
                                       for m in declared})
                for m in declared:
                    # Every metric is printed by name with its unit.
                    self.assertRegex(p.stdout,
                                     rf"(?m)^{m['name']}\s+\S+ "
                                     rf"{m['unit']}$")

    def test_untraced_prints_every_end_to_end_metric(self):
        self.check_metrics(0, SPEC["end_to_end"])
        # The untraced metrics are never zero.
        p = bench("--workload", "serve", "--seconds", "1", "--size",
                  "tiny")
        for name, m in result(p)["metrics"].items():
            self.assertGreater(m["value"], 0, name)

    def test_traced_prints_every_per_layer_metric(self):
        self.check_metrics(1, SPEC["per_layer"])

    def test_traced_self_times_add_up_to_wall(self):
        p = bench("--workload", "spec_mt", "--seconds", "1", "--trace",
                  "1", "--size", "tiny")
        self.assertEqual(p.returncode, 0, p.stderr[-2000:])
        m = result(p)["metrics"]
        self.assertGreater(m["compiler.pass_ms"]["value"], 0)
        self.assertGreater(m["interp.instructions"]["value"], 0)
        self.assertEqual(m["serve.loadgen_ms"]["value"], 0)
        trace = run.build_dir() / "trace-spec_mt-seed1.json"
        events = json.loads(trace.read_text())["traceEvents"]
        self.assertTrue(any(e.get("name") == "sim.run" for e in events))
        line = next(l for l in p.stdout.splitlines()
                    if l.startswith("sum "))
        total, wall = float(line.split()[1]), float(
            line.split("wall ")[1].split()[0])
        self.assertAlmostEqual(total, wall, delta=0.01 * wall)


class Failures(unittest.TestCase):
    def test_wrong_reference_fails_cleanly(self):
        good = (ROOT / "perfbench" / "reference.txt").read_text()
        lines = [l for l in good.splitlines()
                 if l.startswith("whisper tiny 1 ")]
        self.assertTrue(lines)
        first = lines[0].split()
        first[-1] = "0" * 16
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as d:
            ref = Path(d) / "wrong.txt"
            ref.write_text("\n".join([" ".join(first)] + lines[1:]) + "\n")
            p = bench("--workload", "whisper", "--seconds", "1",
                      "--size", "tiny", "--reference", str(ref))
        self.assertEqual(p.returncode, 1, p.stderr[-2000:])
        r = result(p)
        self.assertFalse(r["correct"])
        self.assertGreater(r["failed"], 0)
        self.assertIn("!= reference", p.stdout)

    def test_bad_flags_exit_2(self):
        bad = [
            ["--workload", "nope"],
            ["--workload", "serve", "--bogus", "1"],
            ["--workload", "serve", "--seed", "-1"],
            ["--workload", "serve", "--seed", "x"],
            ["--workload", "serve", "--seconds", "0"],
            ["--workload", "serve", "--trace", "2"],
            ["--workload", "serve", "--size", "huge"],
            ["--seed", "1"],
        ]
        exe = str(binary())
        for args in bad:
            with self.subTest(args=args):
                p = bench(*args)
                self.assertEqual(p.returncode, 2)
                self.assertTrue(p.stderr.strip())
                self.assertEqual(p.stdout, "")
                # terp-perfbench validates on its own as well.
                q = subprocess.run([exe, *args], capture_output=True,
                                   text=True, timeout=60)
                self.assertEqual(q.returncode, 2)
                self.assertIn("usage", q.stderr)
        q = subprocess.run([exe, "--workload", "serve", "--reference",
                            str(ROOT / "perfbench" / "missing.txt")],
                           capture_output=True, text=True, timeout=60)
        self.assertEqual(q.returncode, 2)

    def test_benchmark_alone_fails_without_result(self):
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as d:
            shutil.copy(ROOT / "BENCHMARK.json", d)
            shutil.copytree(ROOT / "perfbench", Path(d) / "perfbench")
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "serve", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=d, env=env, capture_output=True, text=True,
                timeout=170)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout, "")


if __name__ == "__main__":
    unittest.main()
