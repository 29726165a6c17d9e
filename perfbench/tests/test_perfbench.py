#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench/tests -v

The quick runs build the repository on first use (like run.py) and run
every workload, every answer check and the traced run at small scale.
"""
import copy
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
COMPARE = ROOT / "perfbench" / "compare.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
# pipeline-rich and serve-warm run in the driver but are not in the timed
# set (README).
DRIVER_WORKLOADS = WORKLOADS + ["pipeline-rich", "serve-warm"]
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def scratch_dir():
    BUILD.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=BUILD)


def run(*args, cwd=ROOT, script=RUN):
    proc = subprocess.run([sys.executable, str(script), *map(str, args)],
                          cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    return proc.returncode, proc.stdout


def result_line(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def quick(workload, *extra, trace=0):
    return run("--workload", workload, "--seed", 7, "--seconds", 1,
               "--trace", trace, "--quick", *extra)


class BenchmarkJsonTest(unittest.TestCase):
    def test_contract_shape(self):
        self.assertEqual(set(BENCHMARK), {"command", "paths", "run_seconds",
                                          "workloads", "end_to_end",
                                          "per_layer"})
        self.assertEqual(BENCHMARK["command"][0], "python3")
        self.assertTrue(1 <= BENCHMARK["run_seconds"] <= 60)
        self.assertTrue(2 <= len(BENCHMARK["workloads"]) <= 8)
        names = []
        for w in BENCHMARK["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        for m in BENCHMARK["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
            names.append(m["name"])
        for m in BENCHMARK["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in BENCHMARK["end_to_end"]))


class QuickRunTest(unittest.TestCase):
    def check_schema(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in declared])
        for m in declared:
            entry = result["metrics"][m["name"]]
            self.assertEqual(set(entry), {"value", "unit"})
            self.assertEqual(entry["unit"], m["unit"])
            self.assertIsInstance(entry["value"], (int, float))

    def test_every_workload_untraced(self):
        for w in DRIVER_WORKLOADS:
            with self.subTest(workload=w):
                code, out = quick(w)
                self.assertEqual(code, 0, out)
                result = result_line(out)
                self.check_schema(result, BENCHMARK["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_every_workload_traced(self):
        for w in DRIVER_WORKLOADS:
            with self.subTest(workload=w):
                code, out = quick(w, trace=1)
                self.assertEqual(code, 0, out)
                result = result_line(out)
                self.check_schema(result, BENCHMARK["per_layer"])
                self.assertTrue(result["correct"])
                v = {k: m["value"] for k, m in result["metrics"].items()}
                self.assertGreater(v["pivot.count_s"], 0)
                self.assertGreater(v["pivot.edge_ops"], 0)
                self.assertGreater(v["exec.region_us"], 0)
                self.assertGreater(v["telemetry.overhead_ratio"], 0)
                self.assertGreater(v["trace.overhead_ratio"], 0)
                ratios = [k for k in v
                          if k.startswith("pivot.serve_mode_ops_ratio")]
                if w.startswith("serve"):
                    self.assertGreater(v["store.read_mb_per_s"], 0)
                    for k in ratios:
                        self.assertGreater(v[k], 0, k)
                else:
                    self.assertGreater(v["exec.scaling_eff"], 0)
                    self.assertGreater(v["order.ordering_s"], 0)
                    self.assertGreater(v["graph.load_s"], 0)
                if w == "serve-cold":
                    self.assertEqual(v["service.cache_hit_ratio"], 0)
                    self.assertEqual(v["service.memo_hit_ratio"], 0)
                    self.assertGreater(v["service.count_runs"], 0)
                if w == "serve-warm":
                    self.assertEqual(v["service.memo_hit_ratio"], 1)
                    self.assertEqual(v["service.count_runs"], 0)


class FailureTest(unittest.TestCase):
    def corrupted_reference(self, directory):
        ref = json.loads((ROOT / "perfbench" /
                          "reference_counts.json").read_text())
        for key, k in (("friendster-like@0.25", "4"), ("dblp-like@0.1", "3")):
            ref["counts"][key][k] = str(int(ref["counts"][key][k]) + 1)
        path = Path(directory) / "corrupted.json"
        path.write_text(json.dumps(ref))
        return path

    def test_corrupted_reference_raises_failures(self):
        with scratch_dir() as d:
            ref = self.corrupted_reference(d)
            for w in ("pipeline-poor", "serve-cold"):
                with self.subTest(workload=w):
                    code, out = quick(w, "--reference", ref)
                    result = result_line(out)
                    self.assertEqual(code, 1)
                    self.assertFalse(result["correct"])
                    self.assertGreater(result["failed"], 0)
                    self.assertLess(result["metrics"]["ok_ratio"]["value"], 1)

    def test_injected_error_response_raises_failures(self):
        code, out = quick("serve-cold", "--inject-errors", 3)
        result = result_line(out)
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 3)
        self.assertLess(result["metrics"]["ok_ratio"]["value"], 1)

    def test_stripped_checkout_fails_without_result(self):
        with scratch_dir() as d:
            shutil.copy(ROOT / "BENCHMARK.json", d)
            shutil.copytree(ROOT / "perfbench", Path(d) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, out = run("--workload", WORKLOADS[0], "--seed", 1,
                            "--seconds", 1, "--trace", 0, cwd=d,
                            script=Path(d) / "perfbench" / "run.py")
            self.assertNotEqual(code, 0)
            self.assertNotIn('"metrics"', out)


def synthetic_results(scale=1.0, nproc=4):
    summary, runs = {}, []
    for w in WORKLOADS:
        runs += [{"workload": w, "seed": s, "trace": 0,
                  "result": {"correct": True, "attempted": 100, "failed": 0}}
                 for s in range(1, 11)]
        summary[w] = {}
        for i, m in enumerate(BENCHMARK["end_to_end"]):
            base = [10.0 + i + 0.01 * s for s in range(10)]
            factor = scale if m["better"] == "lower" else 1 / scale
            values = [v * factor for v in base]
            q1, med, q3 = (values[2], (values[4] + values[5]) / 2, values[7])
            summary[w][m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                     "spread": (q3 - q1) / med,
                                     "values": values, "unit": m["unit"],
                                     "better": m["better"],
                                     "bound": m["bound"]}
    env = {"commit": "x", "build_type": "Release", "compiler": "c++",
           "nproc": nproc, "seeds": list(range(1, 11)), "seconds": 10,
           "workloads": {"w": {}}}
    return {"schema": "perfbench.results/1", "env": env,
            "benchmark": BENCHMARK, "summary": summary, "traced": {},
            "runs": runs}


class CompareTest(unittest.TestCase):
    def compare(self, a, b):
        with scratch_dir() as d:
            pa, pb = Path(d) / "a.json", Path(d) / "b.json"
            pa.write_text(json.dumps(a))
            pb.write_text(json.dumps(b))
            return run(pa, pb, script=COMPARE)

    def test_identical_files_pass(self):
        a = synthetic_results()
        code, out = self.compare(a, copy.deepcopy(a))
        self.assertEqual(code, 0, out)
        self.assertNotIn("worse", out)

    def test_flags_a_2x_slowdown(self):
        code, out = self.compare(synthetic_results(),
                                 synthetic_results(scale=2.0))
        self.assertEqual(code, 1, out)
        for w in WORKLOADS:
            self.assertRegex(out, rf"{w}\s+setup_s .* worse")

    def test_flags_failures_the_medians_hide(self):
        # One failing run in ten leaves ok_ratio's median and quartiles at
        # 1; the failure count must still make the verdict "worse" and
        # keep a 2x speed-up from reading "better".
        base = synthetic_results()
        for change in (copy.deepcopy(base), synthetic_results(scale=0.5)):
            change["runs"][3]["result"]["failed"] = 1
            change["runs"][3]["result"]["correct"] = False
            w = change["runs"][3]["workload"]
            code, out = self.compare(base, change)
            self.assertEqual(code, 1, out)
            self.assertRegex(out, rf"{w}\s+failed\s+0/1000\s+1/1000 .* worse")
            for line in out.splitlines():
                if line.startswith(w):
                    self.assertNotIn("better", line)

    def test_refuses_different_environments(self):
        code, out = self.compare(synthetic_results(),
                                 synthetic_results(nproc=8))
        self.assertEqual(code, 2)
        self.assertIn("nproc", out)


if __name__ == "__main__":
    unittest.main()
