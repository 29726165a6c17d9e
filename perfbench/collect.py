#!/usr/bin/env python3
"""Runs the benchmark over several seeds and writes one results file.

    python3 perfbench/collect.py --out perfbench/results/NAME.json
        [--workloads pipeline-rich,serve-warm] [--seeds 1-10]

Every workload runs once per seed with tracing off (the end-to-end
metrics), then once traced with seed 1 (the per-layer metrics), each run
BENCHMARK.json's run_seconds long. The file records the git HEAD commit,
build type, compiler, nproc, seeds and workload definitions, every
run, and per workload and metric the median, quartiles and spread
((q3 - q1) / median, as statistics.quantiles(n=4) gives the quartiles).
The table printed at the end marks every spread at or above a third of
the metric's bound. Compare two files with perfbench/compare.py.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
TRACED_SEED = 1


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(values):
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def run_once(workload, seed, seconds, trace):
    build_dir().mkdir(parents=True, exist_ok=True)
    with tempfile.NamedTemporaryFile(suffix=".json", dir=build_dir()) as details:
        cmd = [sys.executable, str(RUN), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--details", details.name]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode == 2:
            sys.exit(f"collect: run failed: {' '.join(cmd)}")
        return json.loads(Path(details.name).read_text())


def environment(seeds, seconds):
    out = build_dir()
    driver = out / "perfbench" / "perfbench_driver"
    workloads = json.loads(subprocess.check_output(
        [str(driver), "--describe"], text=True))
    cache = (out / "repo" / "CMakeCache.txt").read_text().splitlines()
    entry = {l.split(":", 1)[0]: l.split("=", 1)[1] for l in cache
             if "=" in l and ":" in l.split("=", 1)[0]}
    compiler = subprocess.check_output(
        [entry["CMAKE_CXX_COMPILER"], "--version"], text=True).splitlines()[0]
    try:
        commit = subprocess.check_output(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stderr=subprocess.DEVNULL).strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"commit": commit, "build_type": entry.get("CMAKE_BUILD_TYPE", ""),
            "compiler": compiler, "nproc": os.cpu_count(), "seeds": seeds,
            "seconds": seconds, "workloads": workloads}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", help="comma-separated; default all")
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    seeds = parse_seeds(args.seeds)
    seconds = benchmark["run_seconds"]

    runs, summary, traced = [], {}, {}
    for w in workloads:
        for seed in seeds:
            runs.append(run_once(w, seed, seconds, 0))
        summary[w] = {}
        for m in benchmark["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"]
                      for r in runs if r["workload"] == w]
            summary[w][m["name"]] = dict(summarize(values), unit=m["unit"],
                                         better=m["better"], bound=m["bound"])
        t = run_once(w, TRACED_SEED, seconds, 1)
        runs.append(t)
        traced[w] = {"seed": TRACED_SEED,
                     "metrics": {k: v["value"] for k, v in
                                 t["result"]["metrics"].items()},
                     "not_exercised": t["not_exercised"],
                     "detail": t["detail"]}

    doc = {"schema": "perfbench.results/1",
           "env": environment(seeds, seconds),
           "benchmark": benchmark, "summary": summary, "traced": traced,
           "runs": runs}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")

    failed = sum(r["result"]["failed"] for r in runs)
    attempted = sum(r["result"]["attempted"] for r in runs)
    print(f"\n{len(runs)} runs, failed_ratio {failed / max(1, attempted):.6g}"
          f" ({failed}/{attempted}); wrote {args.out}")
    print(f"{'workload':14s} {'metric':16s} {'median':>12s} {'unit':6s}"
          f" {'spread':>8s} {'bound':>6s}")
    for w, metrics in summary.items():
        for name, s in metrics.items():
            flag = ("  > bound" if s["spread"] > s["bound"] else
                    "  >= bound/3" if s["spread"] >= s["bound"] / 3 else "")
            print(f"{w:14s} {name:16s} {s['median']:12.6g} {s['unit']:6s}"
                  f" {s['spread']:8.4f} {s['bound']:6.3f}{flag}")
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
