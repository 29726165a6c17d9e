#!/usr/bin/env python3
"""Runs one perfbench workload once and prints its result as the last line.

    python3 perfbench/run.py --workload pipeline-rich --seed 1 --seconds 10 --trace 0

Builds the repository with its own CMake project (Release) and the driver
package in perfbench/ under $CARGO_TARGET_DIR (default .bench_build) in the
checkout root, runs the driver once, prints every metric by name with its
unit, and ends with one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (a layer the workload never calls reports 0). Exit code 0
when every answer checked out, 1 when some did not, 2 when the run could
not be made (no sources to build, build failure, driver crash, timeout).
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
DRIVER_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def run_logged(cmd, log):
    with open(log, "a") as out:
        out.write("$ " + " ".join(str(c) for c in cmd) + "\n")
        out.flush()
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode


def configured_for(build, source):
    cache = build / "CMakeCache.txt"
    if not cache.exists():
        return False
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:"):
            return Path(line.split("=", 1)[1]).resolve() == source.resolve()
    return False


def build():
    """Builds libpivotscale + pivotscale_served, then the driver."""
    if not (ROOT / "CMakeLists.txt").exists() or not (ROOT / "src").is_dir():
        fail(f"no repository sources to build under {ROOT}")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "perfbench-build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    repo, bench = out / "repo", out / "perfbench"
    steps = []
    if not configured_for(repo, ROOT):
        shutil.rmtree(repo, ignore_errors=True)
        steps.append(["cmake", "-S", ROOT, "-B", repo,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", repo, "--target", "pivotscale",
                  "pivotscale_served", "-j", jobs])
    if not configured_for(bench, BENCH_DIR):
        shutil.rmtree(bench, ignore_errors=True)
        steps.append(["cmake", "-S", BENCH_DIR, "-B", bench,
                      "-DCMAKE_BUILD_TYPE=Release",
                      f"-DPIVOTSCALE_BUILD_DIR={repo}"])
    steps.append(["cmake", "--build", bench, "-j", jobs])
    for step in steps:
        if run_logged(step, log) != 0:
            tail = log.read_text().splitlines()[-30:]
            print("\n".join(tail), file=sys.stderr)
            fail(f"build step failed: {' '.join(map(str, step))} (log: {log})")
    return bench / "perfbench_driver", repo / "examples" / "pivotscale_served"


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_driver(cmd):
    """Runs the driver in its own process group; kills the group on timeout."""
    env = dict(os.environ, OMP_NUM_THREADS="4")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, stdout


def final_metrics(raw, benchmark, trace):
    """Maps the driver's numbers onto BENCHMARK.json's names and units."""
    attempted, failed = raw["attempted"], raw["failed"]
    measured = dict(raw["metrics"])
    measured["ok_ratio"] = (attempted - failed) / attempted if attempted else 0.0
    declared = benchmark["per_layer" if trace else "end_to_end"]
    metrics, not_exercised = {}, []
    for m in declared:
        if m["name"] in measured:
            value = measured[m["name"]]
        elif trace:
            value = 0.0
            not_exercised.append(m["name"])
        else:
            fail(f"driver did not report end-to-end metric {m['name']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics, not_exercised


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small inputs, one set-up (smoke tests)")
    parser.add_argument("--reference", default=str(BENCH_DIR / "reference_counts.json"))
    parser.add_argument("--inject-errors", type=int, default=0,
                        help="serve: send N requests for a missing artifact")
    parser.add_argument("--details", help="also write the full driver output here")
    args = parser.parse_args()

    benchmark = load_benchmark()
    started = time.monotonic()
    driver, served = build()

    out = build_dir()
    work = out / f"work-{args.workload}-{os.getpid()}"
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--served", str(served), "--work-dir", str(work),
           "--reference", args.reference,
           "--inject-errors", str(args.inject_errors)]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    if args.quick:
        cmd.append("--quick")
    try:
        code, stdout = run_driver(cmd)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if code != 0 or not lines:
        fail(f"driver exited with code {code}")
    raw = json.loads(lines[-1])

    metrics, not_exercised = final_metrics(raw, benchmark, args.trace)
    result = {"correct": bool(raw["correct"]), "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    if args.details:
        Path(args.details).write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "quick": args.quick, "result": result,
            "detail": raw["detail"], "notes": raw["notes"],
            "not_exercised": not_exercised,
            "wall_s": time.monotonic() - started}, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    attempted = max(1, raw["attempted"])
    print(f"  {'failed_ratio':40s} {raw['failed'] / attempted:14.6g} ratio")
    for name, m in metrics.items():
        mark = "  (not exercised)" if name in not_exercised else ""
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}{mark}")
    for note in raw["notes"]:
        print(f"  failure: {note}")
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
