#!/usr/bin/env python3
"""Diffs two perfbench results files (see collect.py) per workload and metric.

    python3 perfbench/compare.py BASE.json CHANGE.json

For every end-to-end metric of every workload in both files it prints both
medians and quartiles, the relative change of the median (signed so that
positive is better) and a verdict under the bounds of BASE's BENCHMARK.json:

  worse       the change's median is worse than the base's by more than
              the bound
  unresolved  either side's spread exceeds the bound, unless every change
              run beats every base run ("better")
  better      the change wins at least 9 of 10 seed-paired runs and its
              median gains more than the base's own spread
  unchanged   otherwise

Failed operations are summed per workload over every run in the file
(failed / attempted, as run.py reports them). A workload on which the
change fails more operations than the base gets a "failed" row with the
verdict "worse", and none of its metrics is granted "better" (such a
verdict reads "unresolved"): the ok_ratio median alone would hide one
failing run in ten.

Traced per-layer metrics are listed side by side without a verdict.
The tool refuses (exit 2) to compare files whose build type, compiler,
nproc, seeds, run length or workload definitions differ; the commits
are expected to differ. Exit code 1 when any verdict is "worse", else 0.
"""
import argparse
import json
import sys

MUST_MATCH = ("build_type", "compiler", "nproc", "seeds", "seconds",
              "workloads")


def verdict(base, change, better, bound):
    """Returns (verdict, relative gain) for two seed-ordered value lists."""
    sign = 1 if better == "higher" else -1
    mb, mc = base["median"], change["median"]
    gain = sign * (mc - mb) / mb if mb else 0.0
    score = lambda v: sign * v  # larger is better
    all_better = min(map(score, change["values"])) > max(map(score, base["values"]))
    wins = sum(score(c) > score(b)
               for b, c in zip(base["values"], change["values"]))
    if -gain > bound:
        return "worse", gain
    if base["spread"] > bound or change["spread"] > bound:
        return ("better" if all_better else "unresolved"), gain
    if wins >= 0.9 * len(base["values"]) and gain > base["spread"]:
        return "better", gain
    return "unchanged", gain


def failures(doc, workload):
    """(failed, attempted) summed over every run of `workload` in `doc`."""
    results = [r["result"] for r in doc["runs"] if r["workload"] == workload]
    return (sum(r["failed"] for r in results),
            sum(r["attempted"] for r in results))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args()
    a = json.load(open(args.base))
    b = json.load(open(args.change))

    differ = [k for k in MUST_MATCH if a["env"].get(k) != b["env"].get(k)]
    if differ:
        for k in differ:
            print(f"refusing to compare: {k} differs: "
                  f"{a['env'].get(k)!r} vs {b['env'].get(k)!r}")
        sys.exit(2)

    print(f"base   {a['env']['commit']}\nchange {b['env']['commit']}")
    bounds = {m["name"]: m for m in a["benchmark"]["end_to_end"]}
    worse = 0
    header = (f"{'workload':14s} {'metric':16s} {'base median':>12s} "
              f"{'[q1, q3]':>23s} {'change median':>13s} {'[q1, q3]':>23s} "
              f"{'gain':>8s}  verdict")
    print(header)
    for w in a["summary"]:
        if w not in b["summary"]:
            print(f"{w:14s} (absent from {args.change})")
            continue
        (fa, na), (fb, nb) = failures(a, w), failures(b, w)
        more_failures = fb > fa
        worse += more_failures
        print(f"{w:14s} {'failed':16s} {f'{fa}/{na}':>36s} {f'{fb}/{nb}':>37s}"
              f" {'':8s}  {'worse' if more_failures else 'unchanged'}")
        for name, sa in a["summary"][w].items():
            sb = b["summary"][w].get(name)
            if sb is None:
                continue
            m = bounds[name]
            v, gain = verdict(sa, sb, m["better"], m["bound"])
            if more_failures and v == "better":
                v = "unresolved"
            worse += v == "worse"
            print(f"{w:14s} {name:16s} {sa['median']:12.6g} "
                  f"[{sa['q1']:10.4g}, {sa['q3']:10.4g}] {sb['median']:13.6g} "
                  f"[{sb['q1']:10.4g}, {sb['q3']:10.4g}] {gain:+8.2%}  {v}")
    for w, ta in a.get("traced", {}).items():
        tb = b.get("traced", {}).get(w)
        if tb is None:
            continue
        print(f"\ntraced {w} (per-layer, no verdict)")
        for name, va in ta["metrics"].items():
            vb = tb["metrics"].get(name, 0.0)
            ratio = f"{vb / va:8.3f}x" if va else "        -"
            print(f"  {name:48s} {va:14.6g} {vb:14.6g} {ratio}")
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
