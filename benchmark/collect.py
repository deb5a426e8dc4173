#!/usr/bin/env python3
"""Joins the per-run result lines run.sh left in benchmark/out into
results.json, prints every metric by name with its unit, and — given
more than one untraced set — fails when two sets of the same code
disagree on an end-to-end metric by more than its bound."""

import argparse
import json
import os
import sys


def load(path):
    with open(path) as f:
        text = f.read().strip()
    return json.loads(text) if text else None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--sets", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--commit", required=True)
    ap.add_argument("--smoke", type=int, default=0)
    args = ap.parse_args()

    bench = load("BENCHMARK.json")
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    failures = []

    untraced = []
    for s in range(1, args.sets + 1):
        runs = {}
        for w in workloads:
            run = load(os.path.join(args.out, f"run.untraced.{s}.{w}.json"))
            if run is None or not run["correct"]:
                failures.append(f"set {s}: {w} did not produce a correct result")
            runs[w] = run
        untraced.append(runs)
    traced = {}
    for w in workloads:
        run = load(os.path.join(args.out, f"run.traced.{w}.json"))
        if run is None or not run["correct"]:
            failures.append(f"traced: {w} did not produce a correct result")
        traced[w] = run

    label = "  (SMOKE RUN: NUMBERS UNUSABLE)" if args.smoke else ""
    for w in workloads:
        print(f"{w}{label}")
        for kind, run in (("end-to-end", untraced[0][w]), ("per-layer", traced[w])):
            if run is None:
                continue
            failed_share = run["failed"] / max(run["attempted"], 1)
            print(f"  {kind}: attempted {run['attempted']}, failed {run['failed']} "
                  f"(failed_share {failed_share})")
            for name, m in run["metrics"].items():
                print(f"    {name:<32} {m['value']:>16.4f} {m['unit']}")

    # Two sets of the same code must agree within the benchmark's bounds.
    disagreements = []
    for a in range(len(untraced)):
        for b in range(a + 1, len(untraced)):
            for w in workloads:
                ra, rb = untraced[a][w], untraced[b][w]
                if ra is None or rb is None:
                    continue
                for name, spec in bounds.items():
                    va, vb = ra["metrics"][name]["value"], rb["metrics"][name]["value"]
                    low = min(va, vb)
                    gap = abs(va - vb) / low if low > 0 else float("inf")
                    if gap > spec["bound"]:
                        disagreements.append(
                            {"workload": w, "metric": name, "sets": [a + 1, b + 1],
                             "values": [va, vb], "gap": gap, "bound": spec["bound"]})
    for d in disagreements:
        failures.append(
            f"{d['workload']}.{d['metric']}: sets {d['sets']} read {d['values']} — "
            f"{d['gap']:.3f} apart, bound {d['bound']}")

    results = {
        "provenance": {
            "commit": args.commit, "seed": args.seed, "seconds": args.seconds,
            "untraced_sets": args.sets, "nproc": os.cpu_count(),
            "detail": "per-run provenance (CPU model, profile, threads, link, sample counts) "
                      "is in <workload>.untraced.json / <workload>.traced.json beside this file",
        },
        "usable": not args.smoke,
        "untraced_sets": untraced,
        "traced": traced,
        "disagreements": disagreements,
        "failures": failures,
    }
    with open(os.path.join(args.out, "results.json"), "w") as f:
        json.dump(results, f, indent=1)
        f.write("\n")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print(f"wrote {os.path.join(args.out, 'results.json')}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
