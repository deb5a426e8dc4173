#!/bin/sh
# Rehearses the benchmark gate (BENCHMARK.json) on two revisions before
# a change is submitted.
#
#   scripts/gate_rehearsal.sh <parent> <change> [pairs=10]
#
# Each revision is exported with `git archive` into its own directory,
# and its benchmark/ is built there into its own target directory; the
# repository's own benchmark/ is never written. For every workload the
# declared command (the parent's BENCHMARK.json: its `command` plus
# `--workload W --seed 11 --seconds <run_seconds> --trace 0 --out <dir>`)
# runs in <pairs> parent/change pairs, alternating which side goes
# first, all from one shared --out directory (so sim_week's digest check
# compares the two sides). Each run's result file is deleted before it
# starts, so a run that dies early is never read as another run's. It then prints, per end-to-end metric, both medians, the
# parent's quartiles, the change's win count and the bound verdict, and
# every run whose result read `correct: false`, with its problem text.
#
# Environment: GATE_DIR (default target/gate_rehearsal) holds the
# exports, builds and run logs. The script adds a tool; it changes no
# check.
set -e
if [ $# -lt 2 ]; then
  echo "usage: $0 <parent> <change> [pairs=10]" >&2
  exit 2
fi
cd "$(dirname "$0")/.."
parent=$(git rev-parse --verify "$1^{commit}")
change=$(git rev-parse --verify "$2^{commit}")
pairs=${3:-10}
dir=${GATE_DIR:-target/gate_rehearsal}
mkdir -p "$dir"
dir=$(cd "$dir" && pwd)

for side in parent change; do
  eval rev=\$$side
  tree="$dir/$side"
  rm -rf "$tree"
  mkdir -p "$tree"
  git archive "$rev" | tar -x -C "$tree"
  echo "== build $side ($rev) =="
  (cd "$tree" && CARGO_TARGET_DIR="$dir/$side-target" \
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

exec python3 - "$dir" "$pairs" "$parent" "$change" <<'EOF'
import json, os, statistics, subprocess, sys

dir, pairs, parent, change = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
bench = json.load(open(os.path.join(dir, "parent", "BENCHMARK.json")))
seconds = bench["run_seconds"]
workloads = [w["name"] for w in bench["workloads"]]
out = os.path.join(dir, "out")
os.makedirs(out, exist_ok=True)


def run(side, workload, index):
    cmd = bench["command"] + ["--workload", workload, "--seed", "11", "--seconds",
                              str(seconds), "--trace", "0", "--out", out]
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(dir, side + "-target"))
    log = os.path.join(dir, f"{workload}.{side}.{index}.stderr")
    detail_path = os.path.join(out, f"{workload}.untraced.json")
    if os.path.exists(detail_path):
        os.remove(detail_path)
    with open(log, "w") as err:
        proc = subprocess.run(cmd, cwd=os.path.join(dir, side), env=env,
                              stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 0,
                                                  "failed": 0, "metrics": {}}
    try:
        detail = json.load(open(detail_path))
        result["problems"] = detail.get("problems", [])
    except (OSError, ValueError):
        result["problems"] = [f"no result file (exit {proc.returncode}, see {log})"]
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


print(f"parent {parent}\nchange {change}\n{pairs} pairs x {seconds} s per run")
verdicts = []
for workload in workloads:
    runs = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run(side, workload, i))
    print(f"\n{workload}")
    for side in ("parent", "change"):
        bad = [r for r in runs[side] if not r["correct"]]
        shares = [r["failed"] / max(r["attempted"], 1) for r in runs[side]]
        print(f"  {side}: {len(bad)}/{pairs} runs correct: false, "
              f"mean failed_share {statistics.mean(shares):.6f}")
        for i, r in enumerate(runs[side]):
            if not r["correct"]:
                print(f"    pair {i}: failed {r['failed']}/{r['attempted']}: "
                      + "; ".join(r["problems"]))
    for metric in bench["end_to_end"]:
        name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
        p = [r["metrics"][name]["value"] for r in runs["parent"] if name in r["metrics"]]
        c = [r["metrics"][name]["value"] for r in runs["change"] if name in r["metrics"]]
        if not p or not c:
            print(f"  {name:<26} missing")
            verdicts.append(False)
            continue
        pm, cm = statistics.median(p), statistics.median(c)
        q1, q3 = quartiles(p)
        wins = sum((cv < pv) if lower else (cv > pv) for pv, cv in zip(p, c))
        limit = pm * (1 + bound) if lower else pm * (1 - bound)
        worse = cm > limit if lower else cm < limit
        spread = (q3 - q1) / pm if pm else 0.0
        verdict = "WORSE THAN BOUND" if worse else "within bound"
        if spread > bound:
            verdict += f", UNRESOLVED (parent spread {spread:.0%} > bound {bound:.0%})"
        print(f"  {name:<26} parent {pm:12.4f} [{q1:.4f}, {q3:.4f}]  change {cm:12.4f}  "
              f"wins {wins}/{len(c)}  {verdict}")
        verdicts.append(not worse)
for name in sorted(os.listdir(out)):
    if name.endswith(".digest"):
        print(f"\n{name}: {open(os.path.join(out, name)).read().strip()} "
              "(a run whose week differs from this fails its digest check)")
print("\nrehearsal:", "every end-to-end metric within its bound" if all(verdicts)
      else "some end-to-end metric is worse than its bound")
sys.exit(0 if all(verdicts) else 1)
EOF
