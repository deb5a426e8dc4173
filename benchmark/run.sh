#!/usr/bin/env bash
# Builds pipeline_bench once, runs the four workloads untraced and then
# traced, and writes benchmark/out/results.json.
#
#   benchmark/run.sh                 one untraced set, one traced set
#   benchmark/run.sh --repeat N      N untraced sets; fails if any end-to-end
#                                    metric differs between two sets by more
#                                    than its bound in BENCHMARK.json
#   benchmark/run.sh --smoke         2 s windows and one simulated day: proves
#                                    the binary runs; its numbers are unusable
#   benchmark/run.sh --seed N        workload seed (default 11)
set -euo pipefail
cd "$(dirname "$0")/.."

repeat=1
smoke=0
seed=11
while [ $# -gt 0 ]; do
    case "$1" in
        --repeat) repeat="$2"; shift 2 ;;
        --smoke) smoke=1; shift ;;
        --seed) seed="$2"; shift 2 ;;
        *) echo "usage: benchmark/run.sh [--smoke] [--repeat N] [--seed N]" >&2; exit 2 ;;
    esac
done

seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
if [ "$smoke" = 1 ]; then
    seconds=2
fi
commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/pipeline_bench"

out=benchmark/out
mkdir -p "$out"
# A rebuilt program may rightly leave another week behind: start the
# same-seed digest comparison afresh (untraced vs traced run below).
rm -f "$out"/*.digest "$out"/run.*.json

status=0
for set in $(seq 1 "$repeat"); do
    for workload in $workloads; do
        echo "== untraced set $set: $workload" >&2
        "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
            --commit "$commit" | tail -n 1 > "$out/run.untraced.$set.$workload.json" || status=1
    done
done
for workload in $workloads; do
    echo "== traced: $workload" >&2
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 1 \
        --commit "$commit" | tail -n 1 > "$out/run.traced.$workload.json" || status=1
done

python3 benchmark/collect.py --out "$out" --sets "$repeat" --seconds "$seconds" --seed "$seed" \
    --commit "$commit" --smoke "$smoke" || status=1
exit "$status"
