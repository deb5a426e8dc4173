#!/usr/bin/env bash
# Regenerates the tracked bench baselines at the repo root:
#   BENCH_depot.json  — rope-vs-splice write paths, the million-report
#                       ingest curve, and parallel simulation scaling
#   BENCH_query.json  — reader/writer contention over the shared depot
#                       lock, cache and temporal queries
#   BENCH_obs.json    — trace-store ingest throughput and forensic
#                       query latency curves over store size
#   BENCH_net.json    — reactor frontend connection-scale curve
#                       (100 → 10k concurrent daemons vs sustained
#                       reports/sec and p99 accept-to-insert latency)
#   BENCH_fed.json    — federated depot tier scale curve (sites vs
#                       global-merge/site-query latency, largest
#                       partition cache, single-depot oracle identity)
# Pass --smoke for the seconds-long CI sanity variant (writes
# *.smoke.json names so it never clobbers the committed full-mode
# baselines), --out-dir DIR to write somewhere other than the repo
# root (the smoke gate in scripts/verify.sh uses target/), and
# --only <depot|query|obs|net|fed> to build and run a single bench.
set -euo pipefail
cd "$(dirname "$0")/.."

smoke=""
outdir="."
suffix=""
only=""
while [ $# -gt 0 ]; do
  case "$1" in
    --smoke) smoke="--smoke"; suffix=".smoke" ;;
    --out-dir)
      outdir="${2:?--out-dir requires a directory}"
      shift
      ;;
    --only)
      only="${2:?--only requires one of: depot, query, obs, net, fed}"
      case "$only" in
        depot|query|obs|net|fed) ;;
        *)
          echo "--only: unknown bench '$only' (expected depot, query, obs, net or fed)" >&2
          exit 2
          ;;
      esac
      shift
      ;;
    *)
      echo "usage: bench.sh [--smoke] [--out-dir DIR] [--only <depot|query|obs|net|fed>]" >&2
      exit 2
      ;;
  esac
  shift
done

run_depot() {
  cargo build --release -q -p inca-bench --bin depot_throughput
  target/release/depot_throughput $smoke --out "$outdir/BENCH_depot$suffix.json"
}
run_query() {
  cargo build --release -q -p inca-bench --bin query_throughput
  target/release/query_throughput $smoke --out "$outdir/BENCH_query$suffix.json"
}
run_obs() {
  cargo build --release -q -p inca-bench --bin trace_query
  target/release/trace_query $smoke --out "$outdir/BENCH_obs$suffix.json"
}
run_net() {
  cargo build --release -q -p inca-bench --bin net_scale
  target/release/net_scale $smoke --out "$outdir/BENCH_net$suffix.json"
}
run_fed() {
  cargo build --release -q -p inca-bench --bin fed_scale
  target/release/fed_scale $smoke --out "$outdir/BENCH_fed$suffix.json"
}

case "$only" in
  depot) run_depot ;;
  query) run_query ;;
  obs) run_obs ;;
  net) run_net ;;
  fed) run_fed ;;
  "")
    run_depot
    run_query
    run_obs
    run_net
    run_fed
    ;;
esac
