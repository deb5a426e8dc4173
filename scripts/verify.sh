#!/bin/sh
# The full verify flow: the tier-1 gate (ROADMAP.md), the
# self-monitoring/exposition gate, the per-subsystem gates, the gated
# pipeline benchmark's tests and smoke pass, and the documentation gate.
set -e
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

# The Figure 9 scaling check streams multi-megabyte caches and is
# #[ignore]d in the default suite; verify still runs it.
echo "== slow depot scaling check (--ignored) =="
cargo test -q -p inca-server --lib -- --ignored

# The observability stack guards itself: the SLO engine's unit tests,
# the promtool-style exposition lint (format conformance of
# QueryInterface::metrics_text()), the end-to-end lineage +
# staleness-alert test over a fault-injected simulated Monday, and the
# thread-count determinism contract of the parallel simulation engine.
echo "== health + exposition gate =="
cargo test -q -p inca-health
cargo test -q -p inca-obs lint
cargo test -q -p inca-obs --test ring_concurrency
cargo test -q --test health_lineage
cargo test -q --test determinism

# Trace forensics: the durable store's rotation/crash suite (concurrent
# writers across segment rolls, torn-tail quarantine on reopen), the
# killed-writer JSONL durability regression, and the end-to-end
# incident reconstruction from a reopened store plus self-scraped
# series after the writer process is gone.
echo "== trace forensics gate =="
cargo test -q -p inca-obs --test trace_store
cargo test -q -p inca-obs --test jsonl_durability
cargo test -q --test trace_forensics

# The indexed query engine: the proptest oracle (indexed reads
# byte-identical to the streaming scan) and the shared-read-lock
# contract (readers proceed concurrently, snapshots stay consistent
# during ingest).
echo "== query engine gate =="
cargo test -q -p inca-server --test proptest_cache
cargo test -q -p inca-server --test concurrent_readers

# The O(report) write path: the rope proptest oracle (piece-table
# documents, reads and generations byte-identical to the splice
# cache), the framing proptest (binary frames are a faithful encoding
# of the XML envelope), the end-to-end rope+binary byte-identity run
# under chaos, and the full-scale rope-vs-splice speedup floor.
echo "== write path gate =="
cargo test -q -p inca-server --test proptest_rope
cargo test -q -p inca-wire --test proptest_framing
cargo test -q --test rope_backend
cargo build --release -q -p inca-bench --bin depot_throughput
target/release/depot_throughput --rope-gate

# The temporal query layer: multi-resolution RRA selection obeys its
# documented rules under arbitrary workloads (proptest against the
# fine archive as oracle), and the Figure-5-equivalent query over a
# simulated horizon is non-empty, finds the Monday maintenance dip as
# an incident, and answers byte-identically across same-seed runs.
# (Temporal consistency under live ingest runs with concurrent_readers
# in the query engine gate above.)
echo "== temporal query gate =="
cargo test -q -p inca-rrd --test proptest_multires
cargo test -q --test temporal_query

# Exactly-once delivery: the chaos suite (a faulted run must converge
# to a depot byte-identical to the fault-free run, deterministically
# across thread counts), the lost-reply regression over a real TCP
# hop, and the proptest hunting arbitrary fault schedules.
echo "== delivery chaos gate =="
cargo test -q --test chaos
cargo test -q --test reliable_delivery
cargo test -q --test proptest_delivery

# The reactor frontend: frontend interchangeability under connection
# chaos (reactor depot byte-identical to the threaded oracle),
# multiplexing and backpressure unit tests, and the accept-loop
# resource-reaping regression.
echo "== reactor frontend gate =="
cargo test -q --test net_frontend
cargo test -q -p inca-server --lib reactor
cargo test -q -p inca-wire --lib frame

# The federated depot tier: partition-map/routing/rollup unit tests,
# the depot relay's exactly-once forwarding unit tests, and the e2e
# (200 sites over 8 partitions, global merge byte-identical to a
# single-depot oracle, rollups forwarded exactly once through a
# chaos-faulted hop, VO compliance answered from rollup series with
# zero leaf materializations).
echo "== federation gate =="
cargo test -q -p inca-server --lib federation
cargo test -q -p inca-controller --lib relay
cargo test -q --test federation

# The front-end → controller boundary: the one admission routine
# answers identically through the bytes and the decoded entry points
# (controller unit tests; the decode-once counts and the relayed-`via`
# allowlist run with tier-1 as tests/ingest_boundary.rs), the bounded
# response statistics equal an unbounded reference up to the cap, and
# `Report::parse` keeps its validation on the owning path.
echo "== ingest boundary gate =="
cargo test -q -p inca-server --lib controller
cargo test -q -p inca-obs --lib hist
cargo test -q -p inca-report

# The depot → consumer boundary: set reads share one parse per write.
# The proptest holds every set read equal to a fresh parse of the raw
# reports across ingest/compaction interleavings on both backends, the
# parse-count test (a root test, so tier-1 runs it too) holds a read
# after k replacements to exactly k parses, and `verify_resource`'s own
# tests cover the generic signature the shared reports go through.
echo "== consumer boundary gate =="
cargo test -q -p inca-server --test proptest_parsed_memo
cargo test -q --test consumer_boundary
cargo test -q -p inca-agreement

# The gated pipeline benchmark (BENCHMARK.json) is a package of its
# own that nothing else builds: its unit tests and a smoke pass keep a
# signature change in the crates from breaking the gate binary unseen.
# run.sh exits non-zero when a workload's output checks fail; the grep
# also catches a result object that says so.
echo "== pipeline benchmark gate =="
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml
benchmark/run.sh --smoke
if grep -l '"correct": false' benchmark/out/results.json benchmark/out/run.*.json; then
  echo "verify FAILED: pipeline benchmark smoke produced an incorrect result" >&2
  exit 1
fi

# The bench baselines must stay runnable: a smoke pass writes its JSON
# to target/ (never the tracked BENCH_*.json) and we check the fields
# consumers of the baselines rely on are present.
echo "== bench smoke gate =="
scripts/bench.sh --smoke --out-dir target
for key in '"speedup"' '"threads"' '"batched_seconds"' '"wall_seconds"' '"million_ingest"' '"rope_vs_splice"' '"rope_seconds"' '"arena_bytes"'; do
  if ! grep -q "$key" target/BENCH_depot.smoke.json; then
    echo "verify FAILED: depot bench smoke output missing $key" >&2
    exit 1
  fi
done
for key in '"speedup"' '"indexed_seconds"' '"scan_seconds"' '"reads_per_sec"' '"temporal"' '"points_per_series"'; do
  if ! grep -q "$key" target/BENCH_query.smoke.json; then
    echo "verify FAILED: query bench smoke output missing $key" >&2
    exit 1
  fi
done
for key in '"ingest"' '"events_per_sec"' '"segments"' '"by_trace_us"' '"slowest_us"' '"window_us"'; do
  if ! grep -q "$key" target/BENCH_obs.smoke.json; then
    echo "verify FAILED: obs bench smoke output missing $key" >&2
    exit 1
  fi
done
for key in '"daemons"' '"connections"' '"reports_per_sec"' '"p99_accept_to_insert_us"' '"wakeups_total"'; do
  if ! grep -q "$key" target/BENCH_net.smoke.json; then
    echo "verify FAILED: net bench smoke output missing $key" >&2
    exit 1
  fi
done
# The reactor must carry 1000 concurrent daemons even in the smoke
# pass, with every advertised connection concurrently live and a
# sustained floor of 5k acked reports/sec per point (full mode runs
# the 10k-daemon curve with its own gates in the bench binary).
if ! grep -q '"daemons": 1000, "connections": 1000' target/BENCH_net.smoke.json; then
  echo "verify FAILED: net bench smoke did not hold 1000 concurrent daemon connections" >&2
  exit 1
fi
if ! awk -F'"reports_per_sec": ' '/"reports_per_sec"/ {
      split($2, a, ","); if (a[1] + 0 < 5000) bad = 1
    } END { exit bad }' target/BENCH_net.smoke.json; then
  echo "verify FAILED: net bench smoke below the 5k reports/sec floor" >&2
  exit 1
fi
for key in '"sites"' '"partitions"' '"global_query_us"' '"site_query_us"' '"largest_cache_bytes"' '"reports"' '"oracle_identical"'; do
  if ! grep -q "$key" target/BENCH_fed.smoke.json; then
    echo "verify FAILED: fed bench smoke output missing $key" >&2
    exit 1
  fi
done
# Even the smoke pass must hold the federation's core promises at 200
# sites: the merged global document byte-identical to the single-depot
# oracle, and no partition cache over the configured byte bound.
if grep -q '"oracle_identical": false' target/BENCH_fed.smoke.json; then
  echo "verify FAILED: fed bench merged document diverged from the single-depot oracle" >&2
  exit 1
fi
if ! grep -q '"sites": 200' target/BENCH_fed.smoke.json; then
  echo "verify FAILED: fed bench smoke did not reach 200 sites" >&2
  exit 1
fi
if ! awk -F'"over_bound": ' '/"over_bound"/ {
      split($2, a, ","); if (a[1] + 0 > 0) bad = 1
    } END { exit bad }' target/BENCH_fed.smoke.json; then
  echo "verify FAILED: fed bench found partition caches over the byte bound" >&2
  exit 1
fi

echo "== docs =="
if ! scripts/check-docs.sh; then
  echo "verify FAILED: documentation gate (scripts/check-docs.sh)" >&2
  exit 1
fi

echo "verify OK"
