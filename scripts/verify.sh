#!/bin/sh
# The full verify flow: the tier-1 gate (ROADMAP.md), what tier-1
# leaves out because it is slow, the gated pipeline benchmark's tests
# and smoke pass, the legacy bench smokes, and the documentation gate.
set -e
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release

# default-members makes this every first-party crate's unit tests,
# proptests and integration tests beside the root tests/ suite.
echo "== tier-1: cargo test -q =="
cargo test -q

# What tier-1 #[ignore]s for time: the depot's Figure 9 scaling check
# over multi-megabyte caches, and paper_check's replay of all 151,955
# Table 4 reports through the streaming splice (about two minutes in a
# release build; one test at a time so the Figure 9 shape check, here
# at its release thresholds, times a quiet machine).
echo "== slow checks (--ignored) =="
cargo test -q -p inca-server --lib -- --ignored
cargo test -q --release --test paper_check -- --include-ignored --test-threads=1

# The full-scale rope-vs-splice speedup floor (200 probes into a
# 100,000-report cache on both write paths, documents byte-identical).
echo "== write path gate =="
cargo build --release -q -p inca-bench --bin depot_throughput
target/release/depot_throughput --rope-gate

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
for key in '"speedup"' '"threads"' '"wall_seconds"' '"million_ingest"' '"rope_vs_splice"' '"rope_seconds"' '"arena_bytes"'; do
  if ! grep -q "$key" target/BENCH_depot.smoke.json; then
    echo "verify FAILED: depot bench smoke output missing $key" >&2
    exit 1
  fi
done
for key in '"contention"' '"reads_per_sec"' '"temporal"' '"points_per_series"'; do
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
