#!/bin/sh
# The full verify flow: the tier-1 gate (ROADMAP.md), clippy, what tier-1
# leaves out because it is slow, the gated pipeline benchmark's tests
# and smoke pass, smoke passes of the three curves it does not carry
# yet, and the documentation gate.
set -e
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release

# default-members makes this every first-party crate's unit tests,
# proptests and integration tests beside the root tests/ suite.
echo "== tier-1: cargo test -q =="
cargo test -q

# The gated pipeline benchmark (BENCHMARK.json) is a package of its own
# that the workspace does not build: compile it first, so a change that
# breaks the gate binary fails in seconds rather than after the slow
# checks.
echo "== pipeline benchmark build =="
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

# Lints over every crate and target; any warning fails the step.
echo "== clippy =="
cargo clippy --workspace --all-targets --offline -- -D warnings

# What tier-1 #[ignore]s for time: the depot's Figure 9 scaling check
# over multi-megabyte caches, and paper_check's replay of all 151,955
# Table 4 reports through the streaming splice (about two minutes in a
# release build; one test at a time so the Figure 9 shape check, here
# at its release thresholds, times a quiet machine).
echo "== slow checks (--ignored) =="
cargo test -q -p inca-server --lib -- --ignored
cargo test -q --release --test paper_check -- --include-ignored --test-threads=1

# The gated pipeline benchmark's unit tests and a smoke pass keep a
# signature or behaviour change in the crates from breaking the gate
# binary unseen.
# run.sh exits non-zero when a workload's output checks fail; the grep
# also catches a result object that says so.
echo "== pipeline benchmark gate =="
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml
benchmark/run.sh --smoke
if grep -l '"correct": false' benchmark/out/results.json benchmark/out/run.*.json; then
  echo "verify FAILED: pipeline benchmark smoke produced an incorrect result" >&2
  exit 1
fi

# The three curves of crates/bench that the pipeline benchmark does not
# carry yet (BENCH_depot.json, BENCH_net.json, BENCH_fed.json) must
# stay runnable: a smoke pass of each writes to target/, never over the
# tracked files.
echo "== curve smoke gate =="
cargo build --release -q -p inca-bench --bin depot_throughput --bin net_scale --bin fed_scale
target/release/depot_throughput --smoke --out target/BENCH_depot.smoke.json
target/release/net_scale --smoke --out target/BENCH_net.smoke.json
target/release/fed_scale --smoke --out target/BENCH_fed.smoke.json
# No tier-1 test holds more than 16 connections: the reactor must
# carry 1000 concurrent daemons even in the smoke pass, with every
# advertised connection concurrently live and a sustained floor of 5k
# acked reports/sec per point (full mode runs the 10k-daemon curve
# with its own gates in the bench binary).
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

echo "== docs =="
if ! scripts/check-docs.sh; then
  echo "verify FAILED: documentation gate (scripts/check-docs.sh)" >&2
  exit 1
fi

echo "verify OK"
