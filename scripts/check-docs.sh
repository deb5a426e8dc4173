#!/bin/sh
# Documentation gate, run alongside the tier-1 suite (scripts/verify.sh):
#   1. rustdoc over the whole workspace with warnings promoted to errors
#      (broken intra-doc links, missing code-block languages, ...);
#   2. a link check over every tracked *.md file: local link targets
#      must exist, and markdown source-file links stay honest;
#   3. every inca_* metric name registered in code must appear in
#      docs/OBSERVABILITY.md, so the metric reference cannot rot;
#   4. every bench binary a command in a tracked *.md file runs
#      (`... --bin NAME`) must exist; CHANGES.md is history and is
#      not checked;
#   5. the temporal query layer stays documented: every public
#      TemporalQuery method must appear in docs/QUERYING.md, and every
#      kind label of its latency histogram in docs/OBSERVABILITY.md;
#   6. the trace store's reader surface stays documented: every public
#      method of the durable TraceStore must appear in
#      docs/OBSERVABILITY.md;
#   7. the O(report) write path stays documented: every public RopeCache
#      method must appear in docs/PERFORMANCE.md, and every public
#      binframe function in ARCHITECTURE.md;
#   8. the reactor frontend stays documented: every public method of
#      the readiness reactor (crates/server/src/reactor/) must appear
#      in ARCHITECTURE.md;
#   9. the federated depot tier stays documented: every public method
#      and free function of crates/server/src/federation/ must appear
#      in ARCHITECTURE.md.
set -e
cd "$(dirname "$0")/.."

echo "== cargo doc (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "== markdown link check =="
# Pull every inline markdown link/image target out of the tracked .md
# files and verify that relative ones resolve on disk (anchors and
# external URLs are skipped - the build environment is offline).
fail=0
for md in $(git ls-files '*.md'); do
  dir=$(dirname "$md")
  for target in $(grep -o '](\([^)]*\))' "$md" | sed 's/^](//; s/)$//'); do
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path=${target%%#*}
    [ -n "$path" ] || continue
    if [ ! -e "$dir/$path" ] && [ ! -e "$path" ]; then
      echo "BROKEN: $md -> $target"
      fail=1
    fi
  done
done
[ "$fail" -eq 0 ] || exit 1

echo "== metrics documented =="
# Every inca_* instrument name that appears in Rust code (registration
# or assertion) must be mentioned in the observability guide.
fail=0
for name in $(grep -rhoE '"inca_[a-z0-9_]+"' crates src tests --include='*.rs' | tr -d '"' | sort -u); do
  if ! grep -q "$name" docs/OBSERVABILITY.md; then
    echo "UNDOCUMENTED METRIC: $name (add it to docs/OBSERVABILITY.md)"
    fail=1
  fi
done
[ "$fail" -eq 0 ] || exit 1

echo "== bench binaries exist =="
# A command that runs a deleted binary fails for whoever copies it. A
# flag named on its own in prose (`--bin NAME` right after a backtick)
# is not a command and is not checked.
fail=0
for md in $(git ls-files '*.md' ':!CHANGES.md'); do
  for bin in $(grep -oE '(^|[^`])--bin [a-z0-9_]+' "$md" | awk '{print $2}' | sort -u); do
    if [ ! -f "crates/bench/src/bin/$bin.rs" ]; then
      echo "MISSING BIN: $md runs --bin $bin but crates/bench/src/bin/$bin.rs does not exist"
      fail=1
    fi
  done
done
[ "$fail" -eq 0 ] || exit 1

echo "== temporal query layer documented =="
# The cookbook (docs/QUERYING.md) is the contract for the temporal
# query surface: a public method someone can call but can't look up
# is a doc regression, as is a metric label missing from the
# observability reference.
fail=0
for method in $(grep -E '^    pub fn [a-z0-9_]+' crates/server/src/temporal.rs \
    | sed 's/^    pub fn //; s/(.*//' | sort -u); do
  if ! grep -q "$method" docs/QUERYING.md; then
    echo "UNDOCUMENTED QUERY: TemporalQuery::$method (add it to docs/QUERYING.md)"
    fail=1
  fi
done
for kind in $(grep -oE 'hist\("[a-z]+"\)' crates/server/src/temporal.rs \
    | sed 's/hist("//; s/")//' | sort -u); do
  if ! grep -q "kind=\"$kind\"" docs/OBSERVABILITY.md; then
    echo "UNDOCUMENTED KIND: inca_depot_temporal_query_seconds{kind=\"$kind\"} (add it to docs/OBSERVABILITY.md)"
    fail=1
  fi
done
[ "$fail" -eq 0 ] || exit 1

echo "== trace store documented =="
# The durable trace store is the forensic query surface; every public
# method someone could call (readers, lifecycle, stats) must appear in
# docs/OBSERVABILITY.md.
fail=0
for method in $(grep -E '^    pub fn [a-z0-9_]+' crates/obs/src/store.rs \
    | sed 's/^    pub fn //; s/(.*//' | sort -u); do
  if ! grep -q "$method" docs/OBSERVABILITY.md; then
    echo "UNDOCUMENTED STORE METHOD: TraceStore::$method (add it to docs/OBSERVABILITY.md)"
    fail=1
  fi
done
[ "$fail" -eq 0 ] || exit 1

echo "== write path documented =="
# The piece-table cache and the binary frame are the fast write path;
# their public surfaces must stay looked-up-able: RopeCache methods in
# the performance guide, binframe functions in the architecture doc's
# wire-format section.
fail=0
for method in $(grep -E '^    pub fn [a-z0-9_]+' crates/server/src/depot/rope.rs \
    | sed 's/^    pub fn //; s/(.*//' | sort -u); do
  if ! grep -q "$method" docs/PERFORMANCE.md; then
    echo "UNDOCUMENTED ROPE METHOD: RopeCache::$method (add it to docs/PERFORMANCE.md)"
    fail=1
  fi
done
for func in $(grep -E '^pub fn [a-z0-9_]+' crates/wire/src/binframe.rs \
    | sed 's/^pub fn //; s/(.*//' | sort -u); do
  if ! grep -q "$func" ARCHITECTURE.md; then
    echo "UNDOCUMENTED FRAME FN: binframe::$func (add it to ARCHITECTURE.md)"
    fail=1
  fi
done
[ "$fail" -eq 0 ] || exit 1

echo "== reactor frontend documented =="
# One thread serving 10k connections is the scale story; its public
# surface (reactor config/handle, poller, frame reassembly) must stay
# looked-up-able in the architecture doc.
fail=0
for method in $(grep -hE '^    pub fn [a-z0-9_]+' \
    crates/server/src/reactor/mod.rs crates/server/src/reactor/poller.rs \
    crates/wire/src/frame.rs \
    | sed 's/^    pub fn //; s/(.*//' | sort -u); do
  if ! grep -q "$method" ARCHITECTURE.md; then
    echo "UNDOCUMENTED REACTOR METHOD: $method (add it to ARCHITECTURE.md)"
    fail=1
  fi
done
[ "$fail" -eq 0 ] || exit 1

echo "== federation documented =="
# Many depots, one query plane: the federation's public surface
# (partition map methods, the Federation plane, the rollup helpers)
# must stay looked-up-able in the architecture doc.
fail=0
for name in $(grep -hE '^    pub fn [a-z0-9_]+|^pub fn [a-z0-9_]+' \
    crates/server/src/federation/mod.rs crates/server/src/federation/partition.rs \
    | sed 's/^ *pub fn //; s/[(<].*//' | sort -u); do
  if ! grep -q "$name" ARCHITECTURE.md; then
    echo "UNDOCUMENTED FEDERATION FN: $name (add it to ARCHITECTURE.md)"
    fail=1
  fi
done
[ "$fail" -eq 0 ] || exit 1
echo "docs OK"
