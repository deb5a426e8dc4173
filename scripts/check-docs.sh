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
#      not checked.
# That the public API is documented is rustdoc's job, not a grep's:
# the server, wire, obs and health crates deny missing_docs, and step 1
# fails on a broken intra-doc link.
set -e
cd "$(dirname "$0")/.."

# The tracked markdown files. Outside a git checkout, or with none
# listed, the checks below would pass over nothing: fail instead.
if ! tracked_md=$(git ls-files '*.md'); then
  echo "docs gate: git ls-files failed; run it from a git checkout" >&2
  exit 1
fi
if [ -z "$tracked_md" ]; then
  echo "docs gate: git ls-files lists no *.md file" >&2
  exit 1
fi

echo "== cargo doc (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "== markdown link check =="
# Pull every inline markdown link/image target out of the tracked .md
# files and verify that relative ones resolve on disk (anchors and
# external URLs are skipped - the build environment is offline).
fail=0
for md in $tracked_md; do
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
for md in $(printf '%s\n' $tracked_md | grep -vx 'CHANGES.md'); do
  for bin in $(grep -oE '(^|[^`])--bin [a-z0-9_]+' "$md" | awk '{print $2}' | sort -u); do
    if [ ! -f "crates/bench/src/bin/$bin.rs" ]; then
      echo "MISSING BIN: $md runs --bin $bin but crates/bench/src/bin/$bin.rs does not exist"
      fail=1
    fi
  done
done
[ "$fail" -eq 0 ] || exit 1

echo "docs OK"
