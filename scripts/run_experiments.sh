#!/bin/sh
# Regenerates every paper table/figure, printing each and writing it to
# results/<name>.txt — the printouts tests/paper_check.rs holds the
# code to. A failing exhibit stops the script. Scale knobs:
#   INCA_DAYS / INCA_HOURS / INCA_REPORTS / INCA_REPS (see README);
# check in only full-scale printouts.
set -e
cd "$(dirname "$0")/.."
cargo build --release -q -p inca-bench
run() {
  name="$1"
  shift
  echo "==================== $name ===================="
  "$@" > "results/$name.txt"
  cat "results/$name.txt"
  echo
}
for bin in table1 table2 table3 fig4 fig5 fig6 fig7 fig9; do
  run "$bin" "target/release/$bin"
done
run fig9_attachment env INCA_MODE=attachment target/release/fig9
run table4_fig8 target/release/table4
