#!/usr/bin/env bash
# Runs the measurement benches at the paper's Table-I dataset sizes
# (SNTRUST_FULL_SCALE=1 cancels every DatasetSpec::default_scale, so
# livejournal targets ~4.8M vertices).
#
# Generating the large analogues costs minutes and GBs of CSR, so this
# script materializes each graph once as a zero-copy snapshot
# (graph/snapshot.hpp) under $SNAP_DIR (default snapshots/); with
# SNTRUST_SNAPSHOT set the benches mmap the snapshot on every later run —
# milliseconds instead of regeneration. SNAP_DIR is the script's own input,
# not an SNTRUST_* knob, so exporting it leaves the benches it launches
# without an unknown-knob warning.
#
# Fallback: machines without the RAM for the full livejournal CSR can pass
# an SNTRUST_SCALE multiplier instead of going full-scale, e.g.
# `scripts/run_full_scale.sh 8` runs every dataset at 8x the default bench
# sizing — a fraction of Table-I, but far past the smoke sizes. The recorded
# baseline bench/baselines/full_scale.json documents which mode the
# reference numbers were captured in.
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE_CAP="${1:-full}"   # "full" = Table-I size; a number = SNTRUST_SCALE
SNAP_DIR="${SNAP_DIR:-snapshots}"
REPORT_DIR="reports/full-scale-$(date +%Y%m%d-%H%M%S)"
mkdir -p "$SNAP_DIR" "$REPORT_DIR"

cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)"

# The matvec-heaviest figures; add more benches here as budget allows.
BENCHES=(fig1_mixing_time fig2_coreness_ecdf fig3_fig4_expansion)

for b in "${BENCHES[@]}"; do
  if [ "$SCALE_CAP" = "full" ]; then
    SNTRUST_FULL_SCALE=1 SNTRUST_SNAPSHOT="$SNAP_DIR" \
      SNTRUST_REPORT="$REPORT_DIR/$b.json" \
      "build/bench/$b"
  else
    SNTRUST_SCALE="$SCALE_CAP" SNTRUST_SNAPSHOT="$SNAP_DIR" \
      SNTRUST_REPORT="$REPORT_DIR/$b.json" \
      "build/bench/$b"
  fi
done 2>&1 | tee "$REPORT_DIR/output.txt"

# Wall-clock and peak-RSS summary (the run reports carry both in totals).
./build/tools/sntrust_benchdiff --summary "$REPORT_DIR"/*.json
echo "full-scale reports: $REPORT_DIR (snapshots cached in $SNAP_DIR)"
