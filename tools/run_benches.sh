#!/usr/bin/env bash
# Run the gated figure benches against one build directory.
#
# Usage: tools/run_benches.sh <build-dir> <full|asan>
#
#   full  the regular build: every gated bench at its CI scale, then the
#         structural check of fig7's Chrome trace.
#   asan  a sanitizer build: the same benches minus the wall-clock ones
#         (fig4, fig7), the figures at smaller scales.
#
# The first five runs of each mode take no scale: the single-machine
# PASSv2 benches, whose PASS_CHECKs cover every layer from the kernel to
# Waldo's database (fig2_pipeline prints its exact db_bytes/index_bytes).
#
# Each bench PASS_CHECKs its own gates and exits nonzero on a failure, so
# the script stops at the first failing bench. A bench's stdout lands in
# <build-dir>/<bench>.out and its "csv," lines in <build-dir>/<bench>.csv.
set -euo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 <build-dir> <full|asan>" >&2
  exit 2
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$(cd "$1" && pwd)"
mode="$2"

case "$mode" in
  full)
    runs=(
      "table1_records"
      "fig1_layering"
      "fig2_pipeline"
      "table3_space"
      "ablation_logpath"
      "fig3_cluster"
      "fig4_rebalance 48"
      "fig5_recovery 24"
      "fig6_query_cache"
      "fig7_observability fig7_trace.json"
      "fig8_pipeline_ingest 4"
      "fig9_portal_churn"
      "fig10_audit 32 1"
      "fig10_audit 32 2"
      "fig10_audit 32 3"
      "fig11_standing"
      "fig11_standing 6 29"
    )
    ;;
  asan)
    # minipy's closure<->scope shared_ptr cycle is a known leak; ASan memory
    # errors and UBSan still fail the run.
    export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=0}"
    runs=(
      "table1_records"
      "fig1_layering"
      "fig2_pipeline"
      "table3_space"
      "ablation_logpath"
      "fig3_cluster"
      "fig5_recovery 16"
      "fig6_query_cache 16"
      "fig8_pipeline_ingest 3"
      "fig9_portal_churn 3"
      "fig10_audit 12"
      "fig11_standing 4"
    )
    ;;
  *)
    echo "unknown mode '$mode' (want full or asan)" >&2
    exit 2
    ;;
esac

cd "$build"
for run in "${runs[@]}"; do
  rm -f "${run%% *}.out"
done
for run in "${runs[@]}"; do
  bench="${run%% *}"
  echo "== $run"
  # shellcheck disable=SC2086  # split the run into binary + arguments
  ./$run | tee -a "$bench.out"
  grep '^csv,' "$bench.out" > "$bench.csv" || true
done

if [ "$mode" = full ]; then
  python3 "$root/tools/check_trace.py" "$build/fig7_trace.json"
fi
