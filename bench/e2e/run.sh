#!/usr/bin/env bash
# Build and run the end-to-end benchmark. Run from anywhere in a checkout.
#
# One workload (the form BENCHMARK.json's "command" is invoked with):
#   bash bench/e2e/run.sh --workload <name> --seed <n> --seconds <s> \
#                         --trace <0|1>
# prints "# metric ..." lines and, last, one JSON result line. --trace 1
# reports the per-layer metrics and writes the Chrome trace to
# .bench_build/trace-<workload>-<seed>.json.
#
# The whole benchmark:
#   bash bench/e2e/run.sh [--seed <n>] [--seconds <s>] <results.json>
# runs every workload untraced, then traced, prints one
# "<workload> <metric> <value> <unit> <n>" line per metric, validates each
# trace with tools/check_trace.py, checks the harness's own share of the
# traced time, and writes every result line to <results.json>.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$ROOT"
BUILD=.bench_build
WORKLOADS=(record ingest query mixed)

build() {
  if [ ! -f src/cluster/cluster.h ]; then
    echo "run.sh: no library sources under $ROOT/src" >&2
    exit 2
  fi
  mkdir -p "$BUILD"
  local log="$BUILD/build.log"
  if { [ -f "$BUILD/CMakeCache.txt" ] ||
       cmake -S bench/e2e -B "$BUILD" -DCMAKE_BUILD_TYPE=RelWithDebInfo; } \
       >"$log" 2>&1 && cmake --build "$BUILD" -j 4 >>"$log" 2>&1; then
    return
  fi
  cat "$log" >&2
  echo "run.sh: build failed" >&2
  exit 1
}

if [[ " $* " == *" --workload "* || " $* " == *" --workload="* ]]; then
  args=()
  workload="" seed="" trace=0
  while [ $# -gt 0 ]; do
    case "$1" in
      --trace) trace="${2:-}"; shift 2 ;;
      --trace=*) trace="${1#--trace=}"; shift ;;
      --workload) workload="${2:-}"; args+=("$1" "${2:-}"); shift 2 ;;
      --seed) seed="${2:-}"; args+=("$1" "${2:-}"); shift 2 ;;
      *) args+=("$1"); shift ;;
    esac
  done
  build
  if [ "$trace" = 1 ]; then
    args+=(--trace "$BUILD/trace-$workload-$seed.json")
  fi
  exec "$BUILD/pass_bench" "${args[@]}"
fi

seed=1 seconds=20 out=""
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    *) out="$1"; shift ;;
  esac
done
if [ -z "$out" ]; then
  echo "usage: run.sh [--seed <n>] [--seconds <s>] <results.json>" >&2
  exit 2
fi
build

json="{\"seed\": $seed, \"seconds\": $seconds"
for mode in untraced traced; do
  json+=", \"$mode\": {"
  sep=""
  for w in "${WORKLOADS[@]}"; do
    trace_args=()
    trace="$BUILD/trace-$w-$seed.json"
    if [ "$mode" = traced ]; then
      trace_args=(--trace "$trace")
    fi
    log="$BUILD/$mode-$w.log"
    if ! "$BUILD/pass_bench" --workload "$w" --seed "$seed" \
        --seconds "$seconds" "${trace_args[@]}" >"$log"; then
      cat "$log" >&2
      echo "run.sh: $w ($mode) failed" >&2
      exit 1
    fi
    awk -v w="$w" '$1 == "#" && $2 == "metric" { print w, $3, $4, $5, $6 }' \
      "$log"
    if [ "$mode" = traced ]; then
      python3 tools/check_trace.py "$trace" >&2
      awk -v w="$w" '$1 == "#" && $2 == "metric" {
          v[$3] = $4
        }
        END {
          share = v["bench.self_ms"] / v["trace.total_ms"]
          printf "%s harness share of traced time %.4f\n", w, share \
            > "/dev/stderr"
          exit share < 0.05 ? 0 : 1
        }' "$log" || { echo "run.sh: $w harness share >= 5%" >&2; exit 1; }
    fi
    json+="$sep\"$w\": $(tail -n 1 "$log")"
    sep=", "
  done
  json+="}"
done
printf '%s}\n' "$json" >"$out"
