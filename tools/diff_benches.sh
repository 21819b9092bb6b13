#!/usr/bin/env bash
# Compare the bench outputs of two builds, such as a parent commit's and a
# change's.
#
# Usage: tools/diff_benches.sh <parent-build> <change-build>
#
# Run tools/run_benches.sh in the same mode on both build dirs first. This
# compares every <bench>.csv that either side holds, plus the whole .out of
# the five single-machine benches. The sim is deterministic, so a change
# that keeps behaviour leaves every one of these files byte-identical.
#
# Prints a unified diff of each file that differs (diff reports a file
# found on one side only). Exits 1 if any file differs or is missing, 0
# when all match.
set -euo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 <parent-build> <change-build>" >&2
  exit 2
fi
parent="$1"
change="$2"

names=(table1_records.out fig1_layering.out fig2_pipeline.out
       table3_space.out ablation_logpath.out)
for path in "$parent"/*.csv "$change"/*.csv; do
  if [ -e "$path" ]; then
    names+=("$(basename "$path")")
  fi
done
mapfile -t names < <(printf '%s\n' "${names[@]}" | sort -u)

differing=0
for name in "${names[@]}"; do
  diff -u "$parent/$name" "$change/$name" || differing=$((differing + 1))
done
echo "$differing of ${#names[@]} files differ"
[ "$differing" -eq 0 ]
