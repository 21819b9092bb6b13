#!/usr/bin/env bash
# Check the layer map of docs/ARCHITECTURE.md: no file under src/ may
# include a header of a module ranked above its own. Modules of one rank
# may include each other. The few upward edges the design needs are listed
# below, each by file with its reason; anything else fails.
#
# Usage: tools/check_layering.sh   (exits nonzero listing every violation)
set -u

cd "$(dirname "$0")/.."

# Rank of each module, lowest first:
#   util < sim < obs < os, fs < core < lasagna, nfs < waldo < pql < cluster
#   < kepler, browser, minipy, workloads
declare -A rank=(
  [util]=0
  [sim]=1
  [obs]=2
  [os]=3 [fs]=3
  [core]=4
  [lasagna]=5 [nfs]=5
  [waldo]=6
  [pql]=7
  [cluster]=8
  [kepler]=9 [browser]=9 [minipy]=9 [workloads]=9
)

# Allowed upward edges: "<includer> <included header>".
allowed=(
  # The VFS pass_* interface (the DPAPI's kernel half) carries core records.
  "src/os/filesystem.h src/core/provenance.h"
  "src/os/vnode.h src/core/provenance.h"
  # sim::Env owns the one metric registry and trace every layer reports to.
  "src/sim/env.h src/obs/obs.h"
  # Each shard is a whole PASSv2 machine driven by the paper's workloads.
  "src/cluster/cluster.h src/workloads/machine.h"
  "src/cluster/cluster.h src/workloads/workloads.h"
)

is_allowed() {
  local edge
  for edge in "${allowed[@]}"; do
    [ "$edge" = "$1 $2" ] && return 0
  done
  return 1
}

bad=0
while IFS=: read -r file _ include; do
  header="$(sed -E 's/^#include "([^"]+)".*/\1/' <<<"$include")"
  from="$(cut -d/ -f2 <<<"$file")"
  to="$(cut -d/ -f2 <<<"$header")"
  for module in "$from" "$to"; do
    if [ -z "${rank[$module]+x}" ]; then
      echo "UNKNOWN MODULE: src/$module (add it to the map in $0)"
      bad=1
    fi
  done
  [ -n "${rank[$from]+x}" ] && [ -n "${rank[$to]+x}" ] || continue
  if [ "${rank[$to]}" -gt "${rank[$from]}" ] && ! is_allowed "$file" "$header"; then
    echo "UPWARD: $file -> $header ($from below $to)"
    bad=1
  fi
done < <(grep -rnE '^#include "src/[a-z_]+/' src --include='*.h' --include='*.cc')

if [ "$bad" -eq 0 ]; then
  echo "layer map holds"
fi
exit "$bad"
