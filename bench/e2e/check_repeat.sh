#!/usr/bin/env bash
# Repeatability check for the end-to-end benchmark.
#
#   bash bench/e2e/check_repeat.sh [--seed <n>] [--seconds <s>] [--runs <r>]
#
# Runs the whole benchmark (run.sh) as two sets of <r> runs (default 1)
# with one seed, plus one run with the next seed, then checks that:
#   * every workload reports exactly the metrics BENCHMARK.json lists;
#   * every per-layer value in a unit that repeats per seed (count, B, ratio,
#     sim_*) is byte-identical across all runs with the same seed;
#   * every end-to-end median of the second set is no worse than the first
#     set's by more than the metric's bound;
#   * the other seed changes at least one such count on every workload,
#     i.e. the seed reaches the generator.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$ROOT"
seed=1 runs=1
seconds="$(python3 -c \
  'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --runs) runs="$2"; shift 2 ;;
    *) echo "usage: check_repeat.sh [--seed <n>] [--seconds <s>]" \
            "[--runs <r>]" >&2
       exit 2 ;;
  esac
done

dir=.bench_build/repeat
rm -rf "$dir"
mkdir -p "$dir"
for set in a b; do
  for i in $(seq "$runs"); do
    echo "check_repeat: set $set run $i (seed $seed)" >&2
    bash bench/e2e/run.sh --seed "$seed" --seconds "$seconds" \
      "$dir/$set$i.json" >"$dir/$set$i.txt"
  done
done
echo "check_repeat: other seed $((seed + 1))" >&2
bash bench/e2e/run.sh --seed "$((seed + 1))" --seconds "$seconds" \
  "$dir/c1.json" >"$dir/c1.txt"

python3 - "$dir" "$runs" <<'EOF'
import json
import statistics
import sys

directory, runs = sys.argv[1], int(sys.argv[2])
bench = json.load(open("BENCHMARK.json"))
workloads = [w["name"] for w in bench["workloads"]]
e2e = {m["name"]: m for m in bench["end_to_end"]}
layer = {m["name"]: m for m in bench["per_layer"]}
repeating = {"count", "B", "ratio"}
failures = []


def load(name):
    return json.load(open(f"{directory}/{name}.json"))


def repeats(unit):
    return unit in repeating or unit.startswith("sim_")


def counts(result, workload):
    metrics = result["traced"][workload]["metrics"]
    return {k: v["value"] for k, v in metrics.items()
            if repeats(layer[k]["unit"])}


sets = {s: [load(f"{s}{i}") for i in range(1, runs + 1)] for s in "ab"}
other = load("c1")
for w in workloads:
    for result in sets["a"] + sets["b"] + [other]:
        if set(result["untraced"][w]["metrics"]) != set(e2e):
            failures.append(f"{w}: end-to-end metrics differ from the list")
        if set(result["traced"][w]["metrics"]) != set(layer):
            failures.append(f"{w}: per-layer metrics differ from the list")
    reference = counts(sets["a"][0], w)
    for result in sets["a"][1:] + sets["b"]:
        for name, value in counts(result, w).items():
            if value != reference[name]:
                failures.append(f"{w} {name}: {reference[name]} != {value} "
                                "on the same seed")
    if counts(other, w) == reference:
        failures.append(f"{w}: another seed left every count unchanged")
    for name, metric in e2e.items():
        med = {s: statistics.median(r["untraced"][w]["metrics"][name]["value"]
                                    for r in sets[s]) for s in "ab"}
        change = (med["b"] - med["a"]) / med["a"]
        worse = change if metric["better"] == "lower" else -change
        verdict = "ok" if worse <= metric["bound"] else "OUT OF BOUND"
        print(f"{w:7s} {name:22s} {med['a']:14.6g} {med['b']:14.6g} "
              f"{change:+8.4f} bound {metric['bound']:.3f} {verdict}")
        if worse > metric["bound"]:
            failures.append(f"{w} {name}: {change:+.4f} beyond its bound")
for failure in failures:
    print("check_repeat: FAIL:", failure, file=sys.stderr)
print("check_repeat:", "FAIL" if failures else "OK")
sys.exit(1 if failures else 0)
EOF
