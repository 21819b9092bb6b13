// Figure 7 (this repo's extension): the sim-time observability layer.
//
// Sweeps shard count x workload over a fixed scenario — per-shard workload
// ingest, a cross-shard lineage chain, Sync, a range migration, and a
// federated ancestry closure — once with tracing off and once with tracing
// on, and reports per-op-type latency percentiles (p50/p90/p99 in simulated
// nanoseconds) from the metric registry plus the span counts of the traced
// run.
//
// Three regression gates, all PASS_CHECKed (CI runs this binary):
//   1. Zero sim-time cost: the traced and untraced runs of the same
//      scenario finish at the *identical* simulated nanosecond. Tracing
//      observes the clock, it never charges it.
//   2. Connected span trees: the Sync, the migration, and the federated
//      query each render as a single tree — one root, every other span
//      parented inside the window (remote applies link via the propagated
//      TraceContext), with children on the expected shards.
//   3. Bounded wall-clock cost: over the whole sweep (best of N repeats),
//      tracing costs < 10% wall time plus a small absolute slack that
//      absorbs CI timer noise.
//
// The featured configuration's trace is written as Chrome trace-event JSON
// (chrome://tracing, Perfetto) to argv[1] (default "fig7_trace.json");
// tools/check_trace.py validates it in CI.
//
// Usage: fig7_observability [trace.json] [repeats]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/federated_source.h"
#include "src/obs/obs.h"
#include "src/pql/eval.h"
#include "src/util/logging.h"

namespace {

using pass::cluster::ClusterCoordinator;
using pass::cluster::ClusterOptions;
using pass::cluster::FederatedSource;
using pass::obs::SpanRecord;
using pass::obs::TraceCollector;

// Wall-clock gate: traced <= untraced * (1 + 10%) + slack, best-of-repeats.
constexpr double kWallOverheadGate = 0.10;
constexpr double kWallSlackSeconds = 0.05;

// Spans recorded in [begin, end) of the collector's log must form a single
// tree: one root (named `root_name`), every other parent inside the window,
// one shared trace id, and children on >= `want_shards` distinct shards.
void CheckSingleTree(const TraceCollector& trace, size_t begin,
                     const char* root_name, int want_shards) {
  const std::vector<SpanRecord>& spans = trace.spans();
  PASS_CHECK(spans.size() > begin);
  std::set<uint64_t> ids;
  std::set<int> shards_seen;
  int roots = 0;
  uint64_t trace_id = spans[begin].trace_id;
  for (size_t i = begin; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    PASS_CHECK(!s.open);
    PASS_CHECK(s.trace_id == trace_id);
    ids.insert(s.id);
    if (s.parent_id == 0) {
      ++roots;
      PASS_CHECK(s.name == root_name);
    } else {
      PASS_CHECK(ids.count(s.parent_id) == 1);
    }
    if (s.shard >= 0) {
      shards_seen.insert(s.shard);
    }
  }
  PASS_CHECK(roots == 1);
  PASS_CHECK(static_cast<int>(shards_seen.size()) >= want_shards);
}

struct ScenarioResult {
  pass::sim::Nanos sim_ns = 0;    // simulated end time of the whole scenario
  double wall_seconds = 0;        // host time the run cost
  size_t spans = 0;               // spans recorded (0 when tracing is off)
  std::string metrics_csv;        // registry dump (traced runs only)
  std::string trace_json;         // Chrome trace (traced runs only)
};

// One full scenario: ingest a named workload on every shard, lay a lineage
// chain round-robin across the shards, Sync, migrate the chain's head range
// to the next shard, then run the ancestry closure of the chain tail
// through a federated portal. Identical inputs regardless of `tracing` —
// the sim clocks of the off/on runs must agree to the nanosecond.
ScenarioResult RunScenario(int shards, const std::string& workload,
                           bool tracing, bool want_exports) {
  ClusterOptions options;
  options.shards = shards;
  ClusterCoordinator cluster(options);
  TraceCollector& trace = cluster.env().obs().trace();
  trace.set_enabled(tracing);

  auto wall_begin = std::chrono::steady_clock::now();

  for (int shard = 0; shard < shards; ++shard) {
    cluster.RunWorkload(shard, workload);
  }

  const int chain = 8 * shards;
  std::vector<pass::core::ObjectRef> refs;
  for (int i = 0; i < chain; ++i) {
    std::vector<pass::core::ObjectRef> sources;
    if (i > 0) {
      sources.push_back(refs.back());
    }
    auto ref = cluster.WriteWithLineage(i % shards, "/f7_" + std::to_string(i),
                                        std::string(256, 'd'), sources);
    PASS_CHECK(ref.ok());
    refs.push_back(*ref);
  }

  size_t sync_begin = trace.spans().size();
  PASS_CHECK(cluster.Sync().ok());
  if (tracing) {
    // Gate 2a: the Sync — per-shard log recovery, replication batches, and
    // the remote applies across the simulated RPCs — is one tree.
    CheckSingleTree(trace, sync_begin, "cluster.sync", shards);
  }

  size_t migrate_begin = trace.spans().size();
  int owner = cluster.OwnerOf(refs[0].pnode);
  pass::core::PnodeRange range{refs[0].pnode, refs[0].pnode + 1};
  PASS_CHECK(cluster.MigrateRange(range, (owner + 1) % shards).ok());
  if (tracing) {
    // Gate 2b: the three-phase migration protocol is one tree.
    CheckSingleTree(trace, migrate_begin, "cluster.migrate", 1);
  }

  FederatedSource source = cluster.Source(/*portal_shard=*/0);
  std::string query =
      "select Ancestor from Provenance.file as F F.input* as Ancestor "
      "where F.name = \"/f7_" +
      std::to_string(chain - 1) + "\"";
  size_t query_begin = trace.spans().size();
  {
    pass::obs::ScopedSpan query_span(tracing ? &trace : nullptr, "pql.query");
    pass::pql::Engine engine(&source);
    auto result = engine.Run(query);
    PASS_CHECK(result.ok());
    PASS_CHECK(result->rows.size() >= static_cast<size_t>(chain));
  }
  if (tracing) {
    // Gate 2c: the multi-hop federated closure — every hop, every per-shard
    // RPC, every remote serve — hangs off the one pql.query root.
    CheckSingleTree(trace, query_begin, "pql.query", shards - 1);
  }

  ScenarioResult out;
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_begin)
          .count();
  out.sim_ns = cluster.env().clock().now();
  out.spans = trace.spans().size();
  if (tracing && want_exports) {
    out.metrics_csv = cluster.env().obs().metrics().DumpCsv();
    out.trace_json = trace.ChromeTraceJson();
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string trace_path = argc > 1 ? argv[1] : "fig7_trace.json";
  const int repeats = argc > 2 ? std::atoi(argv[2]) : 3;
  PASS_CHECK(repeats >= 1);

  std::printf("Figure 7: sim-time observability — span trees and latency "
              "percentiles\n");
  std::printf("(identical scenario traced and untraced; sim clocks must "
              "agree exactly)\n\n");
  std::printf("%6s %10s | %14s %8s | %10s %10s %10s\n", "shards", "workload",
              "sim-elapsed-ms", "spans", "sync-p50us", "flush-p50us",
              "hop-p50us");

  const int kShardCounts[] = {2, 4};
  const std::string kWorkloads[] = {"compile", "postmark"};

  // csv,fig7,<shards>,<workload>,<kind>,<name>,<labels>,<count>,
  //   <sum|value>,<min>,<max>,<p50>,<p90>,<p99>   (nanos; counters put
  //   their value in the sum column, histogram-only columns empty)
  std::string csv;
  std::string featured_trace;
  double wall_off = 0;
  double wall_on = 0;

  for (int rep = 0; rep < repeats; ++rep) {
    double rep_off = 0;
    double rep_on = 0;
    for (int shards : kShardCounts) {
      for (const std::string& workload : kWorkloads) {
        bool featured = rep == 0 && shards == kShardCounts[1] &&
                        workload == kWorkloads[0];
        ScenarioResult off =
            RunScenario(shards, workload, /*tracing=*/false, false);
        ScenarioResult on =
            RunScenario(shards, workload, /*tracing=*/true, rep == 0);
        rep_off += off.wall_seconds;
        rep_on += on.wall_seconds;

        // Gate 1: tracing is free in simulated time — exactly 0 ns of skew.
        PASS_CHECK(off.sim_ns == on.sim_ns);
        PASS_CHECK(off.spans == 0);
        PASS_CHECK(on.spans > 0);

        if (rep == 0) {
          for (size_t pos = 0; pos < on.metrics_csv.size();) {
            size_t eol = on.metrics_csv.find('\n', pos);
            std::string line = on.metrics_csv.substr(pos, eol - pos);
            // "csv,metric," -> "csv,fig7,<shards>,<workload>,"
            csv += "csv,fig7," + std::to_string(shards) + "," + workload +
                   "," + line.substr(11) + "\n";
            pos = eol + 1;
          }
          if (featured) {
            featured_trace = on.trace_json;
          }
          // Headline percentiles for the human-readable table (re-derive
          // from a scratch scenario is wasteful; parse our own CSV instead).
          auto p50_of = [&](const std::string& name) {
            std::string needle = ",histogram," + name + ",";
            size_t at = on.metrics_csv.find(needle);
            if (at == std::string::npos) {
              return 0.0;
            }
            // columns after labels: count,sum,min,max,p50,...
            size_t field = on.metrics_csv.find(',', at + needle.size());
            for (int skip = 0; skip < 4; ++skip) {
              field = on.metrics_csv.find(',', field + 1);
            }
            return std::atof(on.metrics_csv.c_str() + field + 1);
          };
          std::printf("%6d %10s | %14.2f %8zu | %10.1f %10.1f %10.1f\n",
                      shards, workload.c_str(), on.sim_ns / 1e6, on.spans,
                      p50_of("cluster.sync_ns") / 1e3,
                      p50_of("ingest.flush_ns") / 1e3,
                      p50_of("query.hop_ns") / 1e3);
        }
      }
    }
    // Best-of-repeats: the gate compares the cleanest observation of each
    // mode, not the noisiest.
    if (rep == 0 || rep_off < wall_off) {
      wall_off = rep_off;
    }
    if (rep == 0 || rep_on < wall_on) {
      wall_on = rep_on;
    }
  }

  FILE* trace_file = std::fopen(trace_path.c_str(), "w");
  PASS_CHECK(trace_file != nullptr);
  std::fputs(featured_trace.c_str(), trace_file);
  std::fclose(trace_file);

  // stderr: host timings are the one nondeterministic measurement, and
  // stdout must stay byte-identical across runs (the repo-wide probe).
  std::fprintf(stderr,
               "wall-clock: untraced %.3fs, traced %.3fs (best of %d)\n",
               wall_off, wall_on, repeats);
  std::printf("\n");
  std::fputs(csv.c_str(), stdout);
  std::printf("\nTracing observed every Sync, migration, and federated query "
              "as one\nconnected span tree and moved the simulated clock by "
              "exactly 0 ns;\nthe Chrome trace is at %s.\n",
              trace_path.c_str());

  // Gate 3: bounded wall-clock cost.
  PASS_CHECK(wall_on <= wall_off * (1.0 + kWallOverheadGate) +
                            kWallSlackSeconds);
  return 0;
}
