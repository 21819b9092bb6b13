// Use case §3.1 at cluster scale: anomaly detection as a standing query.
// The original single-machine demo asked "which input changed?" after the
// fact; here a security team registers the question *once* — "flag every
// process whose ancestry crosses a taint source" — and a BSM-style audit
// stream keeps the answer fresh as fork/exec chains, file I/O, and
// cross-shard lineage pour through cluster ingest. Each Refresh() reads
// only the rows written since the last one and extends the watchlist by
// them, so it stays live without ever re-reading the whole provenance
// graph.

#include <cstdio>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/standing.h"
#include "src/pql/eval.h"
#include "src/util/logging.h"
#include "src/workloads/audit_stream.h"

using namespace pass;
using cluster::ClusterCoordinator;
using cluster::StandingNotification;
using cluster::StandingQueryTier;
using workloads::AuditStreamGenerator;
using workloads::AuditStreamOptions;

int main() {
  cluster::ClusterOptions cluster_options;
  cluster_options.shards = 3;
  cluster_options.ingest_batch_records = 16;
  ClusterCoordinator cluster(cluster_options);

  AuditStreamOptions stream_options;
  stream_options.processes_per_shard = 3;
  stream_options.taint_sources = 1;
  stream_options.taint_fraction = 0.35;
  stream_options.cross_shard_fraction = 0.5;
  AuditStreamGenerator stream(&cluster, stream_options);
  PASS_CHECK(stream.SeedTaintSources().ok());

  StandingQueryTier tier(&cluster);
  pql::QueryOptions options;
  options.trace_label = "taint-watch";
  auto watch =
      tier.Register(AuditStreamGenerator::TaintAncestryQuery(), options);
  PASS_CHECK(watch.ok());
  std::printf("standing query registered (incremental: %s):\n  %s\n\n",
              *tier.IsIncremental(*watch) ? "yes" : "no",
              AuditStreamGenerator::TaintAncestryQuery().c_str());

  // Stream audit bursts; after each, one Refresh() surfaces the newly
  // flagged processes. Mid-run we migrate a shard range to show the
  // watchlist riding through rebalancing without a gap.
  for (int round = 1; round <= 5; ++round) {
    PASS_CHECK(stream.StreamRound().ok());
    if (round == 3) {
      core::PnodeRange range{core::ShardSpace(0).begin,
                             cluster.machine(0).allocator().peek_next()};
      PASS_CHECK(cluster.MigrateRange(range, 2).ok());
      std::printf("-- round 3: migrated shard 0's range to shard 2 --\n");
    }
    auto notes = tier.Refresh();
    PASS_CHECK(notes.ok());
    std::printf("round %d: %zu new alert(s)\n", round, notes->size());
    for (const StandingNotification& note : *notes) {
      std::string line;
      for (const pql::Value& value : note.row) {
        if (!line.empty()) line += ", ";
        line += value.ToString();
      }
      std::printf("  ALERT process %s has taint in its ancestry\n",
                  line.c_str());
    }
  }

  // The standing result must equal a from-scratch evaluation — and cover
  // every process the generator knows touched taint.
  auto standing = tier.ResultOf(*watch);
  PASS_CHECK(standing.ok());
  cluster::FederatedSource fresh = cluster.Source();
  pql::Engine engine(&fresh);
  auto scratch = engine.Run(AuditStreamGenerator::TaintAncestryQuery());
  PASS_CHECK(scratch.ok());
  PASS_CHECK(standing->rows.size() == scratch->rows.size());
  for (const std::string& name : stream.expected_tainted_processes()) {
    bool found = false;
    for (const auto& row : standing->rows) {
      for (const pql::Value& value : row) {
        found = found || value.ToString() == name;
      }
    }
    PASS_CHECK(found);
  }

  const cluster::StandingStats& stats = tier.stats();
  std::printf(
      "\nflagged %zu process(es); from-scratch evaluation agrees\n"
      "incremental cost: %llu rows touched across %llu refreshes "
      "(seed: %llu rows)\n",
      standing->rows.size(),
      static_cast<unsigned long long>(stats.rows_touched),
      static_cast<unsigned long long>(stats.refreshes),
      static_cast<unsigned long long>(stats.seed_rows_touched));
  return 0;
}
