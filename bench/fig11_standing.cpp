// Figure 11 (this repo's extension): standing PQL queries over streaming
// audit ingest.
//
// A BSM-style audit workload (fork/exec chains, file I/O, taint-source
// touches, cross-shard lineage) streams through cluster ingest while a
// StandingQueryTier keeps registered PQL queries fresh from per-shard
// ingest frontiers. The sweep crosses ingest rate (worker chains per shard
// per round) x registered-query count x shard count and gates, per config:
//
//   (a) correctness: after every ingest round, every standing result
//       equals a from-scratch evaluation of the same text over a fresh
//       federated source — including across a live migration and across a
//       crash + Recover() sweep;
//   (b) cost: the naive baseline, re-running every registered query from
//       scratch on every ingest batch, makes >= 5x more source calls than
//       the tier makes remote exchanges. The two sides count different
//       units. The naive side counts every batched source call
//       (MeteredSource::ops), cache hits and portal-local answers included.
//       The tier side counts remote RPCs (StandingStats::eval_rpcs) plus
//       frontier publication exchanges (frontier_rpcs). Rows touched, read
//       through a MeteredSource on both sides, are reported alongside; the
//       one-time seed evaluation is excluded and reported separately.
//
// Usage: fig11_standing [rounds] [seed]   (default 6 17; CI runs 4 rounds
//                                          under ASan)
//
// Machine-readable output: lines beginning with "csv," —
//   csv,fig11,shards,rate,queries,rounds,incr_rows,incr_rpcs,naive_rows,
//       naive_rpcs,advantage,seed_rows,notifications,match
//   csv,fig11_migration,shards,rounds,migrations,match
//   csv,fig11_crash,shards,crash_points,crashes_recovered,match
//   csv,fig11_summary,configs,worst_advantage,all_match

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/federated_source.h"
#include "src/cluster/standing.h"
#include "src/pql/eval.h"
#include "src/util/logging.h"
#include "src/workloads/audit_stream.h"

namespace {

using pass::cluster::ClusterCoordinator;
using pass::cluster::ClusterOptions;
using pass::cluster::FederatedSource;
using pass::cluster::MeteredSource;
using pass::cluster::StandingQueryTier;
using pass::cluster::StandingStats;
using pass::workloads::AuditStreamGenerator;
using pass::workloads::AuditStreamOptions;

ClusterOptions Options(int shards, uint64_t seed) {
  ClusterOptions options;
  options.shards = shards;
  options.seed = seed;
  options.ingest_batch_records = 16;
  return options;
}

AuditStreamOptions Stream(int rate, uint64_t seed) {
  AuditStreamOptions options;
  options.processes_per_shard = rate;
  options.reads_per_process = 1;
  options.taint_sources = 1;
  options.taint_fraction = 0.4;
  options.cross_shard_fraction = 0.5;
  options.seed = seed;
  return options;
}

// The registered mix: both taint watchlists plus an attribute-only shape,
// cycled to reach the requested query count.
std::vector<std::string> QueryMix(int count) {
  const std::vector<std::string> base = {
      AuditStreamGenerator::TaintDescendantQuery(),
      AuditStreamGenerator::TaintAncestryQuery(),
      "select F.name from Provenance.file as F where F.taint = 1",
  };
  std::vector<std::string> mix;
  for (int i = 0; i < count; ++i) {
    mix.push_back(base[i % base.size()]);
  }
  return mix;
}

std::set<std::string> RowSet(const pass::pql::QueryResult& result) {
  std::set<std::string> rows;
  for (const auto& row : result.rows) {
    std::string line;
    for (const pass::pql::Value& value : row) {
      line += value.ToString();
      line += '|';
    }
    rows.insert(line);
  }
  return rows;
}

// The naive baseline an operator without the tier would run: every
// registered query, from scratch, after every ingest batch. Its rows are
// metered as the tier meters its own; *ops counts source calls. Returns
// false (and leaves *rows/*ops untouched) only if evaluation fails.
bool NaiveAnswer(ClusterCoordinator* cluster, const std::string& query,
                 std::set<std::string>* answer, uint64_t* rows,
                 uint64_t* ops) {
  FederatedSource fresh = cluster->Source();
  MeteredSource meter(&fresh);
  pass::pql::Engine engine(&meter);
  auto result = engine.Run(query);
  if (!result.ok()) {
    return false;
  }
  *answer = RowSet(*result);
  *rows += meter.rows_touched();
  *ops += meter.ops();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  int rounds = argc > 1 ? std::atoi(argv[1]) : 6;
  uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 17;
  PASS_CHECK(rounds >= 3);

  std::printf("Figure 11: standing queries vs naive re-run-per-batch "
              "(%d ingest rounds, seed %llu)\n\n",
              rounds, (unsigned long long)seed);

  bool all_match = true;
  double worst_advantage = 1e18;
  int configs = 0;

  // ---- Phase A: ingest rate x query count x shards --------------------------
  std::printf("steady-state sweep (advantage = naive source calls / "
              "incremental remote + publication rpcs, seed excluded):\n");
  for (int shards : {2, 4}) {
    for (int rate : {2, 6}) {
      for (int query_count : {1, 4, 8}) {
        ClusterCoordinator cluster(Options(shards, seed));
        AuditStreamGenerator stream(&cluster, Stream(rate, seed));
        PASS_CHECK(stream.SeedTaintSources().ok());

        StandingQueryTier tier(&cluster);
        std::vector<uint64_t> ids;
        for (const std::string& text : QueryMix(query_count)) {
          auto id = tier.Register(text);
          PASS_CHECK(id.ok());
          ids.push_back(*id);
        }

        uint64_t naive_rows = 0;
        uint64_t naive_ops = 0;
        bool match = true;
        for (int round = 0; round < rounds; ++round) {
          PASS_CHECK(stream.StreamRound().ok());
          PASS_CHECK(tier.Refresh().ok());
          const std::vector<std::string> mix = QueryMix(query_count);
          for (int q = 0; q < query_count; ++q) {
            std::set<std::string> naive;
            PASS_CHECK(
                NaiveAnswer(&cluster, mix[q], &naive, &naive_rows,
                            &naive_ops));
            auto standing = tier.ResultOf(ids[q]);
            PASS_CHECK(standing.ok());
            // Gate (a): incremental == from-scratch, every query, every
            // round.
            match = match && RowSet(*standing) == naive;
            PASS_CHECK(match);
          }
        }

        const StandingStats& stats = tier.stats();
        // Incremental cost in RPCs: the evaluation exchanges plus the
        // frontier-publication exchanges that replace full re-reads.
        uint64_t incr_rpcs = stats.eval_rpcs + stats.frontier_rpcs;
        double advantage = incr_rpcs == 0
                               ? static_cast<double>(naive_ops)
                               : static_cast<double>(naive_ops) /
                                     static_cast<double>(incr_rpcs);
        worst_advantage = std::min(worst_advantage, advantage);
        all_match = all_match && match;
        ++configs;

        std::printf("  %d shards x rate %d x %d queries: incr %8llu rows "
                    "%6llu rpcs | naive %9llu rows %6llu calls | %6.1fx, "
                    "%llu notifications\n",
                    shards, rate, query_count,
                    (unsigned long long)stats.rows_touched,
                    (unsigned long long)incr_rpcs,
                    (unsigned long long)naive_rows,
                    (unsigned long long)naive_ops, advantage,
                    (unsigned long long)stats.notifications);
        std::printf("csv,fig11,%d,%d,%d,%d,%llu,%llu,%llu,%llu,%.2f,%llu,"
                    "%llu,%s\n",
                    shards, rate, query_count, rounds,
                    (unsigned long long)stats.rows_touched,
                    (unsigned long long)incr_rpcs,
                    (unsigned long long)naive_rows,
                    (unsigned long long)naive_ops, advantage,
                    (unsigned long long)stats.seed_rows_touched,
                    (unsigned long long)stats.notifications,
                    match ? "yes" : "no");
        // Gate (b): the naive baseline's source calls are >= 5x the
        // tier's remote RPCs plus publication exchanges (different units;
        // see the header).
        PASS_CHECK(advantage >= 5.0);
      }
    }
  }

  // ---- Phase B: standing results ride through live migration ----------------
  std::printf("\nmigration continuity (3 shards, migrate shard 0's range "
              "away and back mid-stream):\n");
  {
    ClusterCoordinator cluster(Options(3, seed));
    AuditStreamGenerator stream(&cluster, Stream(2, seed));
    PASS_CHECK(stream.SeedTaintSources().ok());
    StandingQueryTier tier(&cluster);
    auto id = tier.Register(AuditStreamGenerator::TaintDescendantQuery());
    PASS_CHECK(id.ok());

    bool match = true;
    int migrations = 0;
    pass::core::PnodeRange range{0, 0};
    for (int round = 0; round < rounds; ++round) {
      PASS_CHECK(stream.StreamRound().ok());
      if (round == 1 || round == 3) {
        if (round == 1) {
          range = pass::core::PnodeRange{
              pass::core::ShardSpace(0).begin,
              cluster.machine(0).allocator().peek_next()};
        }
        PASS_CHECK(
            cluster.MigrateRange(range, round == 1 ? 2 : 0).ok());
        ++migrations;
      }
      PASS_CHECK(tier.Refresh().ok());
      std::set<std::string> naive;
      uint64_t rows = 0;
      uint64_t ops = 0;
      PASS_CHECK(NaiveAnswer(&cluster,
                             AuditStreamGenerator::TaintDescendantQuery(),
                             &naive, &rows, &ops));
      auto standing = tier.ResultOf(*id);
      PASS_CHECK(standing.ok());
      match = match && RowSet(*standing) == naive;
      PASS_CHECK(match);
    }
    all_match = all_match && match;
    std::printf("  %d rounds, %d migrations: standing == from-scratch "
                "throughout: %s\n",
                rounds, migrations, match ? "yes" : "NO");
    std::printf("csv,fig11_migration,3,%d,%d,%s\n", rounds, migrations,
                match ? "yes" : "no");
  }

  // ---- Phase C: crash + Recover() mid-ingest --------------------------------
  // Crash at a stride of sim crash points inside an ingest round, recover,
  // refresh: the frontier cursor (which only advances after a whole refresh
  // commits) must make the next refresh re-read a superset of the lost
  // delta and converge on exactly the from-scratch answer.
  std::printf("\ncrash sweep (2 shards, crash mid-round, Recover, "
              "Refresh):\n");
  {
    uint64_t crash_points = 0;
    {
      ClusterCoordinator probe(Options(2, seed));
      AuditStreamGenerator stream(&probe, Stream(2, seed));
      PASS_CHECK(stream.SeedTaintSources().ok());
      uint64_t before = probe.env().crash_points_passed();
      PASS_CHECK(stream.StreamRound().ok());
      crash_points = probe.env().crash_points_passed() - before;
    }
    PASS_CHECK(crash_points > 0);
    uint64_t stride = std::max<uint64_t>(1, crash_points / 6);

    bool match = true;
    int crashes = 0;
    for (uint64_t at = 1; at <= crash_points; at += stride) {
      ClusterCoordinator cluster(Options(2, seed));
      AuditStreamGenerator stream(&cluster, Stream(2, seed));
      PASS_CHECK(stream.SeedTaintSources().ok());
      StandingQueryTier tier(&cluster);
      auto id = tier.Register(AuditStreamGenerator::TaintDescendantQuery());
      PASS_CHECK(id.ok());
      PASS_CHECK(stream.StreamRound().ok());
      PASS_CHECK(tier.Refresh().ok());

      cluster.env().CrashAfterOps(at);
      pass::Status crashed = stream.StreamRound();
      if (crashed.ok()) {
        cluster.env().ClearCrash();  // round finished before the point
      } else {
        PASS_CHECK(cluster.Recover().ok());
        ++crashes;
      }
      PASS_CHECK(tier.Refresh().ok());
      std::set<std::string> naive;
      uint64_t rows = 0;
      uint64_t ops = 0;
      PASS_CHECK(NaiveAnswer(&cluster,
                             AuditStreamGenerator::TaintDescendantQuery(),
                             &naive, &rows, &ops));
      auto standing = tier.ResultOf(*id);
      PASS_CHECK(standing.ok());
      match = match && RowSet(*standing) == naive;
      PASS_CHECK(match);
    }
    PASS_CHECK(crashes > 0);
    all_match = all_match && match;
    std::printf("  %llu crash points, stride %llu, %d crashes recovered, "
                "standing == from-scratch after every recovery: %s\n",
                (unsigned long long)crash_points,
                (unsigned long long)stride, crashes, match ? "yes" : "NO");
    std::printf("csv,fig11_crash,2,%llu,%d,%s\n",
                (unsigned long long)crash_points, crashes,
                match ? "yes" : "no");
  }

  PASS_CHECK(all_match);
  std::printf("\nsummary: %d steady-state configs, worst advantage %.1fx, "
              "all standing results == from-scratch: %s\n",
              configs, worst_advantage, all_match ? "yes" : "NO");
  std::printf("csv,fig11_summary,%d,%.2f,%s\n", configs, worst_advantage,
              all_match ? "yes" : "no");
  return 0;
}
