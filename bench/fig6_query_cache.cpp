// Figure 6 (this repo's extension): federated query frontier-shipping and
// the portal result cache.
//
// Sweeps shard count x query depth x portal cache size over a cross-shard
// lineage chain and reports, per configuration, the query's RPC count,
// remote/local bytes, and cache hit rate, asserting federated == merged
// everywhere. Each configuration also measures a *baseline* run — per-node
// routing with the cache disabled, exactly the pre-frontier-shipping code
// path — and the deep configurations gate the RPC-reduction ratio, so a
// regression in either mechanism fails the binary (CI runs it).
//
// Usage: fig6_query_cache [max_depth]   (default 96; CI uses the default)

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/cluster/cluster.h"
#include "src/cluster/federated_source.h"
#include "src/core/libpass.h"
#include "src/pql/eval.h"
#include "src/util/logging.h"

namespace {

using pass::cluster::ClusterCoordinator;
using pass::cluster::ClusterOptions;
using pass::cluster::FederatedSource;

// Gate: at depth >= 48 on >= 4 shards, frontier-shipping + a full cache must
// cut query RPCs at least this factor below the per-node, cache-off baseline.
constexpr double kRpcReductionGate = 5.0;

// Churn-phase gate: with steady ingest into a non-portal shard between query
// rounds, per-pnode stamp invalidation must cut cache misses at least this
// factor below the whole-cache-flush baseline (a cache without per-entry
// stamps, which drops everything on any mutation and re-fetches the world).
constexpr double kChurnMissReductionGate = 5.0;

// Adapter hiding an underlying source's frontier batching: every batched
// call is re-issued one node at a time against the inner source (a frontier
// of one per node) — the seed's one-RPC-per-node behavior.
class PerNodeAdapter : public pass::pql::GraphSource {
 public:
  explicit PerNodeAdapter(const pass::pql::GraphSource* inner)
      : inner_(inner) {}

  std::vector<pass::pql::Node> RootSet(const std::string& name) const override {
    return inner_->RootSet(name);
  }
  std::vector<pass::pql::ValueSet> AttributeMany(
      const std::vector<pass::pql::Node>& nodes,
      const std::string& attr) const override {
    std::vector<pass::pql::ValueSet> out;
    out.reserve(nodes.size());
    for (const pass::pql::Node& node : nodes) {
      out.push_back(inner_->Attribute(node, attr));
    }
    return out;
  }
  std::vector<std::vector<pass::pql::Node>> FollowMany(
      const std::vector<pass::pql::Node>& nodes, const std::string& link,
      bool inverse) const override {
    std::vector<std::vector<pass::pql::Node>> out;
    out.reserve(nodes.size());
    for (const pass::pql::Node& node : nodes) {
      out.push_back(inner_->Follow(node, link, inverse));
    }
    return out;
  }
  bool IsLink(const std::string& name) const override {
    return inner_->IsLink(name);
  }
  std::string NodeLabel(const pass::pql::Node& node) const override {
    return inner_->NodeLabel(node);
  }

 private:
  const pass::pql::GraphSource* inner_;
};

struct RunResult {
  uint64_t rpc = 0;
  uint64_t req_bytes = 0;
  uint64_t resp_bytes = 0;
  uint64_t local_bytes = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  size_t rows = 0;
  bool matches_merged = false;
  // Warm phase: the same query re-run after ResetStats(), so these count
  // only the second pass — the cache's steady-state cost.
  uint64_t warm_rpc = 0;
  uint64_t warm_hits = 0;
};

// One cluster per (shards, depth): a lineage chain hopping shards
// round-robin, synced, then queried for the ancestry closure of every chain
// file. Each file's ancestry is a prefix of the tail's, so the rows are the
// tail's closure, and every closure re-walks ancestry an earlier one
// fetched: the shared work that frontier shipping and the portal cache
// exist to save. (A `name =` conjunct would bind the tail alone, one linear
// walk that neither mechanism can shorten.)
// `spread` stripes the chain over only the first `spread` shards (default
// all): the churn phase keeps the last shard chain-free so ingest there is
// pure foreign churn to every cached entry.
struct Fixture {
  explicit Fixture(int shards, int depth, int spread = 0) {
    if (spread == 0) {
      spread = shards;
    }
    ClusterOptions options;
    options.shards = shards;
    cluster = std::make_unique<ClusterCoordinator>(options);
    std::vector<pass::core::ObjectRef> refs;
    for (int i = 0; i < depth; ++i) {
      std::vector<pass::core::ObjectRef> sources;
      if (i > 0) {
        sources.push_back(refs.back());
      }
      auto ref = cluster->WriteWithLineage(i % spread, "/f" + std::to_string(i),
                                           std::string(256, 'd'), sources);
      PASS_CHECK(ref.ok());
      refs.push_back(*ref);
    }
    PASS_CHECK(cluster->Sync().ok());
    query =
        "select Ancestor from Provenance.file as F F.input* as Ancestor "
        "where F.name like \"/f*\"";
    auto merged = pass::cluster::MergedRows(*cluster, query);
    PASS_CHECK(merged.ok());
    want = *merged;
  }

  RunResult Query(size_t cache_bytes, bool per_node) {
    FederatedSource federated = cluster->Source(/*portal_shard=*/0,
                                                cache_bytes);
    PerNodeAdapter adapter(&federated);
    pass::pql::Engine engine(per_node
                                 ? static_cast<pass::pql::GraphSource*>(
                                       &adapter)
                                 : &federated);
    auto result = engine.Run(query);
    PASS_CHECK(result.ok());
    RunResult out;
    out.rpc = federated.stats().remote_ops;
    out.req_bytes = federated.stats().remote_request_bytes;
    out.resp_bytes = federated.stats().remote_response_bytes;
    out.local_bytes = federated.stats().local_bytes;
    out.hits = federated.stats().cache_hits;
    out.misses = federated.stats().cache_misses;
    out.evictions = federated.stats().cache_evictions;
    out.rows = result->rows.size();
    out.matches_merged = result->SortedRows() == want;
    // Phase boundary: zero the counters (the cache keeps its contents) and
    // run the identical query again — the warm numbers are the second
    // pass's alone, not a delta against cumulative totals.
    federated.ResetStats();
    auto warm = engine.Run(query);
    PASS_CHECK(warm.ok());
    PASS_CHECK(warm->SortedRows() == result->SortedRows());
    out.warm_rpc = federated.stats().remote_ops;
    out.warm_hits = federated.stats().cache_hits;
    return out;
  }

  std::unique_ptr<ClusterCoordinator> cluster;
  std::string query;
  std::vector<std::string> want;
};

struct ChurnResult {
  uint64_t entries_total = 0;  // entries the cold warm-up filled
  uint64_t fine_hits = 0;      // accumulated over the post-churn rounds
  uint64_t fine_misses = 0;
  uint64_t fine_invalidated = 0;
  uint64_t flush_hits = 0;
  uint64_t flush_misses = 0;
  uint64_t flush_full = 0;
  bool matches_merged = true;
  double miss_ratio() const {
    return static_cast<double>(flush_misses) /
           static_cast<double>(fine_misses == 0 ? 1 : fine_misses);
  }
};

// The churn phase: the chain lives on shards 0..shards-2, shard shards-1
// only absorbs ingest (new provenance rows on one /churn file) between
// query rounds.
// Two identically warmed portals answer each round — one with per-pnode
// stamp invalidation, one a whole-cache-flush FlushBaseline — and the
// accumulated misses measure how much of the cache each keeps.
ChurnResult RunChurnPhase(int shards, int depth, size_t cache_bytes,
                          int rounds) {
  Fixture fixture(shards, depth, /*spread=*/shards - 1);
  const int churn_shard = shards - 1;
  // One churn target, created before warm-up so the working set is fixed:
  // every round discloses fresh annotation rows onto it, mutating the churn
  // shard without growing the query's file universe.
  auto churn_ref = fixture.cluster->WriteWithLineage(
      churn_shard, "/churn", std::string(64, 'c'), {});
  PASS_CHECK(churn_ref.ok());
  pass::workloads::Machine& churn_machine =
      fixture.cluster->machine(churn_shard);
  pass::core::LibPass churn_lib =
      churn_machine.Lib(churn_machine.Spawn("churner"));
  PASS_CHECK(fixture.cluster->Sync().ok());

  FederatedSource fine = fixture.cluster->Source(/*portal_shard=*/0,
                                                 cache_bytes);
  pass::bench::FlushBaseline flush(fixture.cluster.get(), cache_bytes);
  pass::pql::Engine fine_engine(&fine);

  ChurnResult out;
  auto warm = fine_engine.Run(fixture.query);
  PASS_CHECK(warm.ok());
  PASS_CHECK(warm->SortedRows() == fixture.want);
  out.entries_total = fine.stats().cache_misses - fine.stats().cache_evictions;
  PASS_CHECK(flush.Run(fixture.query).ok());
  fine.ResetStats();
  flush.ResetStats();

  for (int round = 0; round < rounds; ++round) {
    // Steady foreign ingest: new (unique — ingest dedupes replays via
    // InsertUnique) annotation rows onto /churn. Only /churn's stamp moves,
    // so the fine source's collateral is the handful of /churn entries,
    // re-fetched once a round.
    for (int w = 0; w < 4; ++w) {
      PASS_CHECK(churn_lib
                     .WriteRef(*churn_ref,
                               {pass::core::Record::Annotation(
                                   "round", static_cast<int64_t>(
                                                round * 4 + w))})
                     .ok());
    }
    PASS_CHECK(fixture.cluster->Sync().ok());
    auto fine_result = fine_engine.Run(fixture.query);
    auto flush_result = flush.Run(fixture.query);
    PASS_CHECK(fine_result.ok() && flush_result.ok());
    out.matches_merged = out.matches_merged &&
                         fine_result->SortedRows() == fixture.want &&
                         flush_result->SortedRows() == fixture.want;
  }
  out.fine_hits = fine.stats().cache_hits;
  out.fine_misses = fine.stats().cache_misses;
  out.fine_invalidated = fine.stats().cache_entries_invalidated;
  out.flush_hits = flush.hits();
  out.flush_misses = flush.misses();
  out.flush_full = flush.full_flushes();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  int max_depth = argc > 1 ? std::atoi(argv[1]) : 96;
  PASS_CHECK(max_depth >= 4);

  std::printf("Figure 6: federated query frontier-shipping + portal result "
              "cache\n");
  std::printf("(ancestry closure over a cross-shard lineage chain; baseline "
              "= per-node routing, cache off)\n\n");
  std::printf("%6s %6s %9s | %9s %9s %9s %9s %7s %6s | %8s\n", "shards",
              "depth", "cache-KB", "base-RPC", "RPC", "rem-bytes", "loc-bytes",
              "hit%", "evict", "ratio");

  std::string csv =
      "csv,fig6,shards,depth,cache_kb,baseline_rpc,query_rpc,req_bytes,"
      "resp_bytes,local_bytes,hits,misses,evictions,hit_rate,ratio,rows,"
      "match,warm_rpc,warm_hits\n"
      "csv,fig6churn,shards,depth,rounds,entries_total,fine_hits,fine_misses,"
      "fine_invalidated,flush_hits,flush_misses,"
      "flush_full_flushes,miss_ratio,match\n";
  const int kShardCounts[] = {2, 4, 8};
  const int kDepths[] = {4, 16, 48, 96};
  const size_t kCacheBytes[] = {0, 2u << 10, 1u << 20};
  for (int shards : kShardCounts) {
    for (int depth : kDepths) {
      if (depth > max_depth) {
        continue;
      }
      Fixture fixture(shards, depth);
      // Baseline once per (shards, depth): per-node routing, cache off.
      RunResult baseline = fixture.Query(/*cache_bytes=*/0, /*per_node=*/true);
      PASS_CHECK(baseline.matches_merged);
      for (size_t cache_bytes : kCacheBytes) {
        RunResult r = fixture.Query(cache_bytes, /*per_node=*/false);
        PASS_CHECK(r.matches_merged);
        PASS_CHECK(r.rows == baseline.rows);
        double hit_rate = r.hits + r.misses == 0
                              ? 0.0
                              : static_cast<double>(r.hits) /
                                    static_cast<double>(r.hits + r.misses);
        double ratio = r.rpc == 0 ? 0.0
                                  : static_cast<double>(baseline.rpc) /
                                        static_cast<double>(r.rpc);
        std::printf("%6d %6d %9.1f | %9llu %9llu %9llu %9llu %6.1f%% %6llu | "
                    "%7.1fx\n",
                    shards, depth, cache_bytes / 1024.0,
                    (unsigned long long)baseline.rpc, (unsigned long long)r.rpc,
                    (unsigned long long)(r.req_bytes + r.resp_bytes),
                    (unsigned long long)r.local_bytes, 100 * hit_rate,
                    (unsigned long long)r.evictions, ratio);
        char line[320];
        std::snprintf(line, sizeof(line),
                      "csv,fig6,%d,%d,%.1f,%llu,%llu,%llu,%llu,%llu,%llu,%llu,"
                      "%llu,%.3f,%.2f,%zu,%s,%llu,%llu\n",
                      shards, depth, cache_bytes / 1024.0,
                      (unsigned long long)baseline.rpc,
                      (unsigned long long)r.rpc,
                      (unsigned long long)r.req_bytes,
                      (unsigned long long)r.resp_bytes,
                      (unsigned long long)r.local_bytes,
                      (unsigned long long)r.hits, (unsigned long long)r.misses,
                      (unsigned long long)r.evictions, hit_rate, ratio,
                      r.rows, r.matches_merged ? "yes" : "no",
                      (unsigned long long)r.warm_rpc,
                      (unsigned long long)r.warm_hits);
        csv += line;
        // The regression gate: deep closures on a real cluster with a full
        // cache must beat the per-node baseline by the gate factor.
        if (shards >= 4 && depth >= 48 && cache_bytes >= (1u << 20)) {
          PASS_CHECK(ratio >= kRpcReductionGate);
        }
      }
      // Churn phase (own fixture: the last shard stays chain-free). Skipped
      // at 2 shards, where a chain off the churn shard would be all-local.
      if (shards >= 4) {
        const int kChurnRounds = 6;
        ChurnResult churn =
            RunChurnPhase(shards, depth, /*cache_bytes=*/1u << 20,
                          kChurnRounds);
        PASS_CHECK(churn.matches_merged);
        std::printf("%6d %6d churn(x%d): entries=%llu invalidated=%llu "
                    "fine-miss=%llu flush-miss=%llu ratio=%.1fx\n",
                    shards, depth, kChurnRounds,
                    (unsigned long long)churn.entries_total,
                    (unsigned long long)churn.fine_invalidated,
                    (unsigned long long)churn.fine_misses,
                    (unsigned long long)churn.flush_misses,
                    churn.miss_ratio());
        char line[320];
        std::snprintf(line, sizeof(line),
                      "csv,fig6churn,%d,%d,%d,%llu,%llu,%llu,%llu,%llu,%llu,"
                      "%llu,%.2f,%s\n",
                      shards, depth, kChurnRounds,
                      (unsigned long long)churn.entries_total,
                      (unsigned long long)churn.fine_hits,
                      (unsigned long long)churn.fine_misses,
                      (unsigned long long)churn.fine_invalidated,
                      (unsigned long long)churn.flush_hits,
                      (unsigned long long)churn.flush_misses,
                      (unsigned long long)churn.flush_full,
                      churn.miss_ratio(),
                      churn.matches_merged ? "yes" : "no");
        csv += line;
        // Fine-grained invalidation drops only the churn file's own entries;
        // the flush baseline re-fetches the world every round. Deep
        // configurations gate the miss reduction.
        PASS_CHECK(churn.flush_full > 0);
        if (depth >= 48) {
          PASS_CHECK(churn.miss_ratio() >= kChurnMissReductionGate);
          PASS_CHECK(churn.fine_invalidated * 2 < churn.entries_total);
        }
      }
    }
    std::printf("\n");
  }
  std::fputs(csv.c_str(), stdout);
  std::printf("Frontier shipping turns each closure hop into one RPC per\n"
              "shard, and the portal cache answers re-walked ancestry\n"
              "locally: deep cross-shard closures beat per-node routing by\n"
              ">= %.0fx, dropping to the byte-bounded cache's floor as its\n"
              "budget shrinks, while every configuration still matches the\n"
              "merged single-database result.\n",
              kRpcReductionGate);
  return 0;
}
