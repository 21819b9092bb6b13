// Figure 3 (this repo's extension): the sharded provenance cluster.
//
// Sweeps shard count and cross-shard ingest batch size over an identical
// distributed-lineage workload, reporting replication round trips, bytes,
// and elapsed virtual time — the batching-vs-RTT tradeoff — then verifies
// that a federated ancestry query equals the merged single-database run.
//
// Each Sync() is followed by Quiesce(), so sync_s covers the journal write,
// every round trip, and every remote apply: the cost a caller pays when it
// waits for replication to finish. bench/fig8_pipeline_ingest measures what
// not waiting buys.

#include <cstdio>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/federated_source.h"
#include "src/pql/eval.h"
#include "src/util/logging.h"

namespace {

using pass::cluster::ClusterCoordinator;
using pass::cluster::ClusterOptions;
using pass::cluster::FederatedSource;

constexpr int kChainFiles = 96;  // cross-shard lineage chain length

struct RunResult {
  uint64_t recovered = 0;
  uint64_t replicated = 0;
  uint64_t round_trips = 0;
  uint64_t bytes_sent = 0;
  double sync_seconds = 0;
  double records_per_sec = 0;  // sustained ingest throughput over the sync
  uint64_t query_remote_ops = 0;
  uint64_t query_req_bytes = 0;    // remote request bytes
  uint64_t query_resp_bytes = 0;   // remote response bytes
  uint64_t query_local_bytes = 0;  // bytes served on the portal, no network
  uint64_t query_cache_hits = 0;
  size_t query_rows = 0;
  bool federated_matches_merged = false;
};

RunResult Run(int shards, size_t batch_records) {
  ClusterOptions options;
  options.shards = shards;
  options.ingest_batch_records = batch_records;
  ClusterCoordinator cluster(options);

  // Identical workload at every configuration: a lineage chain hopping
  // round-robin across the shards, so (shards-1)/shards of the edges cross
  // a machine boundary.
  std::vector<pass::core::ObjectRef> refs;
  for (int i = 0; i < kChainFiles; ++i) {
    int shard = i % shards;
    std::vector<pass::core::ObjectRef> sources;
    if (i > 0) {
      sources.push_back(refs.back());
    }
    auto ref = cluster.WriteWithLineage(shard, "/f" + std::to_string(i),
                                        std::string(512, 'd'), sources);
    PASS_CHECK(ref.ok());
    refs.push_back(*ref);
  }

  RunResult out;
  double before = cluster.env().clock().seconds();
  PASS_CHECK(cluster.Sync().ok());
  cluster.Quiesce();
  out.sync_seconds = cluster.env().clock().seconds() - before;
  out.recovered = cluster.entries_recovered();
  out.records_per_sec =
      out.sync_seconds == 0
          ? 0
          : static_cast<double>(out.recovered) / out.sync_seconds;
  out.replicated = cluster.ingest_stats().entries_replicated;
  out.round_trips = cluster.ingest_stats().batches_sent;
  out.bytes_sent = cluster.ingest_stats().bytes_sent;

  // Federated ancestry query from the chain tail, against the merged run.
  std::string query =
      "select Ancestor from Provenance.file as F F.input* as Ancestor "
      "where F.name = \"/f" +
      std::to_string(kChainFiles - 1) + "\"";
  FederatedSource federated = cluster.Source(/*portal_shard=*/0);
  pass::pql::Engine federated_engine(&federated);
  auto federated_result = federated_engine.Run(query);
  PASS_CHECK(federated_result.ok());

  out.query_rows = federated_result->rows.size();
  out.query_remote_ops = federated.stats().remote_ops;
  out.query_req_bytes = federated.stats().remote_request_bytes;
  out.query_resp_bytes = federated.stats().remote_response_bytes;
  out.query_local_bytes = federated.stats().local_bytes;
  out.query_cache_hits = federated.stats().cache_hits;
  auto merged = pass::cluster::MergedRows(cluster, query);
  PASS_CHECK(merged.ok());
  out.federated_matches_merged = federated_result->SortedRows() == *merged;
  return out;
}

}  // namespace

int main() {
  std::printf("Figure 3: sharded cluster — batched cross-shard ingest and "
              "federated PQL\n");
  std::printf("(workload: %d-file lineage chain hopping shards round-robin)\n\n",
              kChainFiles);
  std::printf("%6s %6s | %9s %10s %7s %9s %8s %8s | %9s %9s %9s %6s %6s "
              "%6s\n",
              "shards", "batch", "recovered", "replicated", "RTTs",
              "net-bytes", "sync-s", "rec/sec", "query-RPC", "q-remote",
              "q-local", "hits", "rows", "match");

  // Machine-readable mirror of the table (one line per configuration).
  std::string csv =
      "csv,fig3,shards,batch,recovered,replicated,rtts,net_bytes,sync_s,"
      "records_per_sec,query_rpc,query_req_bytes,query_resp_bytes,"
      "query_local_bytes,cache_hits,rows,match\n";
  const int kShardCounts[] = {1, 2, 4, 8};
  const size_t kBatchSizes[] = {1, 16, 64, 256};
  for (int shards : kShardCounts) {
    for (size_t batch : kBatchSizes) {
      RunResult r = Run(shards, batch);
      std::printf("%6d %6zu | %9llu %10llu %7llu %9llu %8.4f %8.0f | %9llu "
                  "%9llu %9llu %6llu %6zu %6s\n",
                  shards, batch, (unsigned long long)r.recovered,
                  (unsigned long long)r.replicated,
                  (unsigned long long)r.round_trips,
                  (unsigned long long)r.bytes_sent, r.sync_seconds,
                  r.records_per_sec, (unsigned long long)r.query_remote_ops,
                  (unsigned long long)(r.query_req_bytes + r.query_resp_bytes),
                  (unsigned long long)r.query_local_bytes,
                  (unsigned long long)r.query_cache_hits, r.query_rows,
                  r.federated_matches_merged ? "yes" : "NO");
      char line[320];
      std::snprintf(line, sizeof(line),
                    "csv,fig3,%d,%zu,%llu,%llu,%llu,%llu,%.4f,%.1f,%llu,%llu,"
                    "%llu,%llu,%llu,%zu,%s\n",
                    shards, batch, (unsigned long long)r.recovered,
                    (unsigned long long)r.replicated,
                    (unsigned long long)r.round_trips,
                    (unsigned long long)r.bytes_sent, r.sync_seconds,
                    r.records_per_sec, (unsigned long long)r.query_remote_ops,
                    (unsigned long long)r.query_req_bytes,
                    (unsigned long long)r.query_resp_bytes,
                    (unsigned long long)r.query_local_bytes,
                    (unsigned long long)r.query_cache_hits, r.query_rows,
                    r.federated_matches_merged ? "yes" : "no");
      csv += line;
      PASS_CHECK(r.federated_matches_merged);
      if (shards == 1) {
        break;  // no cross-shard traffic; batch size is irrelevant
      }
    }
    std::printf("\n");
  }
  std::fputs(csv.c_str(), stdout);
  std::printf("Batching amortizes the per-round-trip latency: at equal\n"
              "replicated record counts, RTTs drop ~batch-fold and sync time\n"
              "falls with them, while every federated ancestry query still\n"
              "matches the merged single-database result. The query-RPC\n"
              "column counts frontier-shipped RPCs (one per shard per hop)\n"
              "after the portal result cache; bench/fig6_query_cache sweeps\n"
              "that cache explicitly.\n");
  return 0;
}
