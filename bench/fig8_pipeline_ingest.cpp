// Figure 8 (this repo's extension): pipelined replication with
// group-committed journal appends.
//
// Sweeps shard count x per-round ingest size over an identical multi-round
// workload — each round writes a cross-shard lineage chain and Syncs — in
// two modes sharing one seed and one replication path:
//
//   * baseline: every Sync() is followed by Quiesce(), so each round waits
//     for every remote ack before the next round starts — what a caller
//     that needs replication finished before it proceeds pays. Its ack
//     latency is the round's Sync()+Quiesce() time;
//
//   * pipelined: Sync acks at the group-committed REPL_BATCH journal write
//     (one coalesced disk access for the whole drain) and ships on the
//     background async timeline, so the transfer time of round N hides
//     behind the foreground work of round N+1. The run ends with an
//     explicit Quiesce(), so the elapsed time is honest: nothing in flight
//     is left unaccounted.
//
// Reported per configuration: sustained ingest throughput (records/sec of
// simulated time, end-to-end including the closing quiesce), workload-ack
// latency p50/p99 (pipelined: enqueue -> durable ack; baseline: per-round
// Sync()+Quiesce()), the overlap fraction of background transfer time
// hidden behind foreground execution, and total wire bytes (replication +
// migration accounting via IngestStats).
//
// Three gates, all PASS_CHECKed (CI runs this binary):
//   1. Equivalence: at every configuration, in both modes, the federated
//      ancestry answer equals the merged single-database answer.
//   2. Overlap: the pipelined mode hides >= 80% of its background transfer
//      time at every configuration.
//   3. Throughput: pipelined sustained records/sec >= the quiesce-per-round
//      baseline at every configuration (same seed, same workload).
//
// Usage: fig8_pipeline_ingest [rounds]   (default 10; CI passes fewer)

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/obs/obs.h"
#include "src/util/logging.h"

namespace {

using pass::cluster::ClusterCoordinator;
using pass::cluster::ClusterOptions;

constexpr size_t kBatchRecords = 8;  // small batches: many journal appends

struct RunResult {
  uint64_t records = 0;        // log entries recovered into the shards
  double elapsed_s = 0;        // simulated seconds, quiesced end-to-end
  double records_per_sec = 0;  // sustained ingest throughput
  double ack_p50_us = 0;       // workload-ack latency (see header)
  double ack_p99_us = 0;
  double overlap = 0;          // fraction of transfer time hidden
  double async_busy_s = 0;     // background channel work scheduled
  double async_exposed_s = 0;  // of which charged at barriers/waits
  uint64_t group_commits = 0;  // coalesced journal writes
  uint64_t group_frames = 0;   // REPL_BATCH/APPLIED frames across them
  uint64_t rtts = 0;           // replication round trips
  uint64_t wire_bytes = 0;     // replication + migration payload bytes
  bool match = false;          // federated == merged
};

RunResult Run(int shards, int round_files, int rounds, bool pipelined) {
  ClusterOptions options;
  options.shards = shards;
  options.ingest_batch_records = kBatchRecords;
  ClusterCoordinator cluster(options);
  pass::obs::Histogram round_ns;  // baseline: per-round Sync()+Quiesce()

  // Identical multi-round workload: each round lays a lineage chain hopping
  // the shards round-robin — (shards-1)/shards of the edges cross a machine
  // boundary — then Syncs. Under pipelining, round N's transfers overlap
  // round N+1's foreground writes.
  int file = 0;
  std::vector<pass::core::ObjectRef> refs;
  for (int round = 0; round < rounds; ++round) {
    for (int i = 0; i < round_files; ++i, ++file) {
      int shard = file % shards;
      std::vector<pass::core::ObjectRef> sources;
      if (file > 0) {
        sources.push_back(refs.back());
      }
      auto ref = cluster.WriteWithLineage(shard, "/f" + std::to_string(file),
                                          std::string(512, 'd'), sources);
      PASS_CHECK(ref.ok());
      refs.push_back(*ref);
    }
    pass::sim::Nanos start = cluster.env().clock().now();
    PASS_CHECK(cluster.Sync().ok());
    if (!pipelined) {
      cluster.Quiesce();
      round_ns.Record(cluster.env().clock().now() - start);
    }
  }
  // Honest accounting: wait out every in-flight transfer before reading the
  // clock. The baseline already drained after its last round, so only the
  // pipelined run has a tail left to charge here.
  cluster.Quiesce();

  RunResult out;
  out.records = cluster.entries_recovered();
  out.elapsed_s = cluster.env().clock().seconds();
  out.records_per_sec =
      out.elapsed_s == 0 ? 0 : static_cast<double>(out.records) / out.elapsed_s;
  const pass::obs::Histogram& ack =
      pipelined ? cluster.env().obs().metrics().GetHistogram("ingest.ack_ns")
                : round_ns;
  out.ack_p50_us = ack.Quantile(0.5) / 1e3;
  out.ack_p99_us = ack.Quantile(0.99) / 1e3;
  const pass::sim::AsyncStats& async = cluster.replication_timeline().stats();
  out.overlap = async.overlap_fraction();
  out.async_busy_s = static_cast<double>(async.busy_ns) / 1e9;
  out.async_exposed_s = static_cast<double>(async.exposed_ns) / 1e9;
  out.group_commits = cluster.ingest_stats().group_commits;
  out.group_frames = cluster.ingest_stats().group_frames;
  out.rtts = cluster.ingest_stats().batches_sent;
  out.wire_bytes = cluster.ingest_stats().wire_bytes();

  // Gate 1: the pipelined view drifts from nothing — federated == merged.
  std::string query =
      "select Ancestor from Provenance.file as F F.input* as Ancestor "
      "where F.name = \"/f" +
      std::to_string(file - 1) + "\"";
  out.match = pass::cluster::CheckEquivalent(cluster, {query}).ok();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const int rounds = argc > 1 ? std::atoi(argv[1]) : 10;
  PASS_CHECK(rounds >= 2);  // overlap needs a next round to hide behind

  std::printf("Figure 8: pipelined replication + group-committed journal "
              "appends\n");
  std::printf("(multi-round cross-shard ingest, batch=%zu records, %d "
              "rounds; same seed per mode)\n\n",
              kBatchRecords, rounds);
  std::printf("%6s %6s %9s | %8s %8s %9s | %9s %9s %7s | %7s %7s %6s\n",
              "shards", "files", "mode", "records", "elapsed", "rec/sec",
              "ack-p50us", "ack-p99us", "overlap", "gcommit", "RTTs",
              "match");

  std::string csv =
      "csv,fig8,shards,round_files,mode,records,elapsed_s,records_per_sec,"
      "ack_p50_us,ack_p99_us,overlap,async_busy_s,async_exposed_s,"
      "group_commits,group_frames,rtts,wire_bytes,match\n";
  const int kShardCounts[] = {2, 4, 8};
  const int kRoundFiles[] = {8, 32};
  uint64_t total_group_commits = 0;
  uint64_t total_group_frames = 0;
  for (int shards : kShardCounts) {
    for (int round_files : kRoundFiles) {
      RunResult baseline = Run(shards, round_files, rounds, false);
      RunResult pipelined = Run(shards, round_files, rounds, true);
      const std::pair<const char*, const RunResult*> kModes[] = {
          {"baseline", &baseline}, {"pipelined", &pipelined}};
      for (const auto& [mode, r] : kModes) {
        std::printf("%6d %6d %9s | %8llu %7.4fs %9.0f | %9.1f %9.1f %6.1f%% "
                    "| %7llu %7llu %6s\n",
                    shards, round_files, mode,
                    (unsigned long long)r->records, r->elapsed_s,
                    r->records_per_sec, r->ack_p50_us, r->ack_p99_us,
                    r->overlap * 100.0, (unsigned long long)r->group_commits,
                    (unsigned long long)r->rtts, r->match ? "yes" : "NO");
        char line[384];
        std::snprintf(line, sizeof(line),
                      "csv,fig8,%d,%d,%s,%llu,%.6f,%.1f,%.1f,%.1f,%.4f,%.6f,"
                      "%.6f,%llu,%llu,%llu,%llu,%s\n",
                      shards, round_files, mode,
                      (unsigned long long)r->records, r->elapsed_s,
                      r->records_per_sec, r->ack_p50_us, r->ack_p99_us,
                      r->overlap, r->async_busy_s, r->async_exposed_s,
                      (unsigned long long)r->group_commits,
                      (unsigned long long)r->group_frames,
                      (unsigned long long)r->rtts,
                      (unsigned long long)r->wire_bytes,
                      r->match ? "yes" : "no");
        csv += line;
        PASS_CHECK(r->match);
      }
      // Gate 2: >= 80% of the pipelined transfer time hides behind the
      // foreground. Gate 3: pipelining never loses throughput.
      PASS_CHECK(pipelined.overlap >= 0.8);
      PASS_CHECK(pipelined.records_per_sec >= baseline.records_per_sec);
      total_group_commits += pipelined.group_commits;
      total_group_frames += pipelined.group_frames;
    }
    std::printf("\n");
  }
  // Group commit is doing its job across the sweep: strictly fewer journal
  // disk writes than journaled frames.
  PASS_CHECK(total_group_frames > total_group_commits);
  std::fputs(csv.c_str(), stdout);
  std::printf(
      "Pipelining acks each Sync at one group-committed journal write and\n"
      "ships replication on a background channel the next round's foreground\n"
      "work hides; the closing Quiesce() charges only the uncovered tail.\n"
      "The baseline waits out every round's transfers before the next round\n"
      "starts. Same seed, same records, identical federated answers.\n");
  return 0;
}
