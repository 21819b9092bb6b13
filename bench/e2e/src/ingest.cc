// ingest: the cluster write path with every read layer idle.
//
// A pass builds a 4-shard cluster with default ClusterOptions (pipelined
// replication, batches of 64), seeds it, then runs kRounds generator rounds
// of 8 audit chains per shard, each ended by one Sync (the timed
// operation). History only grows within a pass, so the per-round cost
// against data size shows in the tail.

#include <memory>
#include <string>
#include <vector>

#include "cluster_util.h"
#include "generator.h"
#include "harness.h"
#include "workload.h"

namespace e2e {
namespace {

using pass::cluster::ClusterCoordinator;

constexpr int kChains = 8;
constexpr int kRounds = 250;

class IngestWorkload : public Workload {
 public:
  PassResult RunPass(uint64_t seed, const PassMode& mode) override {
    PassResult r;
    Tracer* tracer = mode.tracer;
    WallNs start = Now();
    std::unique_ptr<ClusterCoordinator> cluster = NewCluster(seed, tracer);
    AuditGen gen(cluster.get(), MixSeed(seed, 2), tracer);
    if (!gen.Seed().ok()) {
      r.Fail("seeding the cluster failed");
      return r;
    }
    r.setups.push_back(Now() - start);

    uint64_t events_before = gen.events();
    WallNs rounds_ns = 0;
    for (int round = 0; round < kRounds; ++round) {
      WallNs begin = Now();
      pass::Status status = gen.Chains(kChains);
      if (status.ok()) {
        status = gen.Sync();
        r.Sample("cluster.sync_ms", Ms(gen.last_sync_ns()));
      }
      WallNs elapsed = Now() - begin;
      r.ops.push_back(elapsed);
      r.Sample("ingest.round_ms", Ms(elapsed));
      rounds_ns += elapsed;
      if (!status.ok()) {
        ++r.failed;
      }
    }
    r.sums["ingest.events"] +=
        static_cast<double>(gen.events() - events_before);
    r.sums["ingest.round_ns"] += static_cast<double>(rounds_ns);

    FinishClusterPass(*cluster, gen, &r);
    if (mode.check) {
      Check(*cluster, gen, &r);
    }
    DestroyCluster(&cluster, tracer);
    return r;
  }

 private:
  // Off the clock: every journaled batch acked, and federated == merged on
  // a fixed sample of query shapes. The shapes avoid closures: a name-
  // filtered closure expands every file's closure first, which at this
  // history size exceeds the evaluator's binding limit. One-hop steps in
  // both directions still read every replicated edge kind.
  static void Check(ClusterCoordinator& cluster, AuditGen& gen,
                    PassResult* r) {
    std::string error = CheckBatchesAcked(cluster);
    if (!error.empty()) {
      r->Fail(error);
      return;
    }
    std::vector<std::string> texts = {kTaintFileQuery};
    const std::vector<OutputFile>& outputs = gen.outputs();
    for (size_t i = 1; i <= 4; ++i) {
      const std::string& path = outputs[outputs.size() * i / 4 - 1].path;
      texts.push_back(LookupQuery(path));
      texts.push_back(
          "select A.name from Provenance.file as F F.input as A "
          "where F.name = \"" + path + "\"");
    }
    texts.push_back(
        "select D.name from Provenance.file as T T.~input as D "
        "where T.taint = 1");
    error = CheckFederatedEqualsMerged(cluster, texts);
    if (!error.empty()) {
      r->Fail(error);
    }
  }
};

}  // namespace

std::unique_ptr<Workload> MakeIngest() {
  return std::make_unique<IngestWorkload>();
}

}  // namespace e2e
