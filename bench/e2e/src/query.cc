// query: read-only portal traffic while ingest is idle.
//
// Set-up builds a 4-shard cluster holding 12 generator rounds of 8 chains
// per shard plus a 96-deep cross-shard lineage chain. That dataset comes
// from a fixed generator seed, like a database benchmark's fixed load
// phase: a closure's cost depends on the shape of the whole graph, which
// varies by ±10% between generator seeds. The pass seed drives the traffic:
// which outputs and taint sources are queried, and in what order.
//
// Set-up then opens 4 portal sessions (2 tenants) with 64 KiB caches each:
// smaller than one closure's working set, so the cache churns. Each session
// runs each query shape once, untimed, before timing starts. The timed load
// is 100 queries in a seeded order, round-robin over the sessions:
//
//   65% name lookup of a random output      (p50 falls here)
//   15% input* ancestry of a random output  (p90 falls in the closures)
//   10% ~input* descendants of a taint source
//    5% ancestry of the deep chain's tail
//    5% processes whose ancestry crosses taint

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster_util.h"
#include "generator.h"
#include "harness.h"
#include "src/cluster/portal.h"
#include "src/util/strings.h"
#include "workload.h"

namespace e2e {
namespace {

using pass::cluster::ClusterCoordinator;
using pass::cluster::PortalHandle;

constexpr uint64_t kDatasetSeed = 0x5eed;
constexpr int kSetupRounds = 12;
constexpr int kChains = 8;
constexpr int kChainDepth = 96;
constexpr int kSessions = 4;
constexpr size_t kSessionCache = 64 * 1024;
// Queries per pass by kind: lookups, ancestry, taint descendants, deep
// chain ancestry, processes crossing taint.
constexpr int kMix[5] = {65, 15, 10, 5, 5};

class QueryWorkload : public Workload {
 public:
  PassResult RunPass(uint64_t seed, const PassMode& mode) override {
    PassResult r;
    Tracer* tracer = mode.tracer;
    WallNs start = Now();
    std::unique_ptr<ClusterCoordinator> cluster = NewCluster(seed, tracer);
    AuditGen gen(cluster.get(), kDatasetSeed, tracer);
    pass::Status status = gen.Seed();
    for (int round = 0; status.ok() && round < kSetupRounds; ++round) {
      status = gen.Chains(kChains);
      if (status.ok()) {
        status = gen.Sync();
      }
    }
    if (status.ok()) {
      status = gen.LineageChain(kChainDepth);
    }
    if (!status.ok()) {
      r.Fail("query set-up failed: " + status.ToString());
      DestroyCluster(&cluster, tracer);
      return r;
    }

    std::vector<std::string> texts;
    std::vector<std::string> shapes;
    {
      Gen g(MixSeed(seed, 2));
      const std::vector<OutputFile>& outputs = gen.outputs();
      const std::vector<std::string> taint = gen.TaintSources();
      std::string tail = pass::StrFormat("/chain/%d", kChainDepth - 1);
      auto random_output = [&] {
        return outputs[g.Below(outputs.size())].path;
      };
      // The mix is exact per pass, in a seeded order: a drawn mix would
      // let the share of closures, and with it every timing, vary by seed.
      std::vector<int> kinds;
      for (int kind = 0; kind < 5; ++kind) {
        kinds.insert(kinds.end(), kMix[kind], kind);
      }
      for (size_t i = kinds.size() - 1; i > 0; --i) {
        std::swap(kinds[i], kinds[g.Below(i + 1)]);
      }
      for (int kind : kinds) {
        switch (kind) {
          case 0:
            texts.push_back(LookupQuery(random_output()));
            break;
          case 1:
            texts.push_back(AncestryQuery(random_output()));
            break;
          case 2:
            texts.push_back(DescendantQuery(taint[g.Below(taint.size())]));
            break;
          case 3:
            texts.push_back(AncestryQuery(tail));
            break;
          default:
            texts.push_back(kCrossTaintQuery);
        }
      }
      shapes = {LookupQuery(random_output()), AncestryQuery(random_output()),
                DescendantQuery(taint.front()), AncestryQuery(tail),
                kCrossTaintQuery};
    }

    std::map<std::string, std::vector<std::string>> answers;
    {
      pass::cluster::PortalTier tier(cluster.get());
      std::vector<PortalHandle> sessions = OpenSessions(
          tier, kSessions, kSessionCache, /*tenants=*/2, tracer, &r);
      PassResult warm;  // warm-up answers are not part of the pass digest
      for (PortalHandle& session : sessions) {
        for (const std::string& text : shapes) {
          WallNs ignored = 0;
          (void)RunPortalQuery(*cluster, *session, text, {}, tracer, &warm,
                               &ignored);
        }
      }
      r.setups.push_back(Now() - start);

      std::vector<pass::cluster::FederatedStats> before =
          FederatedSnapshot(sessions);
      for (size_t i = 0; i < texts.size() && !sessions.empty(); ++i) {
        PortalHandle& session = sessions[i % sessions.size()];
        WallNs elapsed = 0;
        auto result = RunPortalQuery(*cluster, *session, texts[i], {}, tracer,
                                     &r, &elapsed);
        r.ops.push_back(elapsed);
        if (!result.ok()) {
          ++r.failed;
        } else if (mode.check) {
          answers[texts[i]].push_back(Canonical(*result));
        }
      }
      FederatedCounts(before, sessions, &r.counts);
      Span span(tracer, "portal.close");
      sessions.clear();
    }
    FinishQueryCounts(&r);
    FinishClusterPass(*cluster, gen, &r);

    if (mode.check) {
      // Every answer equals the merged-database answer for its text.
      MergedOracle oracle(*cluster);
      for (const auto& [text, got] : answers) {
        std::string error;
        const std::string& want = oracle.Answer(text, &error);
        for (const std::string& answer : got) {
          if (!error.empty() || answer != want) {
            r.Fail("federated != merged: " + text);
          }
        }
      }
    }
    DestroyCluster(&cluster, tracer);
    return r;
  }
};

}  // namespace

std::unique_ptr<Workload> MakeQuery() {
  return std::make_unique<QueryWorkload>();
}

}  // namespace e2e
