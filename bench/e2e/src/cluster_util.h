#ifndef BENCH_E2E_SRC_CLUSTER_UTIL_H_
#define BENCH_E2E_SRC_CLUSTER_UTIL_H_

// Pieces the three cluster workloads share: query texts, the portal query
// call (plain and traced), the federated == merged oracle, and the counts
// read from the cluster's public accessors at the end of a pass.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "generator.h"
#include "harness.h"
#include "src/cluster/cluster.h"
#include "src/cluster/portal.h"
#include "src/pql/eval.h"
#include "src/pql/graph.h"
#include "src/pql/provdb_source.h"
#include "src/waldo/provdb.h"
#include "workload.h"

namespace e2e {

std::string LookupQuery(const std::string& path);
std::string AncestryQuery(const std::string& path);
std::string DescendantQuery(const std::string& path);
// Processes whose ancestry crosses a taint source.
extern const char kCrossTaintQuery[];
// Processes downstream of any taint source.
extern const char kTaintDescendantQuery[];
// Files annotated as taint sources.
extern const char kTaintFileQuery[];

// Distinct rows, sorted, one per line: the order-free form answers compare
// in.
std::string Canonical(const pass::pql::QueryResult& result);

// A GraphSource decorator that puts a "federated.*" span around every call
// into the wrapped source and totals its wall time, calls and rows.
class TracedSource : public pass::pql::GraphSource {
 public:
  TracedSource(const pass::pql::GraphSource* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  std::vector<pass::pql::Node> RootSet(const std::string& name) const override;
  std::vector<std::vector<pass::pql::Node>> FollowMany(
      const std::vector<pass::pql::Node>& nodes, const std::string& link,
      bool inverse) const override;
  std::vector<pass::pql::ValueSet> AttributeMany(
      const std::vector<pass::pql::Node>& nodes,
      const std::string& attr) const override;
  bool IsLink(const std::string& name) const override {
    return inner_->IsLink(name);
  }
  std::string NodeLabel(const pass::pql::Node& node) const override {
    return inner_->NodeLabel(node);
  }

  WallNs ns() const { return ns_; }
  uint64_t calls() const { return calls_; }
  uint64_t rows() const { return rows_; }

 private:
  void Account(WallNs start, size_t rows) const;

  const pass::pql::GraphSource* inner_;
  Tracer* tracer_;
  mutable WallNs ns_ = 0;
  mutable uint64_t calls_ = 0;
  mutable uint64_t rows_ = 0;
};

// One timed portal query, as a user issues it. Untraced, this is
// PortalSession::Run. Traced, it is the same sequence spelled out so each
// layer gets its span: RePin (kFresh only), Quiesce, ParseQuery, and
// Engine::Evaluate over a TracedSource around the session's source. The
// wall time (also returned in `elapsed`), the sim-clock latency and, when
// traced, the pql/federated split are recorded into `r`; the answer's
// canonical form is folded into its digest.
pass::Result<pass::pql::QueryResult> RunPortalQuery(
    pass::cluster::ClusterCoordinator& cluster,
    pass::cluster::PortalSession& session, const std::string& text,
    const pass::pql::QueryOptions& options, Tracer* tracer, PassResult* r,
    WallNs* elapsed);

// Answers from a single database holding every shard's owned entries.
class MergedOracle {
 public:
  explicit MergedOracle(const pass::cluster::ClusterCoordinator& cluster);
  MergedOracle(const MergedOracle&) = delete;
  MergedOracle& operator=(const MergedOracle&) = delete;

  // Canonical answer, evaluated once per distinct text; "" + error on
  // failure.
  const std::string& Answer(const std::string& text, std::string* error);

 private:
  pass::waldo::ProvDb db_;
  pass::pql::ProvDbSource source_{&db_};
  std::map<std::string, std::string> answers_;
};

// Federated (a fresh cluster Source) == merged for every text; returns the
// first mismatch, or "" when all agree.
std::string CheckFederatedEqualsMerged(
    pass::cluster::ClusterCoordinator& cluster,
    const std::vector<std::string>& texts);

// Every REPL_BATCH in every shard journal has its REPL_APPLIED mark.
std::string CheckBatchesAcked(pass::cluster::ClusterCoordinator& cluster);

// Counts, end-to-end totals and digest every cluster pass reports.
void FinishClusterPass(pass::cluster::ClusterCoordinator& cluster,
                       const AuditGen& gen, PassResult* r);

// A 4-shard cluster whose ClusterOptions.seed derives from the pass seed.
std::unique_ptr<pass::cluster::ClusterCoordinator> NewCluster(uint64_t seed,
                                                              Tracer* tracer);

// `count` sessions with `cache_bytes` each, spread round-robin over
// `tenants` tenants. A refused session fails the pass.
std::vector<pass::cluster::PortalHandle> OpenSessions(
    pass::cluster::PortalTier& tier, int count, size_t cache_bytes,
    int tenants, Tracer* tracer, PassResult* r);

// Each session's federated stats, for FederatedCounts.
std::vector<pass::cluster::FederatedStats> FederatedSnapshot(
    std::vector<pass::cluster::PortalHandle>& sessions);
// The sessions' federated work since `before`, summed into `counts`, with
// the cache hit ratio.
void FederatedCounts(const std::vector<pass::cluster::FederatedStats>& before,
                     std::vector<pass::cluster::PortalHandle>& sessions,
                     std::map<std::string, double>* counts);

// Sim-clock latencies of the timed portal queries, as p50/p99 counts.
void FinishQueryCounts(PassResult* r);

// Destroy the cluster under a span, so teardown is not harness time.
void DestroyCluster(std::unique_ptr<pass::cluster::ClusterCoordinator>* c,
                    Tracer* tracer);

}  // namespace e2e

#endif  // BENCH_E2E_SRC_CLUSTER_UTIL_H_
