#ifndef SRC_CLUSTER_STANDING_H_
#define SRC_CLUSTER_STANDING_H_

// StandingQueryTier: PQL queries registered once and kept fresh as audit
// events stream through cluster ingest.
//
// A registered query is re-evaluated *incrementally*: each Refresh() pulls
// the per-shard frontier of newly ingested pnodes (ClusterCoordinator::
// FrontierSince, piggybacked on ProvDb's per-range mutation buckets),
// computes the set of root bindings whose results could have changed — the
// frontier pnodes plus their closure backwards along the link directions
// the query actually uses — and re-runs the query over just those roots,
// through a root-restricted view of the tier's FederatedSource. Stored rows
// are keyed by the root binding that produced them (QueryOptions::
// attribute_roots), so the merge replaces exactly the affected roots' rows:
// matches appear, change, and retract without ever re-reading the
// unaffected part of the graph. Rows newly present after a merge are
// emitted as notifications.
//
// Freshness and fault model:
//   * Refresh() takes the cluster Quiesce() barrier, then evaluates against
//     the live ShardMap — read-your-writes over everything Sync() acked,
//     across migrations (frontier entries are owner-attributed through the
//     live map, so a range that moved mid-stream is re-read from its new
//     owner).
//   * The frontier cursor advances only after every query's merge commits.
//     A crash mid-refresh (sim::Env crash points) leaves the cursor
//     behind: after ClusterCoordinator::Recover(), the next Refresh()
//     re-reads a superset of the lost delta and the merges — erase the
//     affected roots, re-insert their rows — are idempotent, so standing
//     results converge to exactly a from-scratch evaluation. Notification
//     de-duplication commits on the same schedule (a crashed refresh
//     re-emits rather than drops).
//
// Queries the root-restriction argument cannot cover — a second
// Provenance-rooted FROM, a subquery, a Provenance-rooted path in where/
// select — register fine but fall back to full re-evaluation each refresh
// (StandingStats::full_evals counts them).
//
// Registration shares the unified pql::QueryOptions surface: limits bound
// every re-evaluation, trace_label tags the tier's spans/metrics, and the
// consistency mode must be kDefault or kFresh — a standing query pinned to
// a routing epoch would never observe new data, so kPinnedEpoch is
// rejected.

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/federated_source.h"
#include "src/pql/ast.h"
#include "src/pql/eval.h"
#include "src/util/result.h"

namespace pass::cluster {

// Counting decorator over any GraphSource: operations forwarded and result
// rows returned. The tier meters its incremental evaluations through one of
// these; bench/fig11 meters the naive full re-evaluation with the same
// ruler, so "rows touched" compares like with like.
class MeteredSource : public pql::GraphSource {
 public:
  explicit MeteredSource(const pql::GraphSource* inner) : inner_(inner) {}

  std::vector<pql::Node> RootSet(const std::string& name) const override {
    std::vector<pql::Node> out = inner_->RootSet(name);
    ++ops_;
    rows_ += out.size();
    return out;
  }
  std::vector<std::vector<pql::Node>> FollowMany(
      const std::vector<pql::Node>& nodes, const std::string& link,
      bool inverse) const override {
    auto out = inner_->FollowMany(nodes, link, inverse);
    ++ops_;
    for (const auto& edges : out) {
      rows_ += edges.size();
    }
    return out;
  }
  std::vector<pql::ValueSet> AttributeMany(
      const std::vector<pql::Node>& nodes,
      const std::string& attr) const override {
    auto out = inner_->AttributeMany(nodes, attr);
    ++ops_;
    for (const auto& values : out) {
      rows_ += values.size();
    }
    return out;
  }
  bool IsLink(const std::string& name) const override {
    return inner_->IsLink(name);
  }
  std::string NodeLabel(const pql::Node& node) const override {
    return inner_->NodeLabel(node);
  }

  uint64_t rows_touched() const { return rows_; }
  uint64_t ops() const { return ops_; }

 private:
  const pql::GraphSource* inner_;
  mutable uint64_t rows_ = 0;
  mutable uint64_t ops_ = 0;
};

// One new match: `row` appeared in `query_id`'s standing result this
// refresh (it was not present, or not yet reported, before).
struct StandingNotification {
  uint64_t query_id = 0;
  std::vector<pql::Value> row;
};

struct StandingStats {
  uint64_t refreshes = 0;
  uint64_t frontier_entries = 0;   // pnodes reported by FrontierSince
  uint64_t frontier_rpcs = 0;      // publication exchanges charged
  uint64_t incremental_evals = 0;  // delta-restricted re-evaluations
  uint64_t full_evals = 0;         // non-incremental fallback evaluations
  uint64_t affected_roots = 0;     // roots re-evaluated across refreshes
  // Affected-root walks that outgrew EvalLimits::max_closure_nodes and fell
  // back to re-evaluating every catalogued root that round.
  uint64_t walk_overflows = 0;
  // Result rows read from the source during steady-state refreshes (the
  // incremental cost fig11 gates against a naive full re-run)...
  uint64_t rows_touched = 0;
  uint64_t eval_rpcs = 0;
  // ...vs the one-time cost of seeding each query's first evaluation.
  uint64_t seed_rows_touched = 0;
  uint64_t notifications = 0;
};

class StandingQueryTier {
 public:
  explicit StandingQueryTier(
      ClusterCoordinator* cluster, int portal_shard = 0,
      size_t cache_bytes = FederatedSource::kDefaultCacheBytes);
  ~StandingQueryTier();

  StandingQueryTier(const StandingQueryTier&) = delete;
  StandingQueryTier& operator=(const StandingQueryTier&) = delete;

  // Parse and register a standing query. Its first results materialize on
  // the next Refresh() (the seed evaluation, metered separately). Rejects
  // Consistency::kPinnedEpoch (see header comment).
  Result<uint64_t> Register(std::string_view text,
                            pql::QueryOptions options = pql::QueryOptions());
  Status Unregister(uint64_t id);

  // Pull the ingest frontier and bring every registered query up to date
  // with everything Sync() has acked. Returns the new matches.
  Result<std::vector<StandingNotification>> Refresh();

  // Current standing result of a query: distinct rows, sorted, under the
  // query's select columns — byte-for-byte comparable with a from-scratch
  // Engine::Run over the same cluster (after row-order normalization).
  Result<pql::QueryResult> ResultOf(uint64_t id) const;

  size_t query_count() const { return queries_.size(); }
  // Whether `id` runs the incremental path (false: full re-eval fallback).
  Result<bool> IsIncremental(uint64_t id) const;

  const StandingStats& stats() const { return stats_; }
  const FederatedSource& source() const { return source_; }

 private:
  friend class RestrictedRootSource;

  struct CatalogEntry {
    core::Version version = 0;  // latest, per the owner, at last sighting
    std::string type;
  };

  // What the Register-time AST walk decided.
  struct QueryShape {
    bool incremental = true;
    // Link-step directions the query uses (false = forward/ancestors,
    // true = inverse/descendants): the affected-root closure walks each
    // of them backwards.
    std::set<bool> directions;
  };

  struct StandingQuery {
    uint64_t id = 0;
    std::string text;
    std::unique_ptr<pql::Query> ast;
    pql::QueryOptions options;
    QueryShape shape;
    bool seeded = false;
    std::vector<std::string> columns;
    // root pnode -> (row dedup key -> row): the rows that root contributed.
    std::map<core::PnodeId,
             std::map<std::vector<std::string>, std::vector<pql::Value>>>
        rows_by_root;
    // Row keys already reported as notifications (commits only when the
    // whole Refresh() succeeds).
    std::set<std::vector<std::string>> notified;
  };

  static void AnalyzeQuery(const pql::Query& query,
                           const pql::GraphSource* source, QueryShape* shape);
  static void AnalyzeExpr(const pql::Expr& expr,
                          const pql::GraphSource* source, QueryShape* shape);
  static void CollectPath(const pql::PathExpr& path,
                          const pql::GraphSource* source, QueryShape* shape);

  // Roots whose results may depend on the delta: the delta pnodes plus
  // their closure walking every used link direction backwards.
  Result<std::set<core::PnodeId>> AffectedRoots(
      const StandingQuery& query, const std::vector<FrontierEntry>& delta);

  // Re-evaluate `query` over `roots` (restricted root sets) and splice the
  // result into rows_by_root, replacing every affected root's rows.
  Status EvalAndMerge(StandingQuery* query,
                      const std::set<core::PnodeId>* roots, bool seed);

  ClusterCoordinator* cluster_;
  int portal_shard_;
  FederatedSource source_;   // live-map federated view, owned by the tier
  MeteredSource meter_;      // everything the tier reads goes through this
  FrontierSnapshot cursor_;  // advances only after a whole Refresh commits
  std::map<core::PnodeId, CatalogEntry> catalog_;
  std::map<uint64_t, std::unique_ptr<StandingQuery>> queries_;
  uint64_t next_id_ = 1;
  StandingStats stats_;
};

}  // namespace pass::cluster

#endif  // SRC_CLUSTER_STANDING_H_
