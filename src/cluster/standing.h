#ifndef SRC_CLUSTER_STANDING_H_
#define SRC_CLUSTER_STANDING_H_

// StandingQueryTier: PQL queries registered once and kept fresh as audit
// events stream through cluster ingest.
//
// Each Refresh() reads what the rows written since the tier's cursor
// changed (ClusterCoordinator::FrontierSince over every shard's row feed):
// the new INPUT edges, the pnodes that gained attribute rows, and a catalog
// entry (latest version, every TYPE text, owner) for every pnode keying a
// new row; as in a from-scratch RootSet, a pnode is a member of the root
// set of each of its TYPE texts. Stored rows are keyed by the root binding
// that produced them (QueryOptions::attribute_roots), and each registered
// query brings its rows up to date one of three ways. The first two run
// the root filter (below) over their candidate roots before they walk or
// evaluate anything from them.
//
//   * Extension (semi-naive). A query whose FROM list is a root set plus
//     one `*` or `+` link step from it, and whose where/select read only
//     literals and attributes of those two variables (no not, exists,
//     aggregate, subquery or union), is extended by the delta. A root R
//     that reaches the tail of a new edge along the step and passes the
//     root filter is evaluated once, alone, through a view whose step out
//     of R returns only the heads of the new edges R reaches; R's new rows
//     are inserted and none erased.
//     Every binding the view finds is real, and every new binding's path
//     has a last new edge whose head the view returns, so the view finds
//     them all. Provenance only grows (the analyzer adds versions instead
//     of rewriting history, and migration moves rows without changing the
//     logical graph), so nothing an extended root stored goes stale.
//   * Replace. Roots an extension cannot cover are erased and re-evaluated
//     through a root-restricted view: for an extensible query, the roots
//     whose identity changed (a new pnode, a new latest version or another
//     set of TYPE texts) and the roots that reach a pnode which existed
//     before and gained attribute rows (AttributeMany reads every version
//     of a pnode, so such rows can change old bindings); for any other
//     query, every root that reaches a pnode keying a new row along the
//     link directions the query uses.
//   * Full re-evaluation, for shapes root restriction cannot cover: a
//     second Provenance-rooted FROM, a subquery, a Provenance-rooted path
//     in where/select (StandingStats::full_evals counts them).
//
// The root filter. A root conjunct is a top-level `and`-conjunct of where
// that reads only literals and attributes of the first FROM variable R.
// When R is bound to a bare Provenance.<set> that no later FROM item
// rebinds, at least one later item follows, the query has no union and it
// has root conjuncts, Register keeps the filter
//   select R from Provenance.<set> as R where <the root conjuncts>
// (in written order). Extension and replace evaluate it once over all of
// their candidate roots, erase the stored rows of every root that fails,
// and go on with the passing roots alone. Under Lorel's existential
// semantics a root conjunct has one value for all of a root's bindings, so
// a failing root contributes no row and the result stays exactly the
// from-scratch answer; the taint-descendant watchlist thus walks the new
// closures of its few taint sources only. Seed and full evaluations do not
// filter.
//
// Notifications come from the merges themselves: a row whose last
// contributing root goes, or whose first arrives, is remembered with
// whether it was present at the last commit, and the commit reports the
// rows present now that were not then.
//
// Freshness and fault model:
//   * Refresh() takes the cluster Quiesce() barrier, then evaluates against
//     the live ShardMap — read-your-writes over everything Sync() acked,
//     across migrations (feed rows are owner-attributed through the live
//     map, and a migration carries its range's unread rows along).
//   * The cursor, the catalog and the notifications commit together, only
//     after every query's merge succeeded. A failed or crashed refresh
//     leaves them behind: the next Refresh() re-reads a superset of the
//     delta, and its merges — extension inserts, replace erases and
//     re-inserts — are idempotent, so standing results converge to exactly
//     a from-scratch evaluation and no notification is lost or repeated.
//   * The first Refresh() reads a full publication (every owned pnode, no
//     feed), seeds the catalog and evaluates every query from scratch.
//
// Limits (EvalLimits) bound every evaluation the tier runs, and each
// evaluation covers only its own roots. A seed or a full re-evaluation
// fails wherever a from-scratch run would; a replace evaluation (the
// replaced roots' whole closures) or an extension evaluation (one root's
// closure beyond its new heads) can stay inside limits that a
// from-scratch run of the whole query exceeds. A root filter binds only
// candidate roots, each of which a from-scratch run binds too, so it
// fails only where that run would. A failed evaluation fails the
// Refresh() and commits nothing. The walk back from the delta that
// finds the affected roots is bounded by max_closure_nodes too; past it
// the query replaces every catalogued root that refresh
// (StandingStats::walk_overflows).
//
// Registration shares the unified pql::QueryOptions surface: limits bound
// every evaluation, trace_label tags the tier's spans/metrics, and the
// consistency mode must be kDefault or kFresh — a standing query pinned to
// a routing epoch would never observe new data, so kPinnedEpoch is
// rejected.

#include <algorithm>
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

// Steady state means every Refresh() cost except a query's first (seed)
// evaluation, which seed_rows_touched counts instead.
struct StandingStats {
  uint64_t refreshes = 0;
  // Catalog entries plus edges FrontierSince reported.
  uint64_t frontier_entries = 0;
  uint64_t frontier_rpcs = 0;      // publication exchanges charged
  uint64_t incremental_evals = 0;  // query refreshes by extension/replace
  uint64_t full_evals = 0;         // non-incremental fallback evaluations
  uint64_t affected_roots = 0;     // candidate roots extended or replaced
  // Walks back from the delta that outgrew EvalLimits::max_closure_nodes
  // and fell back to replacing every catalogued root that refresh.
  uint64_t walk_overflows = 0;
  // Steady state: rows read through the tier's MeteredSource (the walks
  // back from the delta included) plus root rows served from the catalog
  // — the cost fig11 compares with a naive full re-run...
  uint64_t rows_touched = 0;
  // ...the remote exchanges of the tier's FederatedSource (publication
  // exchanges are frontier_rpcs)...
  uint64_t eval_rpcs = 0;
  // ...and the calls made on the MeteredSource (MeteredSource::ops).
  uint64_t source_calls = 0;
  // The one-time cost of seeding each query's first evaluation.
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

  // Read the row feed since the cursor and bring every registered query up
  // to date with everything Sync() has acked. Returns the new matches.
  Result<std::vector<StandingNotification>> Refresh();

  // Current standing result of a query: distinct rows, sorted, under the
  // query's select columns — byte-for-byte comparable with a from-scratch
  // Engine::Run over the same cluster (after row-order normalization).
  Result<pql::QueryResult> ResultOf(uint64_t id) const;

  size_t query_count() const { return queries_.size(); }
  // Whether `id` runs the incremental path (false: full re-eval fallback).
  Result<bool> IsIncremental(uint64_t id) const;
  // Whether `id` is extended by the delta (false: replaced or re-evaluated).
  Result<bool> IsExtensible(uint64_t id) const;
  // Whether `id` has a root filter (see the header comment).
  Result<bool> IsRootFiltered(uint64_t id) const;

  const StandingStats& stats() const { return stats_; }
  const FederatedSource& source() const { return source_; }

 private:
  friend class RestrictedRootSource;

  struct CatalogEntry {
    core::Version version = 0;  // latest, per the owner, at last sighting
    std::vector<std::string> types;  // every TYPE text, ascending
    // Whether the pnode is in the root set of TYPE `type` ("" for object).
    bool InSet(const std::string& type) const {
      return type.empty() ||
             std::binary_search(types.begin(), types.end(), type);
    }
  };

  // What the Register-time AST walk decided.
  struct QueryShape {
    bool incremental = true;
    // Link-step directions the query uses (false = forward/ancestors,
    // true = inverse/descendants): the replace path's affected-root walk
    // follows each of them backwards.
    std::set<bool> directions;
    // The FROM list's one `*`/`+` step when the query is extensible (see
    // the header comment); null otherwise.
    const pql::PathStep* step = nullptr;
  };

  using RowKey = std::vector<std::string>;
  struct StoredRow {
    std::vector<pql::Value> values;
    size_t roots = 0;  // roots contributing the row
  };

  struct StandingQuery {
    uint64_t id = 0;
    std::string text;
    std::unique_ptr<pql::Query> ast;
    pql::QueryOptions options;
    QueryShape shape;
    // The root filter (see the header comment); null when it does not
    // apply.
    std::unique_ptr<pql::Query> filter;
    bool seeded = false;
    std::vector<std::string> columns;
    std::map<RowKey, StoredRow> rows;  // the distinct rows present
    std::map<core::PnodeId, std::set<RowKey>> keys_by_root;
    // Rows that appeared or went since the last commit -> whether each was
    // present at that commit.
    std::map<RowKey, bool> unreported;
  };

  // What one delta changed, as the committed catalog sees it.
  struct Changes {
    // New pnodes and pnodes whose latest version or TYPE moved.
    std::set<core::PnodeId> reidentified;
    // Catalogued pnodes that gained attribute rows.
    std::vector<const FrontierEntry*> attributed;
  };

  // Source cost counters, read at two points and subtracted.
  struct Cost {
    uint64_t calls = 0;
    uint64_t rows = 0;
    uint64_t rpcs = 0;
    Cost operator-(const Cost& other) const {
      return Cost{calls - other.calls, rows - other.rows, rpcs - other.rpcs};
    }
  };

  static void AnalyzeQuery(const pql::Query& query,
                           const pql::GraphSource* source, QueryShape* shape);
  static void AnalyzeExpr(const pql::Expr& expr,
                          const pql::GraphSource* source, QueryShape* shape);
  static void CollectPath(const pql::PathExpr& path,
                          const pql::GraphSource* source, QueryShape* shape);
  // The step to extend along if `query` has the extensible shape, else
  // null.
  static const pql::PathStep* ExtensionStep(const pql::Query& query,
                                            const pql::GraphSource* source);
  // The root filter of an analyzed query, pruned from a second parse of
  // its text; null when it does not apply.
  static Result<std::unique_ptr<pql::Query>> RootFilter(
      const StandingQuery& query, const pql::GraphSource* source);

  Cost Spent() const;
  // The catalog as this refresh sees it: the delta's entries over the
  // committed ones. Null for a pnode never published.
  const CatalogEntry* Catalogued(core::PnodeId pnode) const;
  // Every catalogued pnode (a walk overflow's replace set).
  std::set<core::PnodeId> Everything();

  // Bring one seeded, incremental query up to date with the delta.
  Status Update(StandingQuery* query, const FrontierDelta& delta,
                const Changes& changes);
  // The extension path (see the header comment).
  Status Extend(StandingQuery* query, const FrontierDelta& delta,
                const Changes& changes);
  // Roots a non-extensible query must replace: the delta pnodes plus
  // their closure walking every used link direction backwards.
  std::set<core::PnodeId> AffectedRoots(
      const StandingQuery& query, const std::vector<FrontierEntry>& delta);

  // Evaluate `query` over `roots` (restricted root sets, through the root
  // filter; every root when null) and replace those roots' rows with the
  // result.
  Status Replace(StandingQuery* query, const std::set<core::PnodeId>* roots);
  // Evaluate the query's root filter once over `roots`, erase the rows of
  // every root that fails it and leave the passing roots in `roots`. Does
  // nothing for a query without a filter.
  Status FilterRoots(StandingQuery* query, std::set<core::PnodeId>* roots);
  static Result<pql::QueryResult> Evaluate(const pql::Query& ast,
                                           const pql::QueryOptions& options,
                                           const pql::GraphSource* source);
  // Store a root-attributed result's rows (erasing nothing), and erase
  // every row one root contributed; both record what they change in
  // StandingQuery::unreported.
  static void Insert(StandingQuery* query, pql::QueryResult result);
  static void EraseRoot(StandingQuery* query, core::PnodeId root);

  ClusterCoordinator* cluster_;
  int portal_shard_;
  FederatedSource source_;  // live-map federated view, owned by the tier
  MeteredSource meter_;     // everything the tier reads goes through this
  FrontierCursor cursor_;   // advances only after a whole Refresh commits
  std::map<core::PnodeId, CatalogEntry> catalog_;  // as of cursor_
  std::map<core::PnodeId, CatalogEntry> updates_;  // this refresh's delta
  // Root rows served from the catalog during this refresh.
  uint64_t served_rows_ = 0;
  std::map<uint64_t, std::unique_ptr<StandingQuery>> queries_;
  uint64_t next_id_ = 1;
  StandingStats stats_;
};

}  // namespace pass::cluster

#endif  // SRC_CLUSTER_STANDING_H_
