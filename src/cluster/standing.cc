#include "src/cluster/standing.h"

#include <algorithm>
#include <utility>

#include "src/obs/trace.h"
#include "src/pql/parser.h"
#include "src/pql/provdb_source.h"

namespace pass::cluster {

// The view an incremental evaluation reads. RootSet answers from the
// tier's frontier catalog, filtered to `roots` — no scatter-gather over the
// shards — while every other operation flows through the tier's metered
// federated source. The catalog's (version, types) entries are maintained
// from frontier deltas, so the restricted root set is exactly what
// FederatedSource::RootSet would return for the same pnodes.
//
// An extension evaluation also redirects one hop: the step out of `root`
// returns only `heads`, the heads of the new edges the root reaches, and
// the closure beyond them is the real one. The evaluator expands a visited
// node once, so the redirect applies to the root's own first hop only;
// that is why each extended root gets an evaluation of its own (inside
// another root's closure, the root must answer with its real links).
class RestrictedRootSource : public pql::GraphSource {
 public:
  RestrictedRootSource(const pql::GraphSource* inner,
                       const StandingQueryTier* tier,
                       const std::set<core::PnodeId>* roots)
      : inner_(inner), tier_(tier), roots_(roots) {}
  RestrictedRootSource(const pql::GraphSource* inner,
                       const StandingQueryTier* tier,
                       const std::set<core::PnodeId>* roots, pql::Node root,
                       const pql::PathStep* step,
                       const std::vector<pql::Node>* heads)
      : inner_(inner),
        tier_(tier),
        roots_(roots),
        root_(root),
        step_(step),
        heads_(heads) {}

  std::vector<pql::Node> RootSet(const std::string& name) const override {
    std::vector<pql::Node> out;
    std::string type = name == "object" ? "" : pql::RootSetTypeName(name);
    for (core::PnodeId pnode : *roots_) {
      const StandingQueryTier::CatalogEntry* entry = tier_->Catalogued(pnode);
      if (entry == nullptr) {
        continue;  // never ingested: cannot be a root
      }
      if (!entry->InSet(type)) {
        continue;
      }
      out.push_back(pql::Node{pnode, entry->version});
    }
    emitted_ += out.size();
    return out;
  }
  std::vector<std::vector<pql::Node>> FollowMany(
      const std::vector<pql::Node>& nodes, const std::string& link,
      bool inverse) const override {
    if (heads_ == nullptr || link != step_->name ||
        inverse != step_->inverse) {
      return inner_->FollowMany(nodes, link, inverse);
    }
    std::vector<std::vector<pql::Node>> out(nodes.size());
    std::vector<pql::Node> rest;
    std::vector<size_t> at;
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i] == root_) {
        out[i] = *heads_;
      } else {
        rest.push_back(nodes[i]);
        at.push_back(i);
      }
    }
    if (!rest.empty()) {
      std::vector<std::vector<pql::Node>> read =
          inner_->FollowMany(rest, link, inverse);
      for (size_t i = 0; i < at.size(); ++i) {
        out[at[i]] = std::move(read[i]);
      }
    }
    return out;
  }
  std::vector<pql::ValueSet> AttributeMany(
      const std::vector<pql::Node>& nodes,
      const std::string& attr) const override {
    return inner_->AttributeMany(nodes, attr);
  }
  bool IsLink(const std::string& name) const override {
    return inner_->IsLink(name);
  }
  std::string NodeLabel(const pql::Node& node) const override {
    return inner_->NodeLabel(node);
  }

  // Root rows served from the catalog (part of the incremental cost).
  uint64_t emitted() const { return emitted_; }

 private:
  const pql::GraphSource* inner_;
  const StandingQueryTier* tier_;
  const std::set<core::PnodeId>* roots_;
  pql::Node root_;
  const pql::PathStep* step_ = nullptr;
  const std::vector<pql::Node>* heads_ = nullptr;
  mutable uint64_t emitted_ = 0;
};

namespace {

// True if `expr` reads nothing but literals and the nodes or attributes of
// `variables`, combined by and/or and comparisons.
bool ReadsOnlyAttributes(const pql::Expr& expr,
                         const std::set<std::string>& variables,
                         const pql::GraphSource* source) {
  switch (expr.kind) {
    case pql::Expr::Kind::kLiteral:
      return true;
    case pql::Expr::Kind::kPath: {
      const pql::PathExpr& path = expr.path;
      if (path.from_provenance || variables.count(path.variable) == 0) {
        return false;
      }
      if (path.steps.empty()) {
        return true;
      }
      const pql::PathStep& step = path.steps.front();
      return path.steps.size() == 1 && step.closure == pql::Closure::kOne &&
             !step.inverse && !source->IsLink(step.name);
    }
    case pql::Expr::Kind::kBinary:
      return ReadsOnlyAttributes(*expr.lhs, variables, source) &&
             ReadsOnlyAttributes(*expr.rhs, variables, source);
    default:
      return false;  // not, exists, aggregates and subqueries
  }
}

// Prunes the top-level `and`-conjuncts of `*expr` that read anything but
// literals and attributes of `variables`, keeping the others in written
// order; null when none is left.
void KeepConjunctsReading(std::unique_ptr<pql::Expr>* expr,
                          const std::set<std::string>& variables,
                          const pql::GraphSource* source) {
  pql::Expr& conjunction = **expr;
  if (conjunction.kind != pql::Expr::Kind::kBinary ||
      conjunction.op != pql::BinOp::kAnd) {
    if (!ReadsOnlyAttributes(conjunction, variables, source)) {
      expr->reset();
    }
    return;
  }
  KeepConjunctsReading(&conjunction.lhs, variables, source);
  KeepConjunctsReading(&conjunction.rhs, variables, source);
  if (conjunction.lhs == nullptr || conjunction.rhs == nullptr) {
    *expr = std::move(conjunction.lhs != nullptr ? conjunction.lhs
                                                 : conjunction.rhs);
  }
}

}  // namespace

StandingQueryTier::StandingQueryTier(ClusterCoordinator* cluster,
                                     int portal_shard, size_t cache_bytes)
    : cluster_(cluster),
      portal_shard_(portal_shard),
      source_(cluster->shard_dbs(), &cluster->network(), &cluster->shard_map(),
              portal_shard, cache_bytes, &cluster->env().obs()),
      meter_(&source_) {
  // cursor_ starts without a feed: the first Refresh reads a full
  // publication and seeds the catalog with the cluster's whole population.
}

StandingQueryTier::~StandingQueryTier() { cluster_->CloseFrontier(&cursor_); }

// ---- Register-time AST analysis ---------------------------------------------

void StandingQueryTier::CollectPath(const pql::PathExpr& path,
                                    const pql::GraphSource* source,
                                    QueryShape* shape) {
  for (const pql::PathStep& step : path.steps) {
    if (source->IsLink(step.name)) {
      shape->directions.insert(step.inverse);
    }
  }
}

void StandingQueryTier::AnalyzeExpr(const pql::Expr& expr,
                                    const pql::GraphSource* source,
                                    QueryShape* shape) {
  switch (expr.kind) {
    case pql::Expr::Kind::kLiteral:
      return;
    case pql::Expr::Kind::kPath:
      // A Provenance-rooted path inside where/select sees the whole root
      // set, which root restriction would silently shrink.
      if (expr.path.from_provenance) {
        shape->incremental = false;
      }
      CollectPath(expr.path, source, shape);
      return;
    case pql::Expr::Kind::kNot:
      AnalyzeExpr(*expr.lhs, source, shape);
      return;
    case pql::Expr::Kind::kExists:
      if (expr.subquery != nullptr) {
        shape->incremental = false;
        return;
      }
      AnalyzeExpr(*expr.lhs, source, shape);
      return;
    case pql::Expr::Kind::kAggregate:
      if (expr.subquery != nullptr) {
        shape->incremental = false;
        return;
      }
      AnalyzeExpr(*expr.lhs, source, shape);
      return;
    case pql::Expr::Kind::kSubquery:
      // Subqueries re-root at Provenance internally and carry their own
      // count/dedup semantics; always safe, never incremental.
      shape->incremental = false;
      return;
    case pql::Expr::Kind::kBinary:
      AnalyzeExpr(*expr.lhs, source, shape);
      AnalyzeExpr(*expr.rhs, source, shape);
      return;
  }
}

void StandingQueryTier::AnalyzeQuery(const pql::Query& query,
                                     const pql::GraphSource* source,
                                     QueryShape* shape) {
  // Root restriction replaces exactly froms[0]'s Provenance root set (per
  // union branch); any other Provenance-rooted binding would be shrunk
  // unsoundly.
  if (query.froms.empty() || !query.froms.front().path.from_provenance) {
    shape->incremental = false;
  }
  for (size_t i = 0; i < query.froms.size(); ++i) {
    if (i > 0 && query.froms[i].path.from_provenance) {
      shape->incremental = false;
    }
    CollectPath(query.froms[i].path, source, shape);
  }
  for (const pql::SelectItem& item : query.selects) {
    AnalyzeExpr(item.expr, source, shape);
  }
  if (query.where != nullptr) {
    AnalyzeExpr(*query.where, source, shape);
  }
  if (query.union_with != nullptr) {
    AnalyzeQuery(*query.union_with, source, shape);
  }
}

const pql::PathStep* StandingQueryTier::ExtensionStep(
    const pql::Query& query, const pql::GraphSource* source) {
  if (query.union_with != nullptr || query.froms.size() != 2) {
    return nullptr;
  }
  const pql::FromItem& root = query.froms[0];
  const pql::FromItem& reached = query.froms[1];
  if (!root.path.from_provenance || !root.path.steps.empty() ||
      reached.path.from_provenance || reached.path.variable != root.variable ||
      reached.variable == root.variable || reached.path.steps.size() != 1) {
    return nullptr;
  }
  const pql::PathStep& step = reached.path.steps.front();
  if ((step.closure != pql::Closure::kStar &&
       step.closure != pql::Closure::kPlus) ||
      !source->IsLink(step.name)) {
    return nullptr;
  }
  std::set<std::string> variables = {root.variable, reached.variable};
  for (const pql::SelectItem& item : query.selects) {
    if (!ReadsOnlyAttributes(item.expr, variables, source)) {
      return nullptr;
    }
  }
  if (query.where != nullptr &&
      !ReadsOnlyAttributes(*query.where, variables, source)) {
    return nullptr;
  }
  return &step;
}

Result<std::unique_ptr<pql::Query>> StandingQueryTier::RootFilter(
    const StandingQuery& query, const pql::GraphSource* source) {
  const pql::Query& ast = *query.ast;
  if (!query.shape.incremental || ast.union_with != nullptr ||
      ast.froms.size() < 2 || ast.where == nullptr) {
    return std::unique_ptr<pql::Query>();
  }
  const pql::FromItem& root = ast.froms.front();
  if (!root.path.from_provenance || !root.path.steps.empty() ||
      std::any_of(ast.froms.begin() + 1, ast.froms.end(),
                  [&](const pql::FromItem& item) {
                    return item.variable == root.variable;
                  })) {
    return std::unique_ptr<pql::Query>();
  }
  // Prune a second parse down to `select R from Provenance.<set> as R
  // where <the root conjuncts>`.
  PASS_ASSIGN_OR_RETURN(std::unique_ptr<pql::Query> filter,
                        pql::ParseQuery(query.text));
  KeepConjunctsReading(&filter->where, {root.variable}, source);
  if (filter->where == nullptr) {
    return std::unique_ptr<pql::Query>();
  }
  filter->froms.resize(1);
  filter->selects.clear();
  pql::SelectItem& item = filter->selects.emplace_back();
  item.expr.kind = pql::Expr::Kind::kPath;
  item.expr.path.variable = root.variable;
  return filter;
}

// ---- Registration -----------------------------------------------------------

Result<uint64_t> StandingQueryTier::Register(std::string_view text,
                                             pql::QueryOptions options) {
  if (options.consistency == pql::Consistency::kPinnedEpoch) {
    return InvalidArgument(
        "standing queries are always fresh: a pinned-epoch registration "
        "would never observe new ingest");
  }
  PASS_ASSIGN_OR_RETURN(std::unique_ptr<pql::Query> ast,
                        pql::ParseQuery(text));
  auto query = std::make_unique<StandingQuery>();
  query->id = next_id_++;
  query->text = std::string(text);
  query->ast = std::move(ast);
  query->options = std::move(options);
  AnalyzeQuery(*query->ast, &source_, &query->shape);
  if (query->shape.incremental) {
    query->shape.step = ExtensionStep(*query->ast, &source_);
  }
  PASS_ASSIGN_OR_RETURN(query->filter, RootFilter(*query, &source_));
  uint64_t id = query->id;
  queries_.emplace(id, std::move(query));
  return id;
}

Status StandingQueryTier::Unregister(uint64_t id) {
  if (queries_.erase(id) == 0) {
    return NotFound("no such standing query");
  }
  return Status::Ok();
}

Result<bool> StandingQueryTier::IsIncremental(uint64_t id) const {
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return NotFound("no such standing query");
  }
  return it->second->shape.incremental;
}

Result<bool> StandingQueryTier::IsExtensible(uint64_t id) const {
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return NotFound("no such standing query");
  }
  return it->second->shape.step != nullptr;
}

Result<bool> StandingQueryTier::IsRootFiltered(uint64_t id) const {
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return NotFound("no such standing query");
  }
  return it->second->filter != nullptr;
}

// ---- Refresh ----------------------------------------------------------------

StandingQueryTier::Cost StandingQueryTier::Spent() const {
  return Cost{meter_.ops(), meter_.rows_touched(), source_.stats().remote_ops};
}

const StandingQueryTier::CatalogEntry* StandingQueryTier::Catalogued(
    core::PnodeId pnode) const {
  auto update = updates_.find(pnode);
  if (update != updates_.end()) {
    return &update->second;
  }
  auto it = catalog_.find(pnode);
  return it == catalog_.end() ? nullptr : &it->second;
}

std::set<core::PnodeId> StandingQueryTier::Everything() {
  ++stats_.walk_overflows;
  std::set<core::PnodeId> all;
  for (const auto& [pnode, unused] : catalog_) {
    all.insert(pnode);
  }
  for (const auto& [pnode, unused] : updates_) {
    all.insert(pnode);
  }
  return all;
}

std::set<core::PnodeId> StandingQueryTier::AffectedRoots(
    const StandingQuery& query, const std::vector<FrontierEntry>& delta) {
  std::set<core::PnodeId> affected;
  std::set<pql::Node> visited;
  std::vector<pql::Node> frontier;
  for (const FrontierEntry& entry : delta) {
    affected.insert(entry.pnode);
    // Edges attach per version: walk out of every known version of the
    // changed pnode, not just the latest.
    const waldo::ProvDb& db = cluster_->shard_db(entry.shard);
    for (core::Version version : db.VersionsOf(entry.pnode)) {
      pql::Node node{entry.pnode, version};
      if (visited.insert(node).second) {
        frontier.push_back(node);
      }
    }
  }
  if (affected.size() > query.options.limits.max_closure_nodes) {
    return Everything();
  }
  // Closure: a root R is affected if R reaches a delta node along the
  // query's traversal directions, i.e. the delta reaches R walking each
  // used direction backwards. Mixed-direction paths are covered by
  // expanding every reversed direction at every level.
  while (!frontier.empty()) {
    std::vector<pql::Node> next;
    for (bool inverse : query.shape.directions) {
      for (const auto& nodes : meter_.FollowMany(frontier, "input", !inverse)) {
        for (const pql::Node& node : nodes) {
          if (visited.insert(node).second) {
            next.push_back(node);
            affected.insert(node.pnode);
          }
        }
      }
    }
    if (affected.size() > query.options.limits.max_closure_nodes) {
      return Everything();
    }
    frontier = std::move(next);
  }
  return affected;
}

Status StandingQueryTier::Extend(StandingQuery* query,
                                 const FrontierDelta& delta,
                                 const Changes& changes) {
  const pql::PathStep& step = *query->shape.step;
  // The new edges as the step reads them: a forward step follows forward
  // rows from subject to ancestor, an inverse step reverse rows from
  // ancestor to subject.
  std::map<pql::Node, std::vector<pql::Node>> heads_of;  // tail -> heads
  for (const FrontierEdge& edge : delta.edges) {
    if (step.inverse ? edge.reverse : edge.forward) {
      pql::Node tail = step.inverse ? edge.ancestor : edge.subject;
      pql::Node head = step.inverse ? edge.subject : edge.ancestor;
      heads_of[tail].push_back(head);
    }
  }

  // Walk back along the step from the tails and from every version of each
  // pnode that gained attribute rows, keeping each node's successors: the
  // walked graph holds every path from a root to a tail or changed node.
  struct Slot {
    pql::Node node;
    std::vector<size_t> next;  // successors along the step
    bool changed = false;      // a version of a pnode with new attributes
  };
  std::vector<Slot> slots;
  std::map<pql::Node, size_t> slot_of;
  std::vector<size_t> frontier;
  auto visit = [&](const pql::Node& node) {
    auto [it, added] = slot_of.emplace(node, slots.size());
    if (added) {
      slots.push_back(Slot{node, {}, false});
      frontier.push_back(it->second);
    }
    return it->second;
  };
  for (const auto& [tail, heads] : heads_of) {
    visit(tail);
  }
  for (const FrontierEntry* entry : changes.attributed) {
    const waldo::ProvDb& db = cluster_->shard_db(entry->shard);
    for (core::Version version : db.VersionsOf(entry->pnode)) {
      slots[visit(pql::Node{entry->pnode, version})].changed = true;
    }
  }
  const size_t limit = query->options.limits.max_closure_nodes;
  std::set<core::PnodeId> replaced = changes.reidentified;
  bool overflow = slots.size() > limit;
  while (!frontier.empty() && !overflow) {
    std::vector<size_t> level = std::move(frontier);
    frontier.clear();
    std::vector<pql::Node> nodes;
    nodes.reserve(level.size());
    for (size_t id : level) {
      nodes.push_back(slots[id].node);
    }
    std::vector<std::vector<pql::Node>> preds =
        meter_.FollowMany(nodes, step.name, !step.inverse);
    for (size_t i = 0; i < level.size(); ++i) {
      for (const pql::Node& pred : preds[i]) {
        size_t id = visit(pred);
        slots[id].next.push_back(level[i]);
      }
    }
    overflow = slots.size() > limit;
  }
  if (overflow) {
    replaced = Everything();
    stats_.affected_roots += replaced.size();
    return Replace(query, &replaced);
  }

  // The walked nodes that are the query's roots now: a catalogued pnode of
  // the root set at its latest version, identity unchanged. Only the ones
  // that pass the root filter go on.
  const std::string& set = query->ast->froms.front().path.root_set;
  std::string type = set == "object" ? "" : pql::RootSetTypeName(set);
  std::vector<size_t> candidates;
  std::set<core::PnodeId> roots;
  for (const auto& [node, id] : slot_of) {
    const CatalogEntry* entry = Catalogued(node.pnode);
    if (entry == nullptr || entry->version != node.version ||
        !entry->InSet(type) || replaced.count(node.pnode) != 0) {
      continue;
    }
    candidates.push_back(id);
    roots.insert(node.pnode);
  }
  PASS_RETURN_IF_ERROR(FilterRoots(query, &roots));
  std::vector<std::pair<pql::Node, std::vector<pql::Node>>> extended;
  std::vector<size_t> seen_from(slots.size(), slots.size());
  for (size_t root : candidates) {
    const pql::Node& node = slots[root].node;
    if (roots.count(node.pnode) == 0) {
      continue;
    }
    // Everything the root reaches in the walked graph: a changed node
    // makes it a replace root, otherwise the tails give its new heads.
    std::vector<size_t> stack = {root};
    seen_from[root] = root;
    std::vector<pql::Node> heads;
    bool changed = false;
    while (!stack.empty() && !changed) {
      size_t id = stack.back();
      stack.pop_back();
      changed = slots[id].changed;
      auto tail = heads_of.find(slots[id].node);
      if (tail != heads_of.end()) {
        heads.insert(heads.end(), tail->second.begin(), tail->second.end());
      }
      for (size_t next : slots[id].next) {
        if (seen_from[next] != root) {
          seen_from[next] = root;
          stack.push_back(next);
        }
      }
    }
    if (changed) {
      replaced.insert(node.pnode);
    } else if (!heads.empty()) {
      std::sort(heads.begin(), heads.end());
      heads.erase(std::unique(heads.begin(), heads.end()), heads.end());
      extended.emplace_back(node, std::move(heads));
    }
  }

  stats_.affected_roots += replaced.size() + extended.size();
  if (!replaced.empty()) {
    PASS_RETURN_IF_ERROR(Replace(query, &replaced));
  }
  for (const auto& [root, heads] : extended) {
    std::set<core::PnodeId> alone = {root.pnode};
    RestrictedRootSource view(&meter_, this, &alone, root, &step, &heads);
    PASS_ASSIGN_OR_RETURN(pql::QueryResult result,
                          Evaluate(*query->ast, query->options, &view));
    served_rows_ += view.emitted();
    Insert(query, std::move(result));
  }
  return Status::Ok();
}

Status StandingQueryTier::Update(StandingQuery* query,
                                 const FrontierDelta& delta,
                                 const Changes& changes) {
  if (!query->shape.incremental) {
    ++stats_.full_evals;
    return Replace(query, nullptr);
  }
  ++stats_.incremental_evals;
  if (query->shape.step != nullptr) {
    return Extend(query, delta, changes);
  }
  std::set<core::PnodeId> roots = AffectedRoots(*query, delta.entries);
  stats_.affected_roots += roots.size();
  return Replace(query, &roots);
}

Result<pql::QueryResult> StandingQueryTier::Evaluate(
    const pql::Query& ast, const pql::QueryOptions& options,
    const pql::GraphSource* source) {
  pql::QueryOptions attributed = options;
  attributed.attribute_roots = true;
  pql::Engine engine(source, attributed);
  return engine.Evaluate(ast, attributed);
}

void StandingQueryTier::Insert(StandingQuery* query, pql::QueryResult result) {
  query->columns = std::move(result.columns);
  for (size_t i = 0; i < result.rows.size(); ++i) {
    RowKey key;
    key.reserve(result.rows[i].size());
    for (const pql::Value& value : result.rows[i]) {
      key.push_back(value.ToString());
    }
    if (!query->keys_by_root[result.roots[i].pnode].insert(key).second) {
      continue;  // this root already contributes the row
    }
    StoredRow& row = query->rows[key];
    if (row.roots++ == 0) {
      row.values = std::move(result.rows[i]);
      query->unreported.emplace(std::move(key), false);
    }
  }
}

void StandingQueryTier::EraseRoot(StandingQuery* query, core::PnodeId root) {
  auto it = query->keys_by_root.find(root);
  if (it == query->keys_by_root.end()) {
    return;
  }
  for (const RowKey& key : it->second) {
    auto row = query->rows.find(key);
    if (--row->second.roots == 0) {
      query->rows.erase(row);
      query->unreported.emplace(key, true);
    }
  }
  query->keys_by_root.erase(it);
}

Status StandingQueryTier::FilterRoots(StandingQuery* query,
                                      std::set<core::PnodeId>* roots) {
  if (query->filter == nullptr || roots->empty()) {
    return Status::Ok();
  }
  RestrictedRootSource restricted(&meter_, this, roots);
  PASS_ASSIGN_OR_RETURN(pql::QueryResult result,
                        Evaluate(*query->filter, query->options, &restricted));
  served_rows_ += restricted.emitted();
  std::set<core::PnodeId> passing;
  for (const pql::Node& root : result.roots) {
    passing.insert(root.pnode);
  }
  // Exact whatever the root stored before: a failing root has no row now.
  for (core::PnodeId root : *roots) {
    if (passing.count(root) == 0) {
      EraseRoot(query, root);
    }
  }
  *roots = std::move(passing);
  return Status::Ok();
}

Status StandingQueryTier::Replace(StandingQuery* query,
                                  const std::set<core::PnodeId>* roots) {
  // Evaluate first, so a failed evaluation leaves the stored rows alone
  // (the root filter's erases excepted, which are exact). Erasing and
  // re-inserting is idempotent: re-running the same delta after a crash
  // re-derives the same rows.
  pql::QueryResult result;
  if (roots == nullptr) {
    // Full evaluation: real (scatter-gather) root sets.
    PASS_ASSIGN_OR_RETURN(result,
                          Evaluate(*query->ast, query->options, &meter_));
    while (!query->keys_by_root.empty()) {
      EraseRoot(query, query->keys_by_root.begin()->first);
    }
  } else {
    // Every root's rows go: the filter erases the failing roots', and the
    // passing roots' are replaced below. With no root passing nothing is
    // evaluated, and the query's columns stay as they are.
    std::set<core::PnodeId> passing = *roots;
    PASS_RETURN_IF_ERROR(FilterRoots(query, &passing));
    if (passing.empty()) {
      return Status::Ok();
    }
    RestrictedRootSource restricted(&meter_, this, &passing);
    PASS_ASSIGN_OR_RETURN(
        result, Evaluate(*query->ast, query->options, &restricted));
    served_rows_ += restricted.emitted();
    for (core::PnodeId root : passing) {
      EraseRoot(query, root);
    }
  }
  Insert(query, std::move(result));
  return Status::Ok();
}

Result<std::vector<StandingNotification>> StandingQueryTier::Refresh() {
  cluster_->Quiesce();
  obs::ScopedSpan span(&cluster_->env().obs().trace(), "standing.refresh",
                       portal_shard_);
  FrontierDelta delta = cluster_->FrontierSince(cursor_, portal_shard_);
  stats_.frontier_entries += delta.entries.size() + delta.edges.size();
  stats_.frontier_rpcs += delta.rpcs;

  // The delta against the committed catalog, which stays as it is until
  // the commit below.
  Changes changes;
  updates_.clear();
  for (const FrontierEntry& entry : delta.entries) {
    auto it = catalog_.find(entry.pnode);
    if (it == catalog_.end() || it->second.version != entry.version ||
        it->second.types != entry.types) {
      changes.reidentified.insert(entry.pnode);
    }
    if (entry.attrs && it != catalog_.end()) {
      changes.attributed.push_back(&entry);
    }
    updates_[entry.pnode] = CatalogEntry{entry.version, entry.types};
  }

  Cost start = Spent();
  Cost seed;
  served_rows_ = 0;
  Status status = Status::Ok();
  for (auto& [id, query] : queries_) {
    if (query->seeded && delta.entries.empty()) {
      continue;  // nothing written since the last refresh
    }
    obs::ScopedSpan eval_span(&cluster_->env().obs().trace(), "standing.eval",
                              portal_shard_);
    if (query->seeded) {
      status = Update(query.get(), delta, changes);
    } else {
      // Seed evaluation (metered separately): the query's first results.
      Cost before = Spent();
      status = Replace(query.get(), nullptr);
      Cost cost = Spent() - before;
      stats_.seed_rows_touched += cost.rows;
      seed = Cost{seed.calls + cost.calls, seed.rows + cost.rows,
                  seed.rpcs + cost.rpcs};
      query->seeded = status.ok();
    }
    if (!status.ok()) {
      break;
    }
  }
  Cost steady = Spent() - start - seed;
  stats_.rows_touched += steady.rows + served_rows_;
  stats_.eval_rpcs += steady.rpcs;
  stats_.source_calls += steady.calls;
  if (!status.ok()) {
    return status;
  }

  // Commit point: everything merged. Advance the cursor and the catalog (a
  // failure above leaves both behind, and the next refresh re-reads a
  // superset of this delta into the same idempotent merges), then report
  // the rows present now that were not at the last commit.
  cluster_->CommitFrontier(&cursor_, delta.end);
  for (auto& [pnode, entry] : updates_) {
    catalog_[pnode] = std::move(entry);
  }
  updates_.clear();
  ++stats_.refreshes;

  std::vector<StandingNotification> notes;
  for (auto& [id, query] : queries_) {
    for (const auto& [key, was_present] : query->unreported) {
      auto row = query->rows.find(key);
      if (!was_present && row != query->rows.end()) {
        notes.push_back(StandingNotification{id, row->second.values});
      }
    }
    query->unreported.clear();
  }
  stats_.notifications += notes.size();
  return notes;
}

Result<pql::QueryResult> StandingQueryTier::ResultOf(uint64_t id) const {
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return NotFound("no such standing query");
  }
  // Distinct rows, ordered by dedup key: deterministic and directly
  // comparable with a sorted from-scratch answer.
  const StandingQuery& query = *it->second;
  pql::QueryResult out;
  out.columns = query.columns;
  out.rows.reserve(query.rows.size());
  for (const auto& [key, row] : query.rows) {
    out.rows.push_back(row.values);
  }
  return out;
}

}  // namespace pass::cluster
