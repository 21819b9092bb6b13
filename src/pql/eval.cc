#include "src/pql/eval.h"

#include <algorithm>
#include <cctype>
#include <set>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "src/pql/parser.h"
#include "src/util/strings.h"

namespace pass::pql {
namespace {

using Env = std::map<std::string, Node>;

struct NodeHash {
  size_t operator()(const Node& node) const {
    uint64_t h = node.pnode * 0x9e3779b97f4a7c15ull + node.version;
    return static_cast<size_t>(h ^ (h >> 32));
  }
};

// Appends the top-level `and`-conjuncts of `expr`, in written order.
void AppendConjuncts(const Expr& expr, std::vector<const Expr*>* out) {
  if (expr.kind == Expr::Kind::kBinary && expr.op == BinOp::kAnd) {
    AppendConjuncts(*expr.lhs, out);
    AppendConjuncts(*expr.rhs, out);
  } else {
    out->push_back(&expr);
  }
}

// "name" in any case: sources match attribute names case-insensitively.
bool IsNameStep(const std::string& step) {
  constexpr std::string_view kName = "name";
  return std::equal(step.begin(), step.end(), kName.begin(), kName.end(),
                    [](char a, char b) {
                      return std::tolower(static_cast<unsigned char>(a)) == b;
                    });
}

void AddReads(const Query& query, std::set<std::string>* out);

// Adds the variable every path in `expr` starts from to `out`, subqueries
// included. Variables a subquery binds for itself count as read too, so
// the set errs towards reading more.
void AddReads(const Expr& expr, std::set<std::string>* out) {
  if (expr.kind == Expr::Kind::kPath && !expr.path.from_provenance) {
    out->insert(expr.path.variable);
  }
  for (const Expr* operand : {expr.lhs.get(), expr.rhs.get()}) {
    if (operand != nullptr) {
      AddReads(*operand, out);
    }
  }
  if (expr.subquery != nullptr) {
    AddReads(*expr.subquery, out);
  }
}

void AddReads(const Query& query, std::set<std::string>* out) {
  for (const SelectItem& item : query.selects) {
    AddReads(item.expr, out);
  }
  for (const FromItem& item : query.froms) {
    if (!item.path.from_provenance) {
      out->insert(item.path.variable);
    }
  }
  if (query.where != nullptr) {
    AddReads(*query.where, out);
  }
  if (query.union_with != nullptr) {
    AddReads(*query.union_with, out);
  }
}

// The where clause of one query, split into the parts the evaluator runs
// apart (Evaluator::SplitWhere).
struct WherePlan {
  // Name-root binding: the literals of the `V.name = <literal>` conjuncts.
  ValueSet root_names;
  // Every other top-level conjunct, in written order.
  std::vector<const Expr*> filters;
  // Shared walk: the last FROM item, which is then never bound, and the
  // run filters[tests_begin, tests_end) of the conjuncts that read its
  // variable. The conjuncts before the run filter the bindings the walk
  // starts from; the ones after it run per kept binding.
  const FromItem* walked = nullptr;
  size_t tests_begin = 0;
  size_t tests_end = 0;
};

class Evaluator {
 public:
  Evaluator(const GraphSource* source, const QueryOptions& options)
      : source_(source), options_(options), limits_(options.limits) {}

  // `top_level` marks the query whose rows land in the caller-visible
  // result (the outermost query and its UNION branches): root attribution
  // applies only there, never inside subqueries.
  Result<QueryResult> EvalQuery(const Query& query, const Env& outer,
                                bool top_level = false);

 private:
  // Splits `query.where` into its top-level conjuncts. Name-root binding
  // takes the literals of the conjuncts `V.name = <literal>`, where V is
  // the first FROM variable bound to a bare Provenance.<set> and not
  // rebound later. The shared walk takes the last FROM item when it binds
  // A by one `*` or `+` link step from an earlier FROM variable, `select`
  // never reads A, and the conjuncts that read A read nothing else and
  // stand next to each other.
  void SplitWhere(const Query& query, WherePlan* plan) const;
  // The literal of `expr` if it reads `<variable>.name = <literal>` in
  // either operand order, with `name` an attribute step; null otherwise.
  const Value* RootNameLiteral(const Expr& expr,
                               const std::string& variable) const;
  // The roots, in order, whose name set holds every literal in `names`,
  // read with one batched lookup over all of `roots`.
  std::vector<Node> RootsNamed(const std::vector<Node>& roots,
                               const ValueSet& names) const;
  // True if `item`, the last FROM item of `query`, binds a variable the
  // shared walk can leave unbound: one `*` or `+` link step from an
  // earlier FROM variable, a name no earlier item binds, and no select
  // item reads it.
  bool Walkable(const Query& query, const FromItem& item) const;
  // The bindings of `envs` that pass the conjuncts before the walked
  // variable's tests and whose closure holds a member passing the tests.
  // One walk, level by level from every start at once, covers every
  // binding's closure; each member is tested once.
  Result<std::vector<Env>> WalkShared(const WherePlan& plan,
                                      std::vector<Env> envs);
  // Expand one link step (with closure) from a node set.
  Result<std::vector<Node>> ExpandStep(const std::vector<Node>& from,
                                       const PathStep& step);
  // Nodes denoted by the first `links` steps of a path (all must be links).
  Result<std::vector<Node>> PathNodes(const PathExpr& path, size_t links,
                                      const Env& env);
  // Values denoted by a path (may end in one attribute step).
  Result<ValueSet> PathValues(const PathExpr& path, const Env& env);
  Result<ValueSet> EvalExpr(const Expr& expr, const Env& env);
  Result<bool> Truthy(const Expr& expr, const Env& env);

  static bool Compare(const Value& a, const Value& b, BinOp op);

  const GraphSource* source_;
  const QueryOptions& options_;
  const EvalLimits& limits_;
};

bool SetTruthy(const ValueSet& values) {
  if (values.empty()) {
    return false;
  }
  if (values.size() == 1 && values[0].is_bool()) {
    return values[0].AsBool();
  }
  if (values.size() == 1 && values[0].is_nil()) {
    return false;
  }
  return true;
}

bool Evaluator::Compare(const Value& a, const Value& b, BinOp op) {
  switch (op) {
    case BinOp::kEq:
      return a.Equals(b);
    case BinOp::kNeq:
      return !a.Equals(b);
    case BinOp::kLt:
      return a.Less(b);
    case BinOp::kLe:
      return a.Less(b) || a.Equals(b);
    case BinOp::kGt:
      return b.Less(a);
    case BinOp::kGe:
      return b.Less(a) || a.Equals(b);
    case BinOp::kLike:
      return a.is_string() && b.is_string() &&
             GlobMatch(b.AsString(), a.AsString());
    default:
      return false;
  }
}

void Evaluator::SplitWhere(const Query& query, WherePlan* plan) const {
  std::vector<const Expr*> conjuncts;
  if (query.where != nullptr) {
    AppendConjuncts(*query.where, &conjuncts);
  }
  const FromItem* first = query.froms.empty() ? nullptr : &query.froms.front();
  bool bare_root =
      first != nullptr && first->path.from_provenance &&
      first->path.steps.empty() &&
      std::none_of(query.froms.begin() + 1, query.froms.end(),
                   [&](const FromItem& item) {
                     return item.variable == first->variable;
                   });
  for (const Expr* conjunct : conjuncts) {
    const Value* name =
        bare_root ? RootNameLiteral(*conjunct, first->variable) : nullptr;
    if (name != nullptr) {
      plan->root_names.push_back(*name);
    } else {
      plan->filters.push_back(conjunct);
    }
  }

  if (query.froms.empty() || !Walkable(query, query.froms.back())) {
    return;
  }
  const std::string& variable = query.froms.back().variable;
  size_t begin = plan->filters.size();
  size_t end = begin;
  for (size_t i = 0; i < plan->filters.size(); ++i) {
    std::set<std::string> reads;
    AddReads(*plan->filters[i], &reads);
    if (reads.count(variable) == 0) {
      continue;
    }
    bool interleaved = begin != plan->filters.size() && end != i;
    if (reads.size() != 1 || interleaved) {
      return;
    }
    begin = std::min(begin, i);
    end = i + 1;
  }
  plan->walked = &query.froms.back();
  plan->tests_begin = begin;
  plan->tests_end = end;
}

const Value* Evaluator::RootNameLiteral(const Expr& expr,
                                        const std::string& variable) const {
  if (expr.kind != Expr::Kind::kBinary || expr.op != BinOp::kEq) {
    return nullptr;
  }
  const Expr* path = expr.lhs.get();
  const Expr* literal = expr.rhs.get();
  if (path->kind == Expr::Kind::kLiteral) {
    std::swap(path, literal);
  }
  if (path->kind != Expr::Kind::kPath ||
      literal->kind != Expr::Kind::kLiteral ||
      path->path.from_provenance || path->path.variable != variable ||
      path->path.steps.size() != 1) {
    return nullptr;
  }
  const PathStep& step = path->path.steps.front();
  if (step.inverse || step.closure != Closure::kOne || !IsNameStep(step.name) ||
      source_->IsLink(step.name)) {
    return nullptr;
  }
  return &literal->literal;
}

std::vector<Node> Evaluator::RootsNamed(const std::vector<Node>& roots,
                                        const ValueSet& names) const {
  std::vector<ValueSet> root_names = source_->AttributeMany(roots, "name");
  std::vector<Node> kept;
  for (size_t i = 0; i < roots.size(); ++i) {
    // The same existential equality the conjunct evaluates per binding.
    const ValueSet& values = root_names[i];
    auto has = [&](const Value& name) {
      return std::any_of(values.begin(), values.end(), [&](const Value& v) {
        return v.Equals(name);
      });
    };
    if (std::all_of(names.begin(), names.end(), has)) {
      kept.push_back(roots[i]);
    }
  }
  return kept;
}

bool Evaluator::Walkable(const Query& query, const FromItem& item) const {
  const PathExpr& path = item.path;
  if (path.from_provenance || path.steps.size() != 1 ||
      (path.steps.front().closure != Closure::kStar &&
       path.steps.front().closure != Closure::kPlus) ||
      !source_->IsLink(path.steps.front().name)) {
    return false;
  }
  bool from_earlier = false;
  for (const FromItem& earlier : query.froms) {
    if (&earlier == &item) {
      break;
    }
    if (earlier.variable == item.variable) {
      return false;
    }
    from_earlier = from_earlier || earlier.variable == path.variable;
  }
  std::set<std::string> selected;
  for (const SelectItem& select : query.selects) {
    AddReads(select.expr, &selected);
  }
  return from_earlier && selected.count(item.variable) == 0;
}

Result<std::vector<Env>> Evaluator::WalkShared(const WherePlan& plan,
                                               std::vector<Env> envs) {
  const FromItem& item = *plan.walked;
  const PathStep& step = item.path.steps.front();
  const std::string& from = item.path.variable;
  bool plus = step.closure == Closure::kPlus;

  // The walk's graph: a slot per node met, found through `slot_of`. An
  // expanded node's links are fetched once and kept as slot indices, in
  // both directions.
  struct Slot {
    Node node;
    std::vector<size_t> links;
    std::vector<size_t> linked_from;
    bool expanded = false;
    bool member = false;
    bool marked = false;
  };
  std::vector<Slot> slots;
  std::unordered_map<Node, size_t, NodeHash> slot_of;
  auto slot = [&](const Node& node) {
    auto [it, added] = slot_of.emplace(node, slots.size());
    if (added) {
      slots.emplace_back().node = node;
    }
    return it->second;
  };
  // One batched call over the slots in `ids` not yet expanded.
  auto expand = [&](const std::vector<size_t>& ids) {
    std::vector<size_t> fresh;
    std::vector<Node> nodes;
    for (size_t id : ids) {
      if (!slots[id].expanded) {
        slots[id].expanded = true;
        fresh.push_back(id);
        nodes.push_back(slots[id].node);
      }
    }
    if (nodes.empty()) {
      return;
    }
    std::vector<std::vector<Node>> nexts =
        source_->FollowMany(nodes, step.name, step.inverse);
    for (size_t i = 0; i < fresh.size(); ++i) {
      for (const Node& next : nexts[i]) {
        size_t id = slot(next);
        slots[fresh[i]].links.push_back(id);
        slots[id].linked_from.push_back(fresh[i]);
      }
    }
  };
  // The distinct starts of `bindings`, in node order.
  auto starts_of = [&](const std::vector<Env>& bindings) {
    std::vector<Node> starts;
    starts.reserve(bindings.size());
    for (const Env& env : bindings) {
      starts.push_back(env.at(from));
    }
    std::sort(starts.begin(), starts.end());
    starts.erase(std::unique(starts.begin(), starts.end()), starts.end());
    std::vector<size_t> ids;
    ids.reserve(starts.size());
    for (const Node& start : starts) {
      ids.push_back(slot(start));
    }
    return ids;
  };
  auto start_of = [&](const Env& env) -> const Slot& {
    return slots[slot_of.at(env.at(from))];
  };

  if (plus) {
    // A start with no link has an empty `+` closure: its bindings bind no
    // A, so no conjunct runs on them. Find them before any conjunct does.
    expand(starts_of(envs));
    std::erase_if(envs,
                  [&](const Env& env) { return start_of(env).links.empty(); });
  }
  std::vector<Env> bindings;
  for (Env& env : envs) {
    bool keep = true;
    for (size_t i = 0; keep && i < plan.tests_begin; ++i) {
      PASS_ASSIGN_OR_RETURN(keep, Truthy(*plan.filters[i], env));
    }
    if (keep) {
      bindings.push_back(std::move(env));
    }
  }

  // Level-synchronous BFS from every start at once: one batched call per
  // level. The members are the union of the bindings' closures; a node is
  // queued when it becomes one (a `+` start may be queued again then, but
  // is not expanded again).
  std::vector<size_t> frontier = starts_of(bindings);
  std::vector<size_t> members;
  if (!plus) {
    for (size_t id : frontier) {
      slots[id].member = true;
    }
    members = frontier;
  }
  auto overflow = [&] {
    return Unavailable("closure expansion exceeds limit");
  };
  if (members.size() > limits_.max_closure_nodes) {
    return overflow();
  }
  while (!frontier.empty()) {
    expand(frontier);
    std::vector<size_t> next_frontier;
    for (size_t id : frontier) {
      for (size_t next : slots[id].links) {
        if (slots[next].member) {
          continue;
        }
        slots[next].member = true;
        members.push_back(next);
        if (members.size() > limits_.max_closure_nodes) {
          return overflow();
        }
        next_frontier.push_back(next);
      }
    }
    frontier = std::move(next_frontier);
  }

  // Each member is tested once, in node order, the conjuncts in written
  // order.
  std::sort(members.begin(), members.end(), [&](size_t a, size_t b) {
    return slots[a].node < slots[b].node;
  });
  Env env{{item.variable, Node{}}};
  Node& bound = env.begin()->second;
  std::vector<size_t> satisfying;
  for (size_t id : members) {
    bound = slots[id].node;
    bool pass = true;
    for (size_t i = plan.tests_begin; pass && i < plan.tests_end; ++i) {
      PASS_ASSIGN_OR_RETURN(pass, Truthy(*plan.filters[i], env));
    }
    if (pass) {
      satisfying.push_back(id);
    }
  }

  // Mark every node that reaches a satisfying member, walking the recorded
  // links backwards; a node is marked once, so cycles end.
  for (size_t id : satisfying) {
    slots[id].marked = true;
  }
  while (!satisfying.empty()) {
    size_t id = satisfying.back();
    satisfying.pop_back();
    for (size_t prev : slots[id].linked_from) {
      if (!slots[prev].marked) {
        slots[prev].marked = true;
        satisfying.push_back(prev);
      }
    }
  }

  // A `*` closure holds a marked node if its start is marked; a `+`
  // closure, if one of the start's links is.
  std::vector<Env> kept;
  for (Env& binding : bindings) {
    const Slot& start = start_of(binding);
    bool reaches =
        plus ? std::any_of(start.links.begin(), start.links.end(),
                           [&](size_t next) { return slots[next].marked; })
             : start.marked;
    if (reaches) {
      kept.push_back(std::move(binding));
    }
  }
  return kept;
}

Result<std::vector<Node>> Evaluator::ExpandStep(const std::vector<Node>& from,
                                                const PathStep& step) {
  // Every expansion hands the source whole frontiers (FollowMany), never
  // single nodes: a federated source ships one RPC per shard per hop.
  std::vector<Node> out;
  switch (step.closure) {
    case Closure::kOne:
    case Closure::kOptional: {
      if (step.closure == Closure::kOptional) {
        out = from;
      }
      for (const auto& next : source_->FollowMany(from, step.name,
                                                  step.inverse)) {
        out.insert(out.end(), next.begin(), next.end());
      }
      break;
    }
    case Closure::kStar:
    case Closure::kPlus: {
      // Level-synchronous BFS: each iteration expands the whole frontier in
      // one batched call. The first frontier is `from` in node order; later
      // ones list nodes as they are discovered.
      std::unordered_set<Node, NodeHash> seen;
      if (step.closure == Closure::kStar) {
        for (const Node& node : from) {
          if (seen.insert(node).second) {
            out.push_back(node);
          }
        }
      }
      std::vector<Node> frontier = from;
      std::sort(frontier.begin(), frontier.end());
      frontier.erase(std::unique(frontier.begin(), frontier.end()),
                     frontier.end());
      std::unordered_set<Node, NodeHash> visited(frontier.begin(),
                                                 frontier.end());
      while (!frontier.empty()) {
        std::vector<Node> next_frontier;
        for (const auto& nexts : source_->FollowMany(frontier, step.name,
                                                     step.inverse)) {
          for (const Node& next : nexts) {
            if (seen.insert(next).second) {
              out.push_back(next);
              if (out.size() > limits_.max_closure_nodes) {
                return Unavailable("closure expansion exceeds limit");
              }
            }
            if (visited.insert(next).second) {
              next_frontier.push_back(next);
            }
          }
        }
        frontier = std::move(next_frontier);
      }
      break;
    }
  }
  // Set semantics on nodes.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Result<std::vector<Node>> Evaluator::PathNodes(const PathExpr& path,
                                               size_t links, const Env& env) {
  std::vector<Node> nodes;
  if (path.from_provenance) {
    nodes = source_->RootSet(path.root_set);
  } else {
    auto it = env.find(path.variable);
    if (it == env.end()) {
      return NotFound("unbound variable '" + path.variable + "'");
    }
    nodes.push_back(it->second);
  }
  for (const PathStep& step : std::span(path.steps).first(links)) {
    if (!source_->IsLink(step.name)) {
      return InvalidArgument("'" + step.name +
                             "' is not a link (attribute used in a path "
                             "binding)");
    }
    PASS_ASSIGN_OR_RETURN(nodes, ExpandStep(nodes, step));
  }
  return nodes;
}

Result<ValueSet> Evaluator::PathValues(const PathExpr& path, const Env& env) {
  // Split: leading link steps, optional trailing attribute step.
  const std::string* attr = nullptr;
  if (!path.steps.empty() && !source_->IsLink(path.steps.back().name)) {
    attr = &path.steps.back().name;
  }
  size_t links = path.steps.size() - (attr == nullptr ? 0 : 1);
  PASS_ASSIGN_OR_RETURN(std::vector<Node> nodes, PathNodes(path, links, env));
  ValueSet out;
  if (attr == nullptr) {
    out.reserve(nodes.size());
    for (const Node& node : nodes) {
      out.push_back(Value(node));
    }
    return out;
  }
  for (const ValueSet& values : source_->AttributeMany(nodes, *attr)) {
    out.insert(out.end(), values.begin(), values.end());
  }
  Normalize(&out);
  return out;
}

Result<bool> Evaluator::Truthy(const Expr& expr, const Env& env) {
  PASS_ASSIGN_OR_RETURN(ValueSet values, EvalExpr(expr, env));
  return SetTruthy(values);
}

Result<ValueSet> Evaluator::EvalExpr(const Expr& expr, const Env& env) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return ValueSet{expr.literal};
    case Expr::Kind::kPath:
      return PathValues(expr.path, env);
    case Expr::Kind::kNot: {
      PASS_ASSIGN_OR_RETURN(bool inner, Truthy(*expr.lhs, env));
      return ValueSet{Value(!inner)};
    }
    case Expr::Kind::kExists: {
      if (expr.subquery != nullptr) {
        PASS_ASSIGN_OR_RETURN(QueryResult result,
                              EvalQuery(*expr.subquery, env));
        return ValueSet{Value(!result.rows.empty())};
      }
      PASS_ASSIGN_OR_RETURN(ValueSet values, EvalExpr(*expr.lhs, env));
      return ValueSet{Value(!values.empty())};
    }
    case Expr::Kind::kSubquery: {
      PASS_ASSIGN_OR_RETURN(QueryResult result, EvalQuery(*expr.subquery, env));
      return result.Flatten();
    }
    case Expr::Kind::kAggregate: {
      ValueSet operand;
      if (expr.subquery != nullptr) {
        PASS_ASSIGN_OR_RETURN(QueryResult result,
                              EvalQuery(*expr.subquery, env));
        operand = result.Flatten();
      } else {
        PASS_ASSIGN_OR_RETURN(operand, EvalExpr(*expr.lhs, env));
      }
      switch (expr.aggregate) {
        case Aggregate::kCount:
          return ValueSet{Value(static_cast<int64_t>(operand.size()))};
        case Aggregate::kSum:
        case Aggregate::kAvg: {
          double sum = 0;
          size_t n = 0;
          for (const Value& value : operand) {
            if (value.is_numeric()) {
              sum += value.AsReal();
              ++n;
            }
          }
          if (expr.aggregate == Aggregate::kSum) {
            return ValueSet{Value(sum)};
          }
          return ValueSet{Value(n == 0 ? 0.0 : sum / static_cast<double>(n))};
        }
        case Aggregate::kMin:
        case Aggregate::kMax: {
          if (operand.empty()) {
            return ValueSet{Value()};
          }
          const Value* best = &operand[0];
          for (const Value& value : operand) {
            bool better = expr.aggregate == Aggregate::kMin
                              ? value.Less(*best)
                              : best->Less(value);
            if (better) {
              best = &value;
            }
          }
          return ValueSet{*best};
        }
      }
      return ValueSet{};
    }
    case Expr::Kind::kBinary: {
      if (expr.op == BinOp::kAnd || expr.op == BinOp::kOr) {
        PASS_ASSIGN_OR_RETURN(bool lhs, Truthy(*expr.lhs, env));
        if (expr.op == BinOp::kAnd && !lhs) {
          return ValueSet{Value(false)};
        }
        if (expr.op == BinOp::kOr && lhs) {
          return ValueSet{Value(true)};
        }
        PASS_ASSIGN_OR_RETURN(bool rhs, Truthy(*expr.rhs, env));
        return ValueSet{Value(rhs)};
      }
      PASS_ASSIGN_OR_RETURN(ValueSet lhs, EvalExpr(*expr.lhs, env));
      PASS_ASSIGN_OR_RETURN(ValueSet rhs, EvalExpr(*expr.rhs, env));
      if (expr.op == BinOp::kIn) {
        for (const Value& a : lhs) {
          for (const Value& b : rhs) {
            if (a.Equals(b)) {
              return ValueSet{Value(true)};
            }
          }
        }
        return ValueSet{Value(false)};
      }
      // Existential comparison (Lorel semantics).
      for (const Value& a : lhs) {
        for (const Value& b : rhs) {
          if (Compare(a, b, expr.op)) {
            return ValueSet{Value(true)};
          }
        }
      }
      return ValueSet{Value(false)};
    }
  }
  return InvalidArgument("unknown expression kind");
}

Result<QueryResult> Evaluator::EvalQuery(const Query& query, const Env& outer,
                                         bool top_level) {
  // A root whose name fails a `V.name = <literal>` conjunct can emit no
  // row, so it is dropped before anything is expanded from it: a
  // one-object lineage query walks that object's ancestry, not every
  // root's. The conjuncts left in `plan.filters` still run per binding.
  //
  // A walked variable is never bound: a binding emits its rows if some
  // member of its closure passes the variable's tests, so one walk over
  // the union of the closures decides every binding (WalkShared), and the
  // conjuncts after the tests run per kept binding.
  WherePlan plan;
  SplitWhere(query, &plan);

  // Build binding tuples from the FROM list.
  std::vector<Env> envs{outer};
  for (const FromItem& item : query.froms) {
    if (&item == plan.walked) {
      break;
    }
    std::vector<Env> next;
    for (const Env& env : envs) {
      PASS_ASSIGN_OR_RETURN(
          std::vector<Node> nodes,
          PathNodes(item.path, item.path.steps.size(), env));
      if (&item == &query.froms.front() && !plan.root_names.empty()) {
        nodes = RootsNamed(nodes, plan.root_names);
      }
      for (const Node& node : nodes) {
        Env extended = env;
        extended[item.variable] = node;
        next.push_back(std::move(extended));
        if (next.size() > limits_.max_bindings) {
          return Unavailable("binding set exceeds limit");
        }
      }
    }
    envs = std::move(next);
  }
  size_t first_filter = 0;
  if (plan.walked != nullptr) {
    PASS_ASSIGN_OR_RETURN(envs, WalkShared(plan, std::move(envs)));
    first_filter = plan.tests_end;
  }

  QueryResult result;
  for (size_t i = 0; i < query.selects.size(); ++i) {
    const SelectItem& item = query.selects[i];
    result.columns.push_back(
        item.alias.empty() ? StrFormat("col%zu", i) : item.alias);
    if (item.alias.empty() && item.expr.kind == Expr::Kind::kPath) {
      std::string name = item.expr.path.variable;
      for (const PathStep& step : item.expr.path.steps) {
        name += "." + step.name;
      }
      if (!name.empty()) {
        result.columns.back() = name;
      }
    }
  }

  // Root attribution (QueryOptions::attribute_roots, top level only): each
  // emitted row remembers the first-FROM binding it came from, and the
  // dedup key is (root, row) instead of (row) — the same textual row
  // contributed by two roots survives once per root, so an incremental
  // evaluator can drop one root's rows without losing the other's. Callers
  // comparing against an unattributed run must compare rows as sets.
  bool attribute = top_level && options_.attribute_roots;
  std::string root_var =
      query.froms.empty() ? std::string() : query.froms.front().variable;

  std::set<std::vector<std::string>> seen_rows;
  for (const Env& env : envs) {
    bool keep = true;
    for (size_t i = first_filter; keep && i < plan.filters.size(); ++i) {
      PASS_ASSIGN_OR_RETURN(keep, Truthy(*plan.filters[i], env));
    }
    if (!keep) {
      continue;
    }
    Node root{};
    std::string root_token;
    if (attribute && !root_var.empty()) {
      root = env.at(root_var);
      root_token = root.ToString();
    }
    // Evaluate select items; emit the cross product of their value sets
    // (each set is usually a singleton).
    std::vector<ValueSet> cells;
    for (const SelectItem& item : query.selects) {
      PASS_ASSIGN_OR_RETURN(ValueSet values, EvalExpr(item.expr, env));
      if (values.empty()) {
        values.push_back(Value());
      }
      cells.push_back(std::move(values));
    }
    std::vector<size_t> index(cells.size(), 0);
    for (;;) {
      std::vector<Value> row;
      std::vector<std::string> row_key;
      row.reserve(cells.size());
      if (attribute) {
        row_key.push_back(root_token);
      }
      for (size_t i = 0; i < cells.size(); ++i) {
        row.push_back(cells[i][index[i]]);
        row_key.push_back(row.back().ToString());
      }
      if (seen_rows.insert(row_key).second) {
        result.rows.push_back(std::move(row));
        if (attribute) {
          result.roots.push_back(root);
        }
      }
      // Advance the odometer.
      size_t i = 0;
      for (; i < cells.size(); ++i) {
        if (++index[i] < cells[i].size()) {
          break;
        }
        index[i] = 0;
      }
      if (i == cells.size()) {
        break;
      }
    }
  }

  if (query.union_with != nullptr) {
    PASS_ASSIGN_OR_RETURN(QueryResult other,
                          EvalQuery(*query.union_with, outer, top_level));
    for (size_t r = 0; r < other.rows.size(); ++r) {
      auto& row = other.rows[r];
      std::vector<std::string> row_key;
      row_key.reserve(row.size() + 1);
      if (attribute) {
        row_key.push_back(other.roots[r].ToString());
      }
      for (const Value& value : row) {
        row_key.push_back(value.ToString());
      }
      if (seen_rows.insert(row_key).second) {
        result.rows.push_back(std::move(row));
        if (attribute) {
          result.roots.push_back(other.roots[r]);
        }
      }
    }
  }
  return result;
}

}  // namespace

std::string QueryResult::ToTable(const GraphSource* source) const {
  std::vector<std::vector<std::string>> cells;
  cells.push_back(columns);
  for (const auto& row : rows) {
    std::vector<std::string> line;
    line.reserve(row.size());
    for (const Value& value : row) {
      if (value.is_node() && source != nullptr) {
        line.push_back(source->NodeLabel(value.AsNode()));
      } else {
        line.push_back(value.ToString());
      }
    }
    cells.push_back(std::move(line));
  }
  std::vector<size_t> widths(columns.size(), 0);
  for (const auto& line : cells) {
    for (size_t i = 0; i < line.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], line[i].size());
    }
  }
  std::string out;
  for (size_t r = 0; r < cells.size(); ++r) {
    for (size_t i = 0; i < cells[r].size(); ++i) {
      out += StrFormat("%-*s  ", static_cast<int>(widths[i]),
                       cells[r][i].c_str());
    }
    out += "\n";
    if (r == 0) {
      for (size_t i = 0; i < widths.size(); ++i) {
        out += std::string(widths[i], '-') + "  ";
      }
      out += "\n";
    }
  }
  return out;
}

ValueSet QueryResult::Flatten() const {
  ValueSet out;
  for (const auto& row : rows) {
    out.insert(out.end(), row.begin(), row.end());
  }
  Normalize(&out);
  return out;
}

std::vector<std::string> QueryResult::SortedRows() const {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const auto& row : rows) {
    std::string line;
    for (const Value& value : row) {
      line += value.ToString();
      line += '|';
    }
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<QueryResult> Engine::Run(std::string_view text,
                                const QueryOptions& options) const {
  PASS_ASSIGN_OR_RETURN(std::unique_ptr<Query> query, ParseQuery(text));
  return Evaluate(*query, options);
}

Result<QueryResult> Engine::Evaluate(const Query& query,
                                     const QueryOptions& options) const {
  Evaluator evaluator(source_, options);
  return evaluator.EvalQuery(query, {}, /*top_level=*/true);
}

}  // namespace pass::pql
