#include "src/pql/eval.h"

#include <algorithm>
#include <cctype>
#include <set>

#include "src/pql/parser.h"
#include "src/util/strings.h"

namespace pass::pql {
namespace {

using Env = std::map<std::string, Node>;

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
  // Name-root binding: splits `query.where` into the literals of its
  // top-level conjuncts `V.name = <literal>`, where V is the first FROM
  // variable bound to a bare Provenance.<set> and not rebound later, and
  // the other conjuncts in written order. With no such conjunct,
  // `filters` is the whole where clause and `root_names` stays empty.
  void SplitWhere(const Query& query, ValueSet* root_names,
                  std::vector<const Expr*>* filters) const;
  // The literal of `expr` if it reads `<variable>.name = <literal>` in
  // either operand order, with `name` an attribute step; null otherwise.
  const Value* RootNameLiteral(const Expr& expr,
                               const std::string& variable) const;
  // The roots, in order, whose name set holds every literal in `names`,
  // read with one batched lookup over all of `roots`.
  std::vector<Node> RootsNamed(const std::vector<Node>& roots,
                               const ValueSet& names) const;
  // Expand one link step (with closure) from a node set.
  Result<std::vector<Node>> ExpandStep(const std::vector<Node>& from,
                                       const PathStep& step);
  // Nodes denoted by a path (all steps must be links).
  Result<std::vector<Node>> PathNodes(const PathExpr& path, const Env& env);
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

void Evaluator::SplitWhere(const Query& query, ValueSet* root_names,
                           std::vector<const Expr*>* filters) const {
  const FromItem* first = query.froms.empty() ? nullptr : &query.froms.front();
  bool bare_root =
      first != nullptr && first->path.from_provenance &&
      first->path.steps.empty() &&
      std::none_of(query.froms.begin() + 1, query.froms.end(),
                   [&](const FromItem& item) {
                     return item.variable == first->variable;
                   });
  if (bare_root) {
    std::vector<const Expr*> conjuncts;
    AppendConjuncts(*query.where, &conjuncts);
    for (const Expr* conjunct : conjuncts) {
      if (const Value* name = RootNameLiteral(*conjunct, first->variable)) {
        root_names->push_back(*name);
      } else {
        filters->push_back(conjunct);
      }
    }
  }
  if (root_names->empty()) {
    filters->assign(1, query.where.get());
  }
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
      // one batched call.
      std::set<Node> seen;
      std::set<Node> visited(from.begin(), from.end());
      if (step.closure == Closure::kStar) {
        for (const Node& node : from) {
          if (seen.insert(node).second) {
            out.push_back(node);
          }
        }
      }
      std::vector<Node> frontier(visited.begin(), visited.end());
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
                                               const Env& env) {
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
  for (const PathStep& step : path.steps) {
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
  PathExpr prefix = path;
  std::string attr;
  if (!path.steps.empty() && !source_->IsLink(path.steps.back().name)) {
    attr = path.steps.back().name;
    prefix.steps.pop_back();
  }
  PASS_ASSIGN_OR_RETURN(std::vector<Node> nodes, PathNodes(prefix, env));
  ValueSet out;
  if (attr.empty()) {
    out.reserve(nodes.size());
    for (const Node& node : nodes) {
      out.push_back(Value(node));
    }
    return out;
  }
  for (const ValueSet& values : source_->AttributeMany(nodes, attr)) {
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
  // root's. The conjuncts left in `filters` still run per binding.
  ValueSet root_names;
  std::vector<const Expr*> filters;
  if (query.where != nullptr) {
    SplitWhere(query, &root_names, &filters);
  }

  // Build binding tuples from the FROM list.
  std::vector<Env> envs{outer};
  for (const FromItem& item : query.froms) {
    std::vector<Env> next;
    for (const Env& env : envs) {
      PASS_ASSIGN_OR_RETURN(std::vector<Node> nodes, PathNodes(item.path, env));
      if (&item == &query.froms.front() && !root_names.empty()) {
        nodes = RootsNamed(nodes, root_names);
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
    for (size_t i = 0; keep && i < filters.size(); ++i) {
      PASS_ASSIGN_OR_RETURN(keep, Truthy(*filters[i], env));
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
