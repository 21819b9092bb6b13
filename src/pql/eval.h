#ifndef SRC_PQL_EVAL_H_
#define SRC_PQL_EVAL_H_

// PQL evaluation (§5.7): path expressions bind variables over the object
// graph; the where-clause filters binding tuples with Lorel-style
// existential comparisons; select renders outputs. Closures (*, +, ?) are
// BFS reachability; ~link traverses edges backwards.

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/pql/ast.h"
#include "src/pql/graph.h"
#include "src/util/result.h"

namespace pass::pql {

struct QueryResult {
  std::vector<std::string> columns;
  std::vector<std::vector<Value>> rows;
  // When QueryOptions::attribute_roots is set: roots[i] is the first-FROM
  // binding that produced rows[i] (one entry per row). Incremental
  // re-evaluators key stored rows by this to replace exactly the rows a
  // changed root contributed. Empty otherwise.
  std::vector<Node> roots;

  // Render as an aligned text table; node values are labelled through the
  // source ("/path/file [p12.v3]").
  std::string ToTable(const GraphSource* source) const;
  // Flatten all cells into one value set.
  ValueSet Flatten() const;
  // One "cell|cell|" string per row, sorted: the canonical form two results
  // are compared in when row order is not part of the contract.
  std::vector<std::string> SortedRows() const;
};

struct EvalLimits {
  size_t max_bindings = 1u << 20;
  size_t max_closure_nodes = 1u << 20;
};

// How fresh the data a query reads must be. The evaluator itself is
// oblivious (it reads whatever its GraphSource exposes); consumers that own
// a routing snapshot honor it: PortalSession re-pins to the live ShardMap
// before running a kFresh query, the standing tier always evaluates fresh
// and rejects kPinnedEpoch registrations.
enum class Consistency : uint8_t {
  kDefault,      // the consumer's natural mode (portal: pinned; standing: fresh)
  kPinnedEpoch,  // answer from the consumer's pinned routing snapshot
  kFresh,        // re-capture the live routing state first (read-your-writes)
};

// One options surface shared by every query entry point: Engine::Run,
// PortalSession::Run, and StandingQueryTier::Register.
struct QueryOptions {
  EvalLimits limits;
  Consistency consistency = Consistency::kDefault;
  // Label for metrics/spans recorded by consumers with an observability
  // plane (the portal tags portal.query_ns with it). Ignored by a bare
  // Engine.
  std::string trace_label;
  // Fill QueryResult::roots (see above). Top-level rows only — subquery
  // semantics are unchanged.
  bool attribute_roots = false;
};

class Engine {
 public:
  explicit Engine(const GraphSource* source) : source_(source) {}
  Engine(const GraphSource* source, QueryOptions options)
      : source_(source), options_(std::move(options)) {}

  // Parse and evaluate a query (with the engine's options, or per-call
  // overrides).
  Result<QueryResult> Run(std::string_view text) const {
    return Run(text, options_);
  }
  Result<QueryResult> Run(std::string_view text,
                          const QueryOptions& options) const;

  // Evaluate a parsed query (used for subqueries and by tests).
  Result<QueryResult> Evaluate(const Query& query) const {
    return Evaluate(query, options_);
  }
  Result<QueryResult> Evaluate(const Query& query,
                               const QueryOptions& options) const;

  const QueryOptions& options() const { return options_; }

 private:
  friend class Evaluator;
  const GraphSource* source_;
  QueryOptions options_;
};

}  // namespace pass::pql

#endif  // SRC_PQL_EVAL_H_
