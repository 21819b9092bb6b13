// Tests for PQL (§5.7): lexer, parser, and evaluator — including the
// paper's sample anomaly query over a hand-built provenance graph.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/pql/eval.h"
#include "src/pql/lexer.h"
#include "src/pql/parser.h"
#include "src/pql/provdb_source.h"
#include "src/waldo/provdb.h"

namespace pass::pql {
namespace {

TEST(PqlLexerTest, TokenizesSampleQuery) {
  auto tokens = Tokenize(
      "select Ancestor from Provenance.file as Atlas "
      "Atlas.input* as Ancestor where Atlas.name = \"atlas-x.gif\"");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens->front().kind, TokenKind::kSelect);
  EXPECT_EQ(tokens->back().kind, TokenKind::kEnd);
  size_t stars = 0;
  for (const Token& token : *tokens) {
    if (token.kind == TokenKind::kStar) {
      ++stars;
    }
  }
  EXPECT_EQ(stars, 1u);
}

TEST(PqlLexerTest, KeywordsCaseInsensitive) {
  auto tokens = Tokenize("SELECT x FROM Provenance.file AS x");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kSelect);
}

TEST(PqlLexerTest, NumbersAndStrings) {
  auto tokens = Tokenize("42 3.5 'single' \"double\"");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].int_value, 42);
  EXPECT_DOUBLE_EQ((*tokens)[1].real_value, 3.5);
  EXPECT_EQ((*tokens)[2].text, "single");
  EXPECT_EQ((*tokens)[3].text, "double");
}

TEST(PqlLexerTest, CommentsSkipped) {
  auto tokens = Tokenize("select -- a comment\n x from Provenance.file as x");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[1].text, "x");
}

TEST(PqlLexerTest, ErrorsOnBadInput) {
  EXPECT_FALSE(Tokenize("select `x`").ok());
  EXPECT_FALSE(Tokenize("select \"unterminated").ok());
}

TEST(PqlParserTest, PaperSampleStructure) {
  auto query = ParseQuery(
      "select Ancestor\n"
      "from Provenance.file as Atlas\n"
      "     Atlas.input* as Ancestor\n"
      "where Atlas.name = \"atlas-x.gif\"");
  ASSERT_TRUE(query.ok());
  ASSERT_EQ((*query)->froms.size(), 2u);
  EXPECT_TRUE((*query)->froms[0].path.from_provenance);
  EXPECT_EQ((*query)->froms[0].path.root_set, "file");
  EXPECT_EQ((*query)->froms[0].variable, "Atlas");
  EXPECT_EQ((*query)->froms[1].path.variable, "Atlas");
  ASSERT_EQ((*query)->froms[1].path.steps.size(), 1u);
  EXPECT_EQ((*query)->froms[1].path.steps[0].closure, Closure::kStar);
  ASSERT_NE((*query)->where, nullptr);
}

TEST(PqlParserTest, InverseAndClosures) {
  auto query = ParseQuery(
      "select d from Provenance.file as f f.~input+ as d");
  ASSERT_TRUE(query.ok());
  const PathStep& step = (*query)->froms[1].path.steps[0];
  EXPECT_TRUE(step.inverse);
  EXPECT_EQ(step.closure, Closure::kPlus);
}

TEST(PqlParserTest, RejectsMalformedQueries) {
  EXPECT_FALSE(ParseQuery("select").ok());
  EXPECT_FALSE(ParseQuery("select x").ok());
  EXPECT_FALSE(ParseQuery("select x from").ok());
  EXPECT_FALSE(ParseQuery("select x from Provenance.file").ok());  // no 'as'
  EXPECT_FALSE(ParseQuery("from Provenance.file as x").ok());
  EXPECT_FALSE(ParseQuery("select x from Provenance.file as x extra!").ok());
}

TEST(PqlParserTest, SubqueryAndAggregates) {
  auto query = ParseQuery(
      "select count(f.input*) as n from Provenance.file as f "
      "where f in (select g from Provenance.file as g)");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ((*query)->selects[0].expr.kind, Expr::Kind::kAggregate);
  EXPECT_EQ((*query)->selects[0].alias, "n");
}

// ---- Evaluation over a known graph -------------------------------------------
//
// Graph (paper Figure 1 in miniature):
//   atlas-x.gif(p1) <- softmean(p2, PROC) <- reslice1(p3, PROC)
//   softmean <- anatomy1.img(p4, FILE), reslice1 <- anatomy2.img(p5, FILE)
//   other.gif(p6) <- otherproc(p7)

class PqlEvalTest : public ::testing::Test {
 protected:
  PqlEvalTest() : source_(&db_), engine_(&source_) {
    Put({1, 0}, core::Record::Name("atlas-x.gif"));
    Put({1, 0}, core::Record::Type("FILE"));
    Put({2, 0}, core::Record::Name("softmean"));
    Put({2, 0}, core::Record::Type("PROC"));
    Put({3, 0}, core::Record::Name("reslice1"));
    Put({3, 0}, core::Record::Type("PROC"));
    Put({4, 0}, core::Record::Name("anatomy1.img"));
    Put({4, 0}, core::Record::Type("FILE"));
    Put({5, 0}, core::Record::Name("anatomy2.img"));
    Put({5, 0}, core::Record::Type("FILE"));
    Put({6, 0}, core::Record::Name("other.gif"));
    Put({6, 0}, core::Record::Type("FILE"));
    Put({7, 0}, core::Record::Name("otherproc"));
    Put({7, 0}, core::Record::Type("PROC"));

    Edge({1, 0}, {2, 0});  // atlas <- softmean
    Edge({2, 0}, {3, 0});  // softmean <- reslice1
    Edge({2, 0}, {4, 0});  // softmean <- anatomy1
    Edge({3, 0}, {5, 0});  // reslice1 <- anatomy2
    Edge({6, 0}, {7, 0});  // other <- otherproc
  }

  void Put(core::ObjectRef ref, core::Record record) {
    db_.Insert({ref, std::move(record)});
  }
  void Edge(core::ObjectRef child, core::ObjectRef parent) {
    db_.Insert({child, core::Record::Input(parent)});
  }

  std::set<std::string> NamesIn(const QueryResult& result) {
    std::set<std::string> names;
    for (const auto& row : result.rows) {
      for (const Value& value : row) {
        if (value.is_node()) {
          names.insert(db_.NameOf(value.AsNode().pnode));
        } else {
          names.insert(value.ToString());
        }
      }
    }
    return names;
  }

  // One line per row, in order; under attribute_roots each line starts with
  // the row's root.
  std::vector<std::string> Render(const std::string& text,
                                  bool attribute_roots) {
    QueryOptions options;
    options.attribute_roots = attribute_roots;
    auto result = engine_.Run(text, options);
    EXPECT_TRUE(result.ok()) << text << ": " << result.status().ToString();
    std::vector<std::string> lines;
    if (!result.ok()) {
      return lines;
    }
    for (size_t i = 0; i < result->rows.size(); ++i) {
      std::string line =
          attribute_roots ? result->roots[i].ToString() + " -> " : "";
      for (const Value& value : result->rows[i]) {
        line += value.ToString() + "|";
      }
      lines.push_back(std::move(line));
    }
    return lines;
  }

  waldo::ProvDb db_;
  ProvDbSource source_;
  Engine engine_;
};

TEST_F(PqlEvalTest, PaperSampleQueryFindsAllAncestors) {
  auto result = engine_.Run(
      "select Ancestor\n"
      "from Provenance.file as Atlas\n"
      "     Atlas.input* as Ancestor\n"
      "where Atlas.name = \"atlas-x.gif\"");
  ASSERT_TRUE(result.ok());
  auto names = NamesIn(*result);
  // Zero-or-more closure includes the file itself plus the full chain.
  EXPECT_EQ(names,
            (std::set<std::string>{"atlas-x.gif", "softmean", "reslice1",
                                   "anatomy1.img", "anatomy2.img"}));
}

TEST_F(PqlEvalTest, PlusClosureExcludesSelf) {
  auto result = engine_.Run(
      "select a from Provenance.file as f f.input+ as a "
      "where f.name = \"atlas-x.gif\"");
  ASSERT_TRUE(result.ok());
  auto names = NamesIn(*result);
  EXPECT_EQ(names.count("atlas-x.gif"), 0u);
  EXPECT_EQ(names.count("softmean"), 1u);
}

TEST_F(PqlEvalTest, SingleStepOnlyDirectAncestors) {
  auto result = engine_.Run(
      "select a from Provenance.file as f f.input as a "
      "where f.name = \"atlas-x.gif\"");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(NamesIn(*result), (std::set<std::string>{"softmean"}));
}

TEST_F(PqlEvalTest, InverseTraversalFindsDescendants) {
  auto result = engine_.Run(
      "select d from Provenance.file as f f.~input* as d "
      "where f.name = \"anatomy2.img\"");
  ASSERT_TRUE(result.ok());
  auto names = NamesIn(*result);
  EXPECT_EQ(names,
            (std::set<std::string>{"anatomy2.img", "reslice1", "softmean",
                                   "atlas-x.gif"}));
}

TEST_F(PqlEvalTest, RootSetsFilterByType) {
  auto files = engine_.Run("select f from Provenance.file as f");
  ASSERT_TRUE(files.ok());
  EXPECT_EQ(files->rows.size(), 4u);
  auto procs = engine_.Run("select p from Provenance.process as p");
  ASSERT_TRUE(procs.ok());
  EXPECT_EQ(procs->rows.size(), 3u);
  auto all = engine_.Run("select o from Provenance.object as o");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->rows.size(), 7u);
}

TEST_F(PqlEvalTest, AttributeProjection) {
  auto result = engine_.Run(
      "select a.name from Provenance.file as f f.input+ as a "
      "where f.name = \"other.gif\"");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].ToString(), "otherproc");
}

TEST_F(PqlEvalTest, MultiColumnSelect) {
  auto result = engine_.Run(
      "select f.name, count(f.input+) as ancestors "
      "from Provenance.file as f where f.name like \"atlas*\"");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].ToString(), "atlas-x.gif");
  EXPECT_EQ(result->rows[0][1].AsInt(), 4);
  EXPECT_EQ(result->columns[1], "ancestors");
}

TEST_F(PqlEvalTest, LikeGlobMatching) {
  auto result = engine_.Run(
      "select f.name from Provenance.file as f "
      "where f.name like \"*.img\"");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(NamesIn(*result),
            (std::set<std::string>{"anatomy1.img", "anatomy2.img"}));
}

TEST_F(PqlEvalTest, SubqueryWithIn) {
  // Files whose ancestry includes any PROC named softmean.
  auto result = engine_.Run(
      "select f.name from Provenance.file as f "
      "where \"softmean\" in (select a.name from f.input+ as a)");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(NamesIn(*result), (std::set<std::string>{"atlas-x.gif"}));
}

TEST_F(PqlEvalTest, ExistsOverPath) {
  auto result = engine_.Run(
      "select f.name from Provenance.file as f "
      "where not exists(f.input)");
  ASSERT_TRUE(result.ok());
  // Leaves: files with no ancestors.
  EXPECT_EQ(NamesIn(*result),
            (std::set<std::string>{"anatomy1.img", "anatomy2.img"}));
}

TEST_F(PqlEvalTest, UnionMergesAndDedups) {
  auto result = engine_.Run(
      "select f.name from Provenance.file as f where f.name like \"*.img\" "
      "union "
      "select g.name from Provenance.file as g where g.name like "
      "\"anatomy1*\"");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 2u);
}

TEST_F(PqlEvalTest, AggregatesOverSubquery) {
  auto result = engine_.Run(
      "select count(select f from Provenance.file as f) as files "
      "from Provenance.object as unused_root "
      "where unused_root.pnode = 1");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].AsInt(), 4);
}

TEST_F(PqlEvalTest, NumericComparisonOnVirtualAttrs) {
  auto result = engine_.Run(
      "select o.pnode from Provenance.object as o where o.pnode <= 2");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 2u);
}

TEST_F(PqlEvalTest, UnboundVariableErrors) {
  auto result = engine_.Run(
      "select x from Provenance.file as f where ghost.name = \"x\"");
  EXPECT_FALSE(result.ok());
}

TEST_F(PqlEvalTest, CyclicVersionGraphDoesNotHang) {
  // Defensive: even a (corrupt) cyclic edge set terminates under closure.
  Edge({8, 0}, {9, 0});
  Edge({9, 0}, {8, 0});
  Put({8, 0}, core::Record::Type("FILE"));
  Put({8, 0}, core::Record::Name("cyc-a"));
  auto result = engine_.Run(
      "select a from Provenance.file as f f.input* as a "
      "where f.name = \"cyc-a\"");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 2u);
}

TEST_F(PqlEvalTest, TableRenderingIncludesLabels) {
  auto result = engine_.Run(
      "select f from Provenance.file as f where f.name = \"atlas-x.gif\"");
  ASSERT_TRUE(result.ok());
  std::string table = result->ToTable(&source_);
  EXPECT_NE(table.find("atlas-x.gif"), std::string::npos);
  EXPECT_NE(table.find("p1.v0"), std::string::npos);
}

// ---- Batched frontier ops ---------------------------------------------------

// Wraps a source and counts single-node vs batched calls: the evaluator
// must drive every link traversal and attribute lookup through the batched
// ops (whole frontiers), never the single-node fallbacks — that contract is
// what lets the federated source ship one RPC per shard per hop.
class CountingSource : public GraphSource {
 public:
  explicit CountingSource(const GraphSource* inner) : inner_(inner) {}

  std::vector<Node> RootSet(const std::string& name) const override {
    ++root_set_calls;
    return inner_->RootSet(name);
  }
  ValueSet Attribute(const Node& node, const std::string& attr) const override {
    ++single_attribute_calls;
    return inner_->Attribute(node, attr);
  }
  std::vector<Node> Follow(const Node& node, const std::string& link,
                           bool inverse) const override {
    ++single_follow_calls;
    return inner_->Follow(node, link, inverse);
  }
  std::vector<std::vector<Node>> FollowMany(const std::vector<Node>& nodes,
                                            const std::string& link,
                                            bool inverse) const override {
    ++follow_many_calls;
    max_follow_batch = std::max(max_follow_batch, nodes.size());
    followed.insert(nodes.begin(), nodes.end());
    return inner_->FollowMany(nodes, link, inverse);
  }
  std::vector<ValueSet> AttributeMany(const std::vector<Node>& nodes,
                                      const std::string& attr) const override {
    ++attribute_many_calls;
    attribute_batches.push_back(nodes.size());
    attribute_names.push_back(attr);
    return inner_->AttributeMany(nodes, attr);
  }
  bool IsLink(const std::string& name) const override {
    return inner_->IsLink(name);
  }
  std::string NodeLabel(const Node& node) const override {
    return inner_->NodeLabel(node);
  }

  mutable uint64_t root_set_calls = 0;
  mutable uint64_t single_follow_calls = 0;
  mutable uint64_t single_attribute_calls = 0;
  mutable uint64_t follow_many_calls = 0;
  mutable uint64_t attribute_many_calls = 0;
  mutable size_t max_follow_batch = 0;
  mutable std::set<Node> followed;  // every node a FollowMany expanded
  mutable std::vector<size_t> attribute_batches;  // nodes per AttributeMany
  mutable std::vector<std::string> attribute_names;  // attr per AttributeMany

 private:
  const GraphSource* inner_;
};

TEST_F(PqlEvalTest, EvaluatorTraversesWholeFrontiersThroughBatchedOps) {
  CountingSource counting(&source_);
  Engine counting_engine(&counting);
  const std::string query =
      "select Ancestor from Provenance.file as F F.input* as Ancestor "
      "where F.name = \"atlas-x.gif\"";
  auto batched = counting_engine.Run(query);
  ASSERT_TRUE(batched.ok());

  // Never the single-node fallbacks, always the batched ops.
  EXPECT_EQ(counting.single_follow_calls, 0u);
  EXPECT_EQ(counting.single_attribute_calls, 0u);
  EXPECT_GT(counting.follow_many_calls, 0u);
  EXPECT_GT(counting.attribute_many_calls, 0u);
  // Level-synchronous BFS: softmean's two ancestors (reslice1, anatomy1)
  // expand as one two-node frontier, not two calls.
  EXPECT_EQ(counting.max_follow_batch, 2u);

  // Batching changes the call pattern, not the answer.
  auto plain = engine_.Run(query);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(NamesIn(*batched), NamesIn(*plain));
}

// ProvDbSource implements only the batched core; its single-node
// Follow/Attribute are GraphSource's defaulted frontier-of-one wrappers and
// must agree with the batched answers element-wise.
TEST_F(PqlEvalTest, DefaultSingleNodeOpsMatchBatchedCore) {
  std::vector<Node> nodes = source_.RootSet("file");
  ASSERT_FALSE(nodes.empty());
  auto follows = source_.FollowMany(nodes, "input", /*inverse=*/false);
  auto attrs = source_.AttributeMany(nodes, "name");
  ASSERT_EQ(follows.size(), nodes.size());
  ASSERT_EQ(attrs.size(), nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(follows[i], source_.Follow(nodes[i], "input", false));
    EXPECT_EQ(attrs[i].size(), source_.Attribute(nodes[i], "name").size());
  }
}

// ---- Name-root binding ------------------------------------------------------

// A top-level `F.name = <literal>` conjunct on a bare Provenance root filters
// the roots before anything is expanded from them: one RootSet, one batched
// name lookup over the whole root set, and link traversal only from the
// root that matched.
TEST_F(PqlEvalTest, NameFilteredClosureExpandsOnlyTheNamedRoot) {
  CountingSource counting(&source_);
  auto result = Engine(&counting).Run(
      "select Ancestor from Provenance.file as F F.input* as Ancestor "
      "where F.name = \"atlas-x.gif\"");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 5u);

  EXPECT_EQ(counting.root_set_calls, 1u);
  EXPECT_EQ(counting.attribute_batches,
            std::vector<size_t>{source_.RootSet("file").size()});
  // atlas-x.gif, softmean, {reslice1, anatomy1}, anatomy2: the named
  // file's ancestry and nothing else (other.gif is never followed).
  EXPECT_EQ(counting.follow_many_calls, 4u);
  EXPECT_EQ(counting.followed,
            (std::set<Node>{{1, 0}, {2, 0}, {3, 0}, {4, 0}, {5, 0}}));
}

// The rule changes which roots are bound, never the answer: each query is
// compared with a reference the rule does not match (`like` on the exact
// name, or `in` for a numeric literal), rows in order, and under
// attribute_roots rows and roots in order.
TEST_F(PqlEvalTest, NameFilteredRootsAnswerLikeTheUnfilteredQuery) {
  // A renamed object: v0 was draft.txt, v1 is final.txt.
  Put({8, 0}, core::Record::Name("draft.txt"));
  Put({8, 0}, core::Record::Type("FILE"));
  Put({8, 1}, core::Record::Name("final.txt"));
  Edge({8, 1}, {8, 0});
  Edge({8, 0}, {4, 0});  // draft.txt <- anatomy1.img
  // One name on a file and on a process.
  Put({9, 0}, core::Record::Name("shared"));
  Put({9, 0}, core::Record::Type("FILE"));
  Put({10, 0}, core::Record::Name("shared"));
  Put({10, 0}, core::Record::Type("PROC"));
  Edge({9, 0}, {10, 0});
  // Names carried only by an annotation keyed `name`, one numeric.
  Put({11, 0}, core::Record::Type("FILE"));
  Put({11, 0}, core::Record::Annotation("name", int64_t{7}));
  Put({12, 0}, core::Record::Type("FILE"));
  Put({12, 0}, core::Record::Annotation("name", std::string("annotated.dat")));
  Edge({12, 0}, {11, 0});

  const std::string kClosure =
      "select Ancestor from Provenance.file as F F.input* as Ancestor ";
  struct Case {
    std::string query;
    std::string reference;
    size_t rows;
  };
  const Case kCases[] = {
      {kClosure + "where F.name = \"atlas-x.gif\"",
       kClosure + "where F.name like \"atlas-x.gif\"", 5},
      {kClosure + "where \"atlas-x.gif\" = F.name",
       kClosure + "where F.name like \"atlas-x.gif\"", 5},
      {kClosure + "where F.NAME = \"atlas-x.gif\"",
       kClosure + "where F.NAME like \"atlas-x.gif\"", 5},
      // Other conjuncts before and after keep their order and
      // short-circuit.
      {"select A.name from Provenance.file as F F.input* as A "
       "where A.type = \"PROC\" and F.name = \"atlas-x.gif\" and "
       "exists(A.input)",
       "select A.name from Provenance.file as F F.input* as A "
       "where A.type = \"PROC\" and F.name like \"atlas-x.gif\" and "
       "exists(A.input)",
       2},
      // Two name conjuncts: a root must satisfy both.
      {kClosure + "where F.name = \"draft.txt\" and F.name = \"final.txt\"",
       kClosure + "where F.name like \"draft.txt\" and "
                  "F.name like \"final.txt\"",
       3},
      {kClosure + "where F.name = \"atlas-x.gif\" and F.name = \"other.gif\"",
       kClosure + "where F.name like \"atlas-x.gif\" and "
                  "F.name like \"other.gif\"",
       0},
      // Each union branch binds its own roots.
      {"select F.name from Provenance.file as F where F.name = \"other.gif\" "
       "union select A.name from Provenance.process as P P.input* as A "
       "where P.name = \"softmean\"",
       "select F.name from Provenance.file as F "
       "where F.name like \"other.gif\" "
       "union select A.name from Provenance.process as P P.input* as A "
       "where P.name like \"softmean\"",
       5},
      // A subquery, re-evaluated per outer binding.
      {"select F.name from Provenance.file as F where F in "
       "(select D from Provenance.process as P P.~input* as D "
       "where P.name = \"reslice1\")",
       "select F.name from Provenance.file as F where F in "
       "(select D from Provenance.process as P P.~input* as D "
       "where P.name like \"reslice1\")",
       1},
      {"select D from Provenance.process as P P.~input* as D "
       "where P.name = \"reslice1\"",
       "select D from Provenance.process as P P.~input* as D "
       "where P.name like \"reslice1\"",
       3},
      {"select O from Provenance.object as O where O.name = \"shared\"",
       "select O from Provenance.object as O where O.name like \"shared\"",
       2},
      {"select F from Provenance.file as F where F.name = \"shared\"",
       "select F from Provenance.file as F where F.name like \"shared\"", 1},
      // Every version's name belongs to the object.
      {kClosure + "where F.name = \"draft.txt\"",
       kClosure + "where F.name like \"draft.txt\"", 3},
      {kClosure + "where F.name = \"annotated.dat\"",
       kClosure + "where F.name like \"annotated.dat\"", 2},
      {"select F.pnode from Provenance.file as F where F.name = 7",
       "select F.pnode from Provenance.file as F where F.name in 7", 1},
      {"select F.pnode from Provenance.file as F where F.name = 7.0",
       "select F.pnode from Provenance.file as F where F.name in 7.0", 1},
      // Not the rule's shape: F is rebound by a later FROM item, or the
      // name test sits under `or`.
      {"select F from Provenance.file as F F.input+ as F "
       "where F.name = \"softmean\"",
       "select F from Provenance.file as F F.input+ as F "
       "where F.name like \"softmean\"",
       1},
      {kClosure + "where F.name = \"other.gif\" or F.name = \"anatomy2.img\"",
       kClosure + "where F.name like \"other.gif\" or "
                  "F.name like \"anatomy2.img\"",
       3},
  };
  for (const Case& c : kCases) {
    std::vector<std::string> rows = Render(c.query, false);
    EXPECT_EQ(rows.size(), c.rows) << c.query;
    EXPECT_EQ(rows, Render(c.reference, false)) << c.query;
    EXPECT_EQ(Render(c.query, true), Render(c.reference, true)) << c.query;
  }
}

// ---- Shared walk ------------------------------------------------------------

// A closure variable that only `where` tests is never bound: one walk over
// the union of the closures decides every binding. Each query is compared
// with a reference the rule does not match, the same text plus the always
// true `(A = A or P = P)`, which reads both variables: rows in order, and
// under attribute_roots rows and roots in order.
TEST_F(PqlEvalTest, SharedWalkAnswersLikeBindingEveryAncestor) {
  Put({5, 0}, core::Record::Annotation("taint", int64_t{1}));  // anatomy2
  Put({7, 0}, core::Record::Annotation("taint", int64_t{1}));  // otherproc
  // A cycle a -> b -> c -> a with a tail pointing into it, tainted at a.
  const char* kPipes[] = {"cyc-a", "cyc-b", "cyc-c", "cyc-tail"};
  for (int i = 0; i < 4; ++i) {
    core::ObjectRef ref{static_cast<core::PnodeId>(8 + i), 0};
    Put(ref, core::Record::Name(kPipes[i]));
    Put(ref, core::Record::Type("PIPE"));
  }
  Edge({8, 0}, {9, 0});
  Edge({9, 0}, {10, 0});
  Edge({10, 0}, {8, 0});
  Edge({11, 0}, {8, 0});
  Put({8, 0}, core::Record::Annotation("taint", int64_t{1}));

  struct Case {
    std::string query;
    std::string reference;
    size_t rows;
  };
  auto with = [](const std::string& query, const std::string& root) {
    return query + " and (A = A or " + root + " = " + root + ")";
  };
  auto plain = [&](const std::string& query, size_t rows) {
    return Case{query, with(query, "P"), rows};
  };
  const std::string kProcs = "select P.name from Provenance.process as P ";
  const std::string kFiles = "select P.name from Provenance.file as P ";
  const std::string kPipeRoots = "select P.name from Provenance.pipe as P ";
  const Case kCases[] = {
      plain(kProcs + "P.input* as A where A.taint = 1", 3),
      plain(kProcs + "P.input+ as A where A.taint = 1", 2),
      // reslice1 passes the test as softmean's member, but is not in its
      // own `+` closure.
      plain(kProcs + "P.input+ as A where A.name = \"reslice1\"", 1),
      plain(kFiles + "P.~input* as A where A.taint = 1", 1),
      plain(kFiles + "P.~input+ as A where A.type = \"PROC\"", 2),
      // Several tests, each on every member.
      plain(kProcs + "P.input* as A where A.type = \"FILE\" and A.taint = 1",
            2),
      // Conjuncts before the tests filter the starts, ones after the kept
      // bindings.
      plain(kProcs + "P.input* as A where P.name != \"reslice1\" and "
                     "A.taint = 1 and exists(P.input)",
            1),
      // Name-root binding first, then the walk.
      plain(kProcs + "P.input* as A where P.name = \"reslice1\" and "
                     "A.taint = 1",
            1),
      plain(kProcs + "P.input+ as A where P.name = \"otherproc\" and "
                     "A.taint = 1",
            0),
      // An empty `+` closure binds no A, so no conjunct runs on it: the
      // unbound `ghost` is never read.
      plain(kProcs + "P.input+ as A where P.name = \"otherproc\" and "
                     "ghost.name = 1 and A.taint = 1",
            0),
      // No test at all: a binding is kept if its closure is not empty.
      {kProcs + "P.input+ as A", kProcs + "P.input+ as A where A = A or P = P",
       2},
      // A three-item FROM walks from the middle variable.
      {"select F.name from Provenance.file as F F.input as G G.input* as A "
       "where A.taint = 1",
       with("select F.name from Provenance.file as F F.input as G "
            "G.input* as A where A.taint = 1",
            "F"),
       2},
      // Each union branch walks on its own.
      {kFiles + "P.~input+ as A where A.type = \"PROC\" union " + kProcs +
           "P.input+ as A where A.taint = 1",
       with(kFiles + "P.~input+ as A where A.type = \"PROC\"", "P") +
           " union " + with(kProcs + "P.input+ as A where A.taint = 1", "P"),
       4},
      // A subquery, re-evaluated per outer binding, walks from a variable
      // bound from the outer one.
      {"select F.name from Provenance.file as F where exists(select P "
       "from F.input as P P.input* as A where A.taint = 1)",
       "select F.name from Provenance.file as F where exists(" +
           with("select P from F.input as P P.input* as A where A.taint = 1",
                "P") +
           ")",
       2},
      // The cycle, on every closure kind.
      plain(kPipeRoots + "P.input* as A where A.taint = 1", 4),
      plain(kPipeRoots + "P.input+ as A where A.taint = 1", 4),
      plain(kPipeRoots + "P.~input* as A where A.taint = 1", 3),
      plain(kPipeRoots + "P.~input+ as A where A.taint = 1", 3),
      // Not the rule's shape: select reads A, or a conjunct on P sits
      // between two tests.
      plain("select A.name from Provenance.process as P P.input* as A "
            "where A.taint = 1",
            2),
      plain(kProcs + "P.input* as A where A.taint = 1 and "
                     "P.name != \"reslice1\" and A.type = \"FILE\"",
            1),
  };
  for (const Case& c : kCases) {
    std::vector<std::string> rows = Render(c.query, false);
    EXPECT_EQ(rows.size(), c.rows) << c.query;
    EXPECT_EQ(rows, Render(c.reference, false)) << c.query;
    EXPECT_EQ(Render(c.query, true), Render(c.reference, true)) << c.query;
  }
}

// A 64-file chain /f64 -> /f63 -> ... -> /f1 along `input`, with only /f1
// annotated taint = 1.
void InsertChain(waldo::ProvDb* db) {
  for (int i = 1; i <= 64; ++i) {
    core::ObjectRef ref{static_cast<core::PnodeId>(i), 0};
    db->Insert({ref, core::Record::Type("FILE")});
    db->Insert({ref, core::Record::Name("/f" + std::to_string(i))});
    if (i > 1) {
      db->Insert({ref, core::Record::Input(
                           {static_cast<core::PnodeId>(i - 1), 0})});
    }
  }
  db->Insert({{1, 0}, core::Record::Annotation("taint", int64_t{1})});
}

const char kChainTaint[] =
    "select F.name from Provenance.file as F F.input* as A "
    "where A.taint = 1";

// Every file's closure on the chain ends at /f1, and the closures nest: one
// batched expansion of all 64 roots reaches nothing new, and each file is
// tested once. Binding every ancestor of every file instead expands the
// 64 * 65 / 2 = 2080 pairs one root at a time, and tests each pair.
TEST(PqlSharedWalkTest, OneBatchedCallPerLevelAndOneTestPerMember) {
  waldo::ProvDb db;
  InsertChain(&db);
  ProvDbSource source(&db);
  auto taint_lookups = [](const CountingSource& counting) {
    size_t nodes = 0;
    for (size_t i = 0; i < counting.attribute_names.size(); ++i) {
      if (counting.attribute_names[i] == "taint") {
        nodes += counting.attribute_batches[i];
      }
    }
    return nodes;
  };

  CountingSource counting(&source);
  auto walked = Engine(&counting).Run(kChainTaint);
  ASSERT_TRUE(walked.ok()) << walked.status().ToString();
  EXPECT_EQ(walked->rows.size(), 64u);
  EXPECT_EQ(counting.follow_many_calls, 1u);
  EXPECT_EQ(counting.max_follow_batch, 64u);
  EXPECT_EQ(counting.followed.size(), 64u);
  EXPECT_EQ(taint_lookups(counting), 64u);
  EXPECT_EQ(std::count(counting.attribute_names.begin(),
                       counting.attribute_names.end(), "taint"),
            64);

  // Not the rule's shape (a conjunct on F between two tests): every
  // ancestor of every file is bound.
  CountingSource bound(&source);
  auto every = Engine(&bound).Run(
      "select F.name from Provenance.file as F F.input* as A "
      "where A.taint = 1 and F.name like \"/f*\" and A.taint = 1");
  ASSERT_TRUE(every.ok()) << every.status().ToString();
  EXPECT_EQ(every->rows.size(), 64u);
  EXPECT_EQ(bound.follow_many_calls, 2080u);
  // The first test runs on all 2080 pairs, the second on the 64 that pass.
  EXPECT_EQ(taint_lookups(bound), 2080u + 64u);
}

TEST(PqlLimitsTest, BindingExplosionIsBounded) {
  waldo::ProvDb db;
  for (int i = 0; i < 64; ++i) {
    db.Insert({{static_cast<core::PnodeId>(i + 1), 0},
               core::Record::Type("FILE")});
  }
  ProvDbSource source(&db);
  QueryOptions options;
  options.limits.max_bindings = 100;
  Engine engine(&source, options);
  // 64 x 64 = 4096 bindings > 100.
  auto result = engine.Run(
      "select a from Provenance.file as a Provenance.file as b");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Code::kUnavailable);
}

// Only the roots a name conjunct keeps count against the limits: on a
// 64-file chain, expanding every file's closure binds 64 * 65 / 2 = 2080
// ancestors, but the named tail's ancestry is 64.
TEST(PqlLimitsTest, NameFilteredClosureBindsOnlyTheNamedRoot) {
  waldo::ProvDb db;
  InsertChain(&db);
  ProvDbSource source(&db);
  QueryOptions options;
  options.limits.max_bindings = 100;
  Engine engine(&source, options);
  const std::string kClosure =
      "select A from Provenance.file as F F.input* as A ";

  auto every = engine.Run(kClosure + "where F.name like \"/f64\"");
  ASSERT_FALSE(every.ok());
  EXPECT_EQ(every.status().code(), Code::kUnavailable);

  auto named = engine.Run(kClosure + "where F.name = \"/f64\"");
  ASSERT_TRUE(named.ok()) << named.status().ToString();
  EXPECT_EQ(named->rows.size(), 64u);
}

// A walked variable adds no bindings, and the walk's distinct nodes count
// against max_closure_nodes: the chain's walk binds 64 files and visits 64
// nodes, where binding every ancestor binds 2080.
TEST(PqlLimitsTest, SharedWalkBindsNoClosureMembers) {
  waldo::ProvDb db;
  InsertChain(&db);
  ProvDbSource source(&db);
  QueryOptions options;
  options.limits.max_bindings = 100;

  auto walked = Engine(&source, options).Run(kChainTaint);
  ASSERT_TRUE(walked.ok()) << walked.status().ToString();
  EXPECT_EQ(walked->rows.size(), 64u);

  auto bound = Engine(&source, options)
                   .Run(std::string(kChainTaint) + " and (A = A or F = F)");
  ASSERT_FALSE(bound.ok());
  EXPECT_EQ(bound.status().code(), Code::kUnavailable);

  options.limits.max_closure_nodes = 63;
  auto capped = Engine(&source, options).Run(kChainTaint);
  ASSERT_FALSE(capped.ok());
  EXPECT_EQ(capped.status().code(), Code::kUnavailable);
}

}  // namespace
}  // namespace pass::pql
