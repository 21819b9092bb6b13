// Tests for the standing-query tier: PQL queries registered once and kept
// incrementally fresh over streaming audit ingest. The invariant under test
// everywhere: after every Refresh(), a standing query's materialized result
// equals a from-scratch evaluation of the same text over a fresh federated
// source — across plain ingest rounds, live migration, and crash+Recover.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/standing.h"
#include "src/os/kernel.h"
#include "src/pql/eval.h"
#include "src/workloads/audit_stream.h"

namespace pass::cluster {
namespace {

using workloads::AuditStreamGenerator;
using workloads::AuditStreamOptions;

ClusterOptions SmallCluster(int shards) {
  ClusterOptions options;
  options.shards = shards;
  options.ingest_batch_records = 16;
  return options;
}

AuditStreamOptions SmallStream() {
  AuditStreamOptions options;
  options.processes_per_shard = 2;
  options.reads_per_process = 1;
  options.taint_sources = 1;
  options.taint_fraction = 0.5;
  options.cross_shard_fraction = 0.5;
  return options;
}

std::set<std::string> RowSet(const pql::QueryResult& result) {
  std::set<std::string> rows;
  for (const auto& row : result.rows) {
    std::string line;
    for (const pql::Value& value : row) {
      line += value.ToString();
      line += '|';
    }
    rows.insert(line);
  }
  return rows;
}

// The naive baseline: re-evaluate the text from scratch over a fresh
// federated source wired to the live map.
std::set<std::string> FullAnswer(ClusterCoordinator* cluster,
                                 const std::string& query) {
  FederatedSource source = cluster->Source();
  pql::Engine engine(&source);
  auto result = engine.Run(query);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? RowSet(*result) : std::set<std::string>{};
}

std::set<std::string> StandingAnswer(const StandingQueryTier& tier,
                                     uint64_t id) {
  auto result = tier.ResultOf(id);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? RowSet(*result) : std::set<std::string>{};
}

// Hand-built lineage on one shard's machine: a process named `name` reads
// each of `reads`, then writes `write` (nothing when empty).
void RunProcess(ClusterCoordinator* cluster, int shard, const std::string& name,
                const std::vector<std::string>& reads,
                const std::string& write) {
  os::Kernel& kernel = cluster->machine(shard).kernel();
  os::Pid pid = kernel.Spawn(name);
  for (const std::string& path : reads) {
    auto fd = kernel.Open(pid, path, os::kOpenRead);
    ASSERT_TRUE(fd.ok()) << path;
    std::string data;
    ASSERT_TRUE(kernel.Read(pid, *fd, 64, &data).ok());
    ASSERT_TRUE(kernel.Close(pid, *fd).ok());
  }
  if (!write.empty()) {
    auto fd = kernel.Open(pid, write, os::kOpenWrite | os::kOpenCreate);
    ASSERT_TRUE(fd.ok()) << write;
    ASSERT_TRUE(kernel.Write(pid, *fd, name).ok());
    ASSERT_TRUE(kernel.Close(pid, *fd).ok());
  }
}

// Disclose `records` about `path` on `shard` through the DPAPI, from a
// fresh process named `name`.
void Disclose(ClusterCoordinator* cluster, int shard, const std::string& name,
              const std::string& path,
              const std::vector<core::Record>& records) {
  workloads::Machine& machine = cluster->machine(shard);
  os::Pid pid = machine.kernel().Spawn(name);
  auto ref = machine.pass()->RefOfPath(path);
  ASSERT_TRUE(ref.ok()) << path;
  ASSERT_TRUE(machine.pass()->DiscloseRecords(pid, *ref, records).ok());
}

core::Record Taint() {
  return core::Record::Annotation("taint", static_cast<int64_t>(1));
}

TEST(StandingQueryTest, IncrementalMatchesFullEvalEachRound) {
  ClusterCoordinator cluster(SmallCluster(2));
  AuditStreamGenerator stream(&cluster, SmallStream());
  ASSERT_TRUE(stream.SeedTaintSources().ok());

  StandingQueryTier tier(&cluster);
  pql::QueryOptions options;
  options.trace_label = "taint-watch";
  auto descend = tier.Register(AuditStreamGenerator::TaintDescendantQuery(),
                               options);
  auto ancestry = tier.Register(AuditStreamGenerator::TaintAncestryQuery());
  ASSERT_TRUE(descend.ok());
  ASSERT_TRUE(ancestry.ok());
  EXPECT_TRUE(*tier.IsIncremental(*descend));
  EXPECT_TRUE(*tier.IsIncremental(*ancestry));

  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(stream.StreamRound().ok());
    auto notes = tier.Refresh();
    ASSERT_TRUE(notes.ok()) << notes.status().ToString();
    EXPECT_EQ(StandingAnswer(tier, *descend),
              FullAnswer(&cluster, AuditStreamGenerator::TaintDescendantQuery()))
        << "round " << round;
    EXPECT_EQ(StandingAnswer(tier, *ancestry),
              FullAnswer(&cluster, AuditStreamGenerator::TaintAncestryQuery()))
        << "round " << round;
  }
  // Only the registration seeds ran as full evaluations.
  EXPECT_GT(tier.stats().incremental_evals, 0u);
  EXPECT_EQ(tier.stats().full_evals, 0u);
  EXPECT_GT(tier.stats().frontier_entries, 0u);

  // Ground truth: every process the generator knows read taint (directly or
  // through a tainted file) is flagged by the descendant watchlist.
  std::set<std::string> flagged;
  auto result = tier.ResultOf(*descend);
  ASSERT_TRUE(result.ok());
  for (const auto& row : result->rows) {
    for (const pql::Value& value : row) {
      flagged.insert(value.ToString());
    }
  }
  EXPECT_FALSE(stream.expected_tainted_processes().empty());
  for (const std::string& name : stream.expected_tainted_processes()) {
    EXPECT_EQ(flagged.count(name), 1u) << name;
  }
}

TEST(StandingQueryTest, NotificationsAppearExactlyOnce) {
  ClusterCoordinator cluster(SmallCluster(2));
  AuditStreamGenerator stream(&cluster, SmallStream());
  ASSERT_TRUE(stream.SeedTaintSources().ok());

  StandingQueryTier tier(&cluster);
  auto id = tier.Register(AuditStreamGenerator::TaintDescendantQuery());
  ASSERT_TRUE(id.ok());

  std::set<std::string> notified;
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(stream.StreamRound().ok());
    auto notes = tier.Refresh();
    ASSERT_TRUE(notes.ok());
    for (const StandingNotification& note : *notes) {
      EXPECT_EQ(note.query_id, *id);
      std::string line;
      for (const pql::Value& value : note.row) {
        line += value.ToString();
        line += '|';
      }
      // A row never notifies twice while it stays present.
      EXPECT_TRUE(notified.insert(line).second) << line;
    }
  }
  // Everything standing was notified, and nothing else.
  EXPECT_EQ(notified, StandingAnswer(tier, *id));
  EXPECT_EQ(tier.stats().notifications, notified.size());
}

TEST(StandingQueryTest, RegisterRejectsPinnedEpochConsistency) {
  ClusterCoordinator cluster(SmallCluster(2));
  StandingQueryTier tier(&cluster);
  pql::QueryOptions options;
  options.consistency = pql::Consistency::kPinnedEpoch;
  auto id = tier.Register(AuditStreamGenerator::TaintDescendantQuery(),
                          options);
  EXPECT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), Code::kInvalidArgument);
  EXPECT_EQ(tier.query_count(), 0u);
}

TEST(StandingQueryTest, NonIncrementalShapesFallBackAndStayCorrect) {
  ClusterCoordinator cluster(SmallCluster(2));
  AuditStreamGenerator stream(&cluster, SmallStream());
  ASSERT_TRUE(stream.SeedTaintSources().ok());

  StandingQueryTier tier(&cluster);
  // A second Provenance-rooted FROM: root restriction cannot cover it, so
  // the tier must re-evaluate from scratch each refresh — and say so.
  const std::string join =
      "select F.name, T.name from Provenance.file as F Provenance.file as T "
      "where F.name = T.name and T.taint = 1";
  auto id = tier.Register(join);
  ASSERT_TRUE(id.ok());
  EXPECT_FALSE(*tier.IsIncremental(*id));

  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(stream.StreamRound().ok());
    ASSERT_TRUE(tier.Refresh().ok());
    EXPECT_EQ(StandingAnswer(tier, *id), FullAnswer(&cluster, join))
        << "round " << round;
  }
  EXPECT_GT(tier.stats().full_evals, 0u);
  EXPECT_EQ(tier.stats().incremental_evals, 0u);
}

TEST(StandingQueryTest, AffectedWalkOverflowFallsBackWithoutDivergence) {
  ClusterCoordinator cluster(SmallCluster(2));
  AuditStreamGenerator stream(&cluster, SmallStream());
  ASSERT_TRUE(stream.SeedTaintSources().ok());

  StandingQueryTier tier(&cluster);
  // No link steps, so the query's own evaluation never expands a closure —
  // but each round's frontier delta alone exceeds the tiny limit, forcing
  // the affected-root walk into its re-evaluate-everything fallback.
  const std::string attrs_only =
      "select F.name from Provenance.file as F where F.taint = 1";
  pql::QueryOptions tiny;
  tiny.limits.max_closure_nodes = 4;
  auto id = tier.Register(attrs_only, tiny);
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(*tier.IsIncremental(*id));

  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(stream.StreamRound().ok());
    ASSERT_TRUE(tier.Refresh().ok());
    EXPECT_EQ(StandingAnswer(tier, *id), FullAnswer(&cluster, attrs_only))
        << "round " << round;
  }
  EXPECT_GT(tier.stats().walk_overflows, 0u);
}

// Limits are a registration contract: when the data outgrows them, Refresh
// surfaces the evaluator's limit error (the naive baseline with the same
// limits errors identically) instead of silently truncating, and the tier
// recovers once the offending query is unregistered.
TEST(StandingQueryTest, EvalLimitErrorsSurfaceAndUnregisterRecovers) {
  ClusterCoordinator cluster(SmallCluster(2));
  AuditStreamGenerator stream(&cluster, SmallStream());
  ASSERT_TRUE(stream.SeedTaintSources().ok());

  StandingQueryTier tier(&cluster);
  pql::QueryOptions tiny;
  tiny.limits.max_closure_nodes = 1;
  auto bounded = tier.Register(AuditStreamGenerator::TaintDescendantQuery(),
                               tiny);
  auto healthy = tier.Register(AuditStreamGenerator::TaintDescendantQuery());
  ASSERT_TRUE(bounded.ok());
  ASSERT_TRUE(healthy.ok());

  ASSERT_TRUE(stream.StreamRound().ok());
  auto refreshed = tier.Refresh();
  EXPECT_FALSE(refreshed.ok());
  EXPECT_EQ(refreshed.status().code(), Code::kUnavailable);

  ASSERT_TRUE(tier.Unregister(*bounded).ok());
  ASSERT_TRUE(tier.Refresh().ok());
  EXPECT_EQ(
      StandingAnswer(tier, *healthy),
      FullAnswer(&cluster, AuditStreamGenerator::TaintDescendantQuery()));
}

TEST(StandingQueryTest, SurvivesLiveMigrationMidStream) {
  ClusterCoordinator cluster(SmallCluster(3));
  AuditStreamGenerator stream(&cluster, SmallStream());
  ASSERT_TRUE(stream.SeedTaintSources().ok());

  StandingQueryTier tier(&cluster);
  auto id = tier.Register(AuditStreamGenerator::TaintDescendantQuery());
  ASSERT_TRUE(id.ok());
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(stream.StreamRound().ok());
    ASSERT_TRUE(tier.Refresh().ok());
  }

  // Move everything shard 0 allocated (taint source included) to shard 2,
  // then keep streaming: frontier entries for the moved range must be
  // owner-attributed through the live map.
  core::PnodeRange range{core::ShardSpace(0).begin,
                         cluster.machine(0).allocator().peek_next()};
  ASSERT_TRUE(cluster.MigrateRange(range, 2).ok());
  ASSERT_TRUE(tier.Refresh().ok());
  EXPECT_EQ(StandingAnswer(tier, *id),
            FullAnswer(&cluster, AuditStreamGenerator::TaintDescendantQuery()));

  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(stream.StreamRound().ok());
    ASSERT_TRUE(tier.Refresh().ok());
    EXPECT_EQ(
        StandingAnswer(tier, *id),
        FullAnswer(&cluster, AuditStreamGenerator::TaintDescendantQuery()))
        << "post-migration round " << round;
  }

  // And back again.
  ASSERT_TRUE(cluster.MigrateRange(range, 0).ok());
  ASSERT_TRUE(stream.StreamRound().ok());
  ASSERT_TRUE(tier.Refresh().ok());
  EXPECT_EQ(StandingAnswer(tier, *id),
            FullAnswer(&cluster, AuditStreamGenerator::TaintDescendantQuery()));
}

// Crash points a clean (seed + one round + refresh, then another round)
// sequence passes inside the second round's ingest.
uint64_t CountRoundCrashPoints() {
  ClusterCoordinator cluster(SmallCluster(2));
  AuditStreamGenerator stream(&cluster, SmallStream());
  EXPECT_TRUE(stream.SeedTaintSources().ok());
  StandingQueryTier tier(&cluster);
  auto id = tier.Register(AuditStreamGenerator::TaintDescendantQuery());
  EXPECT_TRUE(id.ok());
  EXPECT_TRUE(stream.StreamRound().ok());
  EXPECT_TRUE(tier.Refresh().ok());
  uint64_t before = cluster.env().crash_points_passed();
  EXPECT_TRUE(stream.StreamRound().ok());
  return cluster.env().crash_points_passed() - before;
}

// Acceptance (journal_test style): crash the coordinator mid-ingest at a
// sweep of injection points; after Recover(), the next Refresh() must leave
// the standing result equal to a from-scratch evaluation, with no
// duplicated notifications.
TEST(StandingQueryTest, CrashDuringIngestRecoversConsistently) {
  uint64_t points = CountRoundCrashPoints();
  ASSERT_GT(points, 2u);
  uint64_t stride = points / 5 == 0 ? 1 : points / 5;

  for (uint64_t point = 0; point < points; point += stride) {
    ClusterCoordinator cluster(SmallCluster(2));
    AuditStreamGenerator stream(&cluster, SmallStream());
    ASSERT_TRUE(stream.SeedTaintSources().ok());
    StandingQueryTier tier(&cluster);
    auto id = tier.Register(AuditStreamGenerator::TaintDescendantQuery());
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(stream.StreamRound().ok());
    std::set<std::string> notified;
    auto first = tier.Refresh();
    ASSERT_TRUE(first.ok());
    for (const StandingNotification& note : *first) {
      std::string line;
      for (const pql::Value& value : note.row) {
        line += value.ToString() + "|";
      }
      notified.insert(line);
    }

    cluster.env().CrashAfterOps(point);
    Status crashed = stream.StreamRound();
    EXPECT_FALSE(crashed.ok()) << "point " << point;
    auto recovery = cluster.Recover();
    ASSERT_TRUE(recovery.ok())
        << "point " << point << ": " << recovery.status().ToString();

    auto notes = tier.Refresh();
    ASSERT_TRUE(notes.ok()) << "point " << point;
    for (const StandingNotification& note : *notes) {
      std::string line;
      for (const pql::Value& value : note.row) {
        line += value.ToString() + "|";
      }
      EXPECT_TRUE(notified.insert(line).second)
          << "duplicate notification at point " << point << ": " << line;
    }
    EXPECT_EQ(
        StandingAnswer(tier, *id),
        FullAnswer(&cluster, AuditStreamGenerator::TaintDescendantQuery()))
        << "point " << point;
    EXPECT_EQ(notified, StandingAnswer(tier, *id)) << "point " << point;

    // The repaired cluster keeps streaming and the tier keeps up.
    ASSERT_TRUE(stream.StreamRound().ok()) << "point " << point;
    ASSERT_TRUE(tier.Refresh().ok()) << "point " << point;
    EXPECT_EQ(
        StandingAnswer(tier, *id),
        FullAnswer(&cluster, AuditStreamGenerator::TaintDescendantQuery()))
        << "point " << point;
  }
}

// ---- Extension: the cases the semi-naive path must not get wrong -----------
//
// Each test compares every registered query with a from-scratch evaluation
// after every Refresh().

void ExpectFresh(ClusterCoordinator* cluster, const StandingQueryTier& tier,
                 const std::vector<uint64_t>& ids,
                 const std::vector<std::string>& texts,
                 const std::string& when) {
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(StandingAnswer(tier, ids[i]), FullAnswer(cluster, texts[i]))
        << texts[i] << " " << when;
  }
}

std::vector<uint64_t> RegisterAll(StandingQueryTier* tier,
                                  const std::vector<std::string>& texts) {
  std::vector<uint64_t> ids;
  for (const std::string& text : texts) {
    auto id = tier->Register(text);
    EXPECT_TRUE(id.ok()) << text;
    ids.push_back(id.ok() ? *id : 0);
  }
  return ids;
}

// An existing file annotated taint = 1 through the DPAPI after it already
// has descendants. The annotation freezes the file into a new version and
// adds no edge any old process reaches, but AttributeMany reads every
// version of a pnode, so the whole closure downstream of the old version
// joins the ancestry watchlist: the processes reaching the file are
// replaced, not extended.
TEST(StandingExtensionTest, AnnotatedFileBringsItsWholeClosure) {
  ClusterCoordinator cluster(SmallCluster(2));
  RunProcess(&cluster, 0, "writer", {}, "/a");
  RunProcess(&cluster, 0, "p1", {"/a"}, "/b");
  RunProcess(&cluster, 0, "p2", {"/b"}, "/c");
  RunProcess(&cluster, 1, "bystander", {}, "/z");
  ASSERT_TRUE(cluster.Sync().ok());

  StandingQueryTier tier(&cluster);
  const std::vector<std::string> texts = {
      AuditStreamGenerator::TaintAncestryQuery(),
      AuditStreamGenerator::TaintDescendantQuery()};
  std::vector<uint64_t> ids = RegisterAll(&tier, texts);
  EXPECT_TRUE(*tier.IsExtensible(ids[0]));
  EXPECT_TRUE(*tier.IsExtensible(ids[1]));
  ASSERT_TRUE(tier.Refresh().ok());
  ExpectFresh(&cluster, tier, ids, texts, "before the annotation");
  EXPECT_TRUE(StandingAnswer(tier, ids[0]).empty());

  Disclose(&cluster, 0, "annotator", "/a", {Taint()});
  ASSERT_TRUE(cluster.Sync().ok());
  ASSERT_TRUE(tier.Refresh().ok());
  ExpectFresh(&cluster, tier, ids, texts, "after the annotation");
  EXPECT_EQ(StandingAnswer(tier, ids[0]),
            (std::set<std::string>{"p1|", "p2|"}));
}

// A root pnode that gets a new version. A disclosed INPUT row names a later
// version of a tainted file, so the file's root binding moves to that
// version, whose descendants hold none of the old version's readers. The
// version arrives through an edge row alone, with no attribute row, so the
// identity rule is what replaces the root and drops its old rows.
TEST(StandingExtensionTest, ReversionedRootDropsItsOldRows) {
  ClusterCoordinator cluster(SmallCluster(2));
  RunProcess(&cluster, 1, "seeder", {}, "/t");
  Disclose(&cluster, 1, "annotator", "/t", {Taint()});
  RunProcess(&cluster, 1, "reader", {"/t"}, "/r");
  RunProcess(&cluster, 0, "writer", {}, "/o");
  ASSERT_TRUE(cluster.Sync().ok());

  StandingQueryTier tier(&cluster);
  const std::vector<std::string> texts = {
      AuditStreamGenerator::TaintDescendantQuery()};
  std::vector<uint64_t> ids = RegisterAll(&tier, texts);
  ASSERT_TRUE(tier.Refresh().ok());
  ExpectFresh(&cluster, tier, ids, texts, "before the new version");
  EXPECT_EQ(StandingAnswer(tier, ids[0]), std::set<std::string>{"reader|"});

  auto tainted = cluster.machine(1).pass()->RefOfPath("/t");
  ASSERT_TRUE(tainted.ok());
  core::ObjectRef later{tainted->pnode, tainted->version + 1};
  Disclose(&cluster, 0, "discloser", "/o", {core::Record::Input(later)});
  ASSERT_TRUE(cluster.Sync().ok());
  ASSERT_TRUE(tier.Refresh().ok());
  ExpectFresh(&cluster, tier, ids, texts, "after the new version");
  EXPECT_TRUE(StandingAnswer(tier, ids[0]).empty());
}

// An INPUT edge disclosed from an existing output to an existing file: the
// new edge's head already has descendants (a reader on another shard, whose
// read the output's own machine never saw, so the output is not frozen).
// The extension must walk on from the head into that old closure.
TEST(StandingExtensionTest, NewEdgeHeadBringsItsOldDescendants) {
  ClusterCoordinator cluster(SmallCluster(2));
  RunProcess(&cluster, 0, "seeder", {}, "/t");
  Disclose(&cluster, 0, "annotator", "/t", {Taint()});
  RunProcess(&cluster, 0, "tainted", {"/t"}, "/e");
  RunProcess(&cluster, 0, "writer", {}, "/o");
  auto output = cluster.machine(0).pass()->RefOfPath("/o");
  ASSERT_TRUE(output.ok());
  RunProcess(&cluster, 1, "copier", {}, "/q");
  Disclose(&cluster, 1, "linker", "/q", {core::Record::Input(*output)});
  RunProcess(&cluster, 1, "downstream", {"/q"}, "/r");
  ASSERT_TRUE(cluster.Sync().ok());

  StandingQueryTier tier(&cluster);
  const std::vector<std::string> texts = {
      AuditStreamGenerator::TaintDescendantQuery(),
      AuditStreamGenerator::TaintAncestryQuery()};
  std::vector<uint64_t> ids = RegisterAll(&tier, texts);
  ASSERT_TRUE(tier.Refresh().ok());
  ExpectFresh(&cluster, tier, ids, texts, "before the edge");
  EXPECT_EQ(StandingAnswer(tier, ids[0]), std::set<std::string>{"tainted|"});

  auto file = cluster.machine(0).pass()->RefOfPath("/e");
  ASSERT_TRUE(file.ok());
  Disclose(&cluster, 0, "discloser", "/o", {core::Record::Input(*file)});
  ASSERT_TRUE(cluster.Sync().ok());
  ASSERT_TRUE(tier.Refresh().ok());
  ExpectFresh(&cluster, tier, ids, texts, "after the edge");
  EXPECT_EQ(StandingAnswer(tier, ids[0]),
            (std::set<std::string>{"downstream|", "tainted|"}));
}

// A pnode with two TYPE texts is a member of both root sets, as in a
// from-scratch RootSet. The analyzer types /f as FILE; an application then
// discloses a TYPE PROC row on /f and an input edge from it to a taint
// source, so /f joins the ancestry watchlist as a process.
TEST(StandingExtensionTest, PnodeWithTwoTypesIsInBothRootSets) {
  ClusterCoordinator cluster(SmallCluster(2));
  RunProcess(&cluster, 0, "seeder", {}, "/t");
  Disclose(&cluster, 0, "annotator", "/t", {Taint()});
  RunProcess(&cluster, 0, "writer", {}, "/f");
  ASSERT_TRUE(cluster.Sync().ok());

  StandingQueryTier tier(&cluster);
  const std::vector<std::string> texts = {
      AuditStreamGenerator::TaintAncestryQuery()};
  std::vector<uint64_t> ids = RegisterAll(&tier, texts);
  ASSERT_TRUE(tier.Refresh().ok());
  ExpectFresh(&cluster, tier, ids, texts, "before the disclosure");
  EXPECT_TRUE(StandingAnswer(tier, ids[0]).empty());

  auto source = cluster.machine(0).pass()->RefOfPath("/t");
  ASSERT_TRUE(source.ok());
  Disclose(&cluster, 0, "app", "/f",
           {core::Record::Type("PROC"), core::Record::Input(*source)});
  ASSERT_TRUE(cluster.Sync().ok());
  ASSERT_TRUE(tier.Refresh().ok());
  ExpectFresh(&cluster, tier, ids, texts, "after the disclosure");
  EXPECT_EQ(StandingAnswer(tier, ids[0]), std::set<std::string>{"/f|"});
}

// `+` closures, in both directions, over the audit stream.
TEST(StandingExtensionTest, PlusClosuresStayFresh) {
  ClusterCoordinator cluster(SmallCluster(2));
  AuditStreamGenerator stream(&cluster, SmallStream());
  ASSERT_TRUE(stream.SeedTaintSources().ok());

  StandingQueryTier tier(&cluster);
  const std::vector<std::string> texts = {
      "select D.name from Provenance.file as T T.~input+ as D "
      "where T.taint = 1 and D.type = \"PROC\"",
      "select P.name from Provenance.process as P P.input+ as A "
      "where A.taint = 1",
      "select T, D from Provenance.file as T T.~input+ as D "
      "where T.taint = 1"};
  std::vector<uint64_t> ids = RegisterAll(&tier, texts);
  for (uint64_t id : ids) {
    EXPECT_TRUE(*tier.IsExtensible(id));
  }
  for (int round = 0; round < 5; ++round) {
    ASSERT_TRUE(stream.StreamRound().ok());
    ASSERT_TRUE(tier.Refresh().ok());
    ExpectFresh(&cluster, tier, ids, texts,
                "round " + std::to_string(round));
  }
  EXPECT_FALSE(StandingAnswer(tier, ids[0]).empty());
}

// A `not` in where keeps the query on the replace path.
TEST(StandingExtensionTest, NotShapeStaysOnTheReplacePath) {
  ClusterCoordinator cluster(SmallCluster(2));
  AuditStreamGenerator stream(&cluster, SmallStream());
  ASSERT_TRUE(stream.SeedTaintSources().ok());

  StandingQueryTier tier(&cluster);
  const std::vector<std::string> texts = {
      "select D.name from Provenance.file as T T.~input* as D "
      "where T.taint = 1 and not (D.type = \"FILE\")"};
  std::vector<uint64_t> ids = RegisterAll(&tier, texts);
  EXPECT_TRUE(*tier.IsIncremental(ids[0]));
  EXPECT_FALSE(*tier.IsExtensible(ids[0]));
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(stream.StreamRound().ok());
    ASSERT_TRUE(tier.Refresh().ok());
    ExpectFresh(&cluster, tier, ids, texts,
                "round " + std::to_string(round));
  }
  EXPECT_FALSE(StandingAnswer(tier, ids[0]).empty());
}

// A migration moves rows without changing the logical graph. Its copy
// writes to no feed, and the rows the source wrote since the last refresh
// move with the range, so its new owner reports them; a migration alone
// gives the tier nothing to read.
TEST(StandingExtensionTest, MigrationCarriesUnreadRowsAndNothingElse) {
  ClusterCoordinator cluster(SmallCluster(3));
  AuditStreamGenerator stream(&cluster, SmallStream());
  ASSERT_TRUE(stream.SeedTaintSources().ok());

  StandingQueryTier tier(&cluster);
  const std::vector<std::string> texts = {
      AuditStreamGenerator::TaintDescendantQuery(),
      AuditStreamGenerator::TaintAncestryQuery()};
  std::vector<uint64_t> ids = RegisterAll(&tier, texts);
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(stream.StreamRound().ok());
    ASSERT_TRUE(tier.Refresh().ok());
  }

  // Rows written before the migration, read after it.
  ASSERT_TRUE(stream.StreamRound().ok());
  core::PnodeRange range{core::ShardSpace(0).begin,
                         cluster.machine(0).allocator().peek_next()};
  ASSERT_TRUE(cluster.MigrateRange(range, 2).ok());
  ASSERT_TRUE(tier.Refresh().ok());
  ExpectFresh(&cluster, tier, ids, texts, "after the migration");

  StandingStats before = tier.stats();
  ASSERT_TRUE(cluster.MigrateRange(range, 0).ok());
  ASSERT_TRUE(tier.Refresh().ok());
  ExpectFresh(&cluster, tier, ids, texts, "after the migration back");
  EXPECT_EQ(tier.stats().frontier_entries, before.frontier_entries);
  EXPECT_EQ(tier.stats().rows_touched, before.rows_touched);
}

// A refresh that fails after one query merged new rows commits nothing:
// those rows' notifications wait for the refresh that does commit, even
// though that refresh's own merges find nothing new.
TEST(StandingExtensionTest, FailedRefreshHoldsNotificationsUntilCommit) {
  ClusterCoordinator cluster(SmallCluster(2));
  AuditStreamGenerator stream(&cluster, SmallStream());
  ASSERT_TRUE(stream.SeedTaintSources().ok());

  StandingQueryTier tier(&cluster);
  auto healthy = tier.Register(AuditStreamGenerator::TaintDescendantQuery());
  ASSERT_TRUE(healthy.ok());
  std::set<std::string> notified;
  auto collect = [&](const std::vector<StandingNotification>& notes) {
    for (const StandingNotification& note : notes) {
      std::string line;
      for (const pql::Value& value : note.row) {
        line += value.ToString() + "|";
      }
      EXPECT_TRUE(notified.insert(line).second) << "repeated: " << line;
    }
  };
  ASSERT_TRUE(stream.StreamRound().ok());
  auto first = tier.Refresh();
  ASSERT_TRUE(first.ok());
  collect(*first);

  // Registered after `healthy`, so it runs second: its seed evaluation
  // outgrows its limit after `healthy` merged the round.
  pql::QueryOptions tiny;
  tiny.limits.max_closure_nodes = 1;
  auto bounded =
      tier.Register(AuditStreamGenerator::TaintDescendantQuery(), tiny);
  ASSERT_TRUE(bounded.ok());
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(stream.StreamRound().ok());
  }
  EXPECT_FALSE(tier.Refresh().ok());

  ASSERT_TRUE(tier.Unregister(*bounded).ok());
  auto committed = tier.Refresh();
  ASSERT_TRUE(committed.ok());
  collect(*committed);
  EXPECT_EQ(
      StandingAnswer(tier, *healthy),
      FullAnswer(&cluster, AuditStreamGenerator::TaintDescendantQuery()));
  EXPECT_EQ(notified, StandingAnswer(tier, *healthy));
}

// A long episode: the fig11 queries on 2 shards, 300 rounds. The tier stays
// equal to a from-scratch evaluation, and the rows a Refresh touches follow
// the round's delta, not the history behind it.
TEST(StandingExtensionTest, LongEpisodeRowsFollowTheDelta) {
  ClusterOptions options = SmallCluster(2);
  options.seed = 17;
  ClusterCoordinator cluster(options);
  AuditStreamOptions stream_options = SmallStream();
  stream_options.taint_fraction = 0.4;
  stream_options.seed = 17;
  AuditStreamGenerator stream(&cluster, stream_options);
  ASSERT_TRUE(stream.SeedTaintSources().ok());

  StandingQueryTier tier(&cluster);
  const std::vector<std::string> texts = {
      AuditStreamGenerator::TaintDescendantQuery(),
      AuditStreamGenerator::TaintAncestryQuery(),
      "select F.name from Provenance.file as F where F.taint = 1"};
  std::vector<uint64_t> ids = RegisterAll(&tier, texts);
  uint64_t early = 0;  // rows touched over rounds 26-75
  uint64_t late = 0;   // ... and over rounds 251-300
  for (int round = 1; round <= 300; ++round) {
    ASSERT_TRUE(stream.StreamRound().ok());
    uint64_t before = tier.stats().rows_touched;
    ASSERT_TRUE(tier.Refresh().ok());
    uint64_t touched = tier.stats().rows_touched - before;
    if (round >= 26 && round <= 75) {
      early += touched;
    } else if (round >= 251) {
      late += touched;
    }
    if (round % 100 == 0) {
      ExpectFresh(&cluster, tier, ids, texts,
                  "round " + std::to_string(round));
    }
  }
  ASSERT_GT(early, 0u);
  // Both windows are 50 rounds long, so the means compare as the sums do.
  EXPECT_LE(late, 2 * early) << "early " << early << ", late " << late;
}

// ---- Root filter: the root conjuncts drop roots before any walk -----------

// Each filtered shape, and one with no root conjunct, equals a from-scratch
// evaluation after every Refresh(), across a migration and a crash +
// Recover().
TEST(StandingRootFilterTest, ShapesStayFreshAcrossMigrationAndCrash) {
  ClusterCoordinator cluster(SmallCluster(3));
  AuditStreamGenerator stream(&cluster, SmallStream());
  ASSERT_TRUE(stream.SeedTaintSources().ok());

  StandingQueryTier tier(&cluster);
  const std::vector<std::string> texts = {
      // The root conjunct written second.
      "select D.name from Provenance.file as T T.~input* as D "
      "where D.type = \"PROC\" and T.taint = 1",
      // A root-only disjunction, which an untainted file passes.
      "select D.name from Provenance.file as T T.~input* as D "
      "where (T.taint = 1 or T.name = \"/data/s1-0\") and D.type = \"PROC\"",
      // A `+` closure.
      "select D.name from Provenance.file as T T.~input+ as D "
      "where T.taint = 1 and D.type = \"PROC\"",
      // The `not` shape, on the replace path.
      "select D.name from Provenance.file as T T.~input* as D "
      "where T.taint = 1 and not (D.type = \"FILE\")",
      // No root conjunct, so no filter.
      "select D.name from Provenance.file as T T.~input* as D "
      "where D.type = \"PROC\""};
  std::vector<uint64_t> ids = RegisterAll(&tier, texts);
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(*tier.IsRootFiltered(ids[i]), i + 1 < ids.size()) << texts[i];
    EXPECT_EQ(*tier.IsExtensible(ids[i]), i != 3) << texts[i];
  }
  auto round = [&](const std::string& when) {
    ASSERT_TRUE(stream.StreamRound().ok()) << when;
    ASSERT_TRUE(tier.Refresh().ok()) << when;
    ExpectFresh(&cluster, tier, ids, texts, when);
  };
  round("round 0");
  round("round 1");

  core::PnodeRange range{core::ShardSpace(0).begin,
                         cluster.machine(0).allocator().peek_next()};
  ASSERT_TRUE(cluster.MigrateRange(range, 2).ok());
  round("after the migration");

  cluster.env().CrashAfterOps(6);
  EXPECT_FALSE(stream.StreamRound().ok());
  auto recovery = cluster.Recover();
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  ASSERT_TRUE(tier.Refresh().ok());
  ExpectFresh(&cluster, tier, ids, texts, "after recovery");
  round("after recovery, round 0");
  round("after recovery, round 1");
  EXPECT_NE(StandingAnswer(tier, ids[1]), StandingAnswer(tier, ids[0]));
}

// Source calls of the Refresh that links each of three untainted files to
// the head of a descendant chain `depth` processes deep. The chains read
// on shard 1, so shard 0 never sees the heads read, and linking a head
// does not freeze it into a version with no descendants.
uint64_t CallsToLinkUntaintedChains(int depth) {
  ClusterCoordinator cluster(SmallCluster(2));
  RunProcess(&cluster, 0, "seeder", {}, "/t");
  Disclose(&cluster, 0, "annotator", "/t", {Taint()});
  RunProcess(&cluster, 0, "tainted", {"/t"}, "/e");
  constexpr int kFiles = 3;
  for (int i = 0; i < kFiles; ++i) {
    std::string head = "/h" + std::to_string(i);
    RunProcess(&cluster, 0, "writer", {}, "/u" + std::to_string(i));
    RunProcess(&cluster, 0, "maker", {}, head);
    auto head_ref = cluster.machine(0).pass()->RefOfPath(head);
    EXPECT_TRUE(head_ref.ok());
    std::string prev = "/c" + std::to_string(i) + "-0";
    RunProcess(&cluster, 1, "copier", {}, prev);
    Disclose(&cluster, 1, "linker", prev, {core::Record::Input(*head_ref)});
    for (int j = 1; j <= depth; ++j) {
      std::string next = "/c" + std::to_string(i) + "-" + std::to_string(j);
      RunProcess(&cluster, 1, "stage", {prev}, next);
      prev = next;
    }
  }
  EXPECT_TRUE(cluster.Sync().ok());

  StandingQueryTier tier(&cluster);
  const std::vector<std::string> texts = {
      AuditStreamGenerator::TaintDescendantQuery()};
  std::vector<uint64_t> ids = RegisterAll(&tier, texts);
  EXPECT_TRUE(tier.Refresh().ok());
  ExpectFresh(&cluster, tier, ids, texts, "before the links");

  for (int i = 0; i < kFiles; ++i) {
    auto file = cluster.machine(0).pass()->RefOfPath("/u" + std::to_string(i));
    EXPECT_TRUE(file.ok());
    Disclose(&cluster, 0, "linker", "/h" + std::to_string(i),
             {core::Record::Input(*file)});
  }
  EXPECT_TRUE(cluster.Sync().ok());
  uint64_t before = tier.stats().source_calls;
  EXPECT_TRUE(tier.Refresh().ok());
  ExpectFresh(&cluster, tier, ids, texts, "after the links");
  EXPECT_EQ(StandingAnswer(tier, ids[0]), std::set<std::string>{"tainted|"});
  return tier.stats().source_calls - before;
}

// New edges bring deep closures within reach of roots that fail the root
// conjunct. The filter drops those roots before their closures are walked,
// so the refresh costs the same however deep the closures are.
TEST(StandingRootFilterTest, RefreshCallsDoNotGrowWithAFailingRootsClosure) {
  uint64_t shallow = CallsToLinkUntaintedChains(1);
  uint64_t deep = CallsToLinkUntaintedChains(8);
  EXPECT_GT(shallow, 0u);
  EXPECT_EQ(deep, shallow);
}

// A root whose conjunct stops holding loses the rows it stored. The root
// file's latest version moves past the one the query names, so the
// replace path's filter drops it and erases its rows.
TEST(StandingRootFilterTest, RootFailingTheFilterLosesItsRows) {
  ClusterCoordinator cluster(SmallCluster(2));
  RunProcess(&cluster, 1, "seeder", {}, "/t");
  Disclose(&cluster, 1, "annotator", "/t", {Taint()});
  RunProcess(&cluster, 1, "reader", {"/t"}, "/r");
  RunProcess(&cluster, 0, "writer", {}, "/o");
  ASSERT_TRUE(cluster.Sync().ok());
  auto tainted = cluster.machine(1).pass()->RefOfPath("/t");
  ASSERT_TRUE(tainted.ok());

  StandingQueryTier tier(&cluster);
  const std::vector<std::string> texts = {
      "select D.name from Provenance.file as T T.~input* as D "
      "where T.version = " + std::to_string(tainted->version) +
      " and T.taint = 1 and D.type = \"PROC\""};
  std::vector<uint64_t> ids = RegisterAll(&tier, texts);
  EXPECT_TRUE(*tier.IsRootFiltered(ids[0]));
  ASSERT_TRUE(tier.Refresh().ok());
  ExpectFresh(&cluster, tier, ids, texts, "before the new version");
  EXPECT_EQ(StandingAnswer(tier, ids[0]), std::set<std::string>{"reader|"});

  core::ObjectRef later{tainted->pnode, tainted->version + 1};
  Disclose(&cluster, 0, "discloser", "/o", {core::Record::Input(later)});
  ASSERT_TRUE(cluster.Sync().ok());
  ASSERT_TRUE(tier.Refresh().ok());
  ExpectFresh(&cluster, tier, ids, texts, "after the new version");
  EXPECT_TRUE(StandingAnswer(tier, ids[0]).empty());
}

// A replace whose roots all fail the filter evaluates nothing, and the
// query keeps the columns its seed evaluation gave it.
TEST(StandingRootFilterTest, ReplaceWithEveryRootFailingKeepsColumns) {
  ClusterCoordinator cluster(SmallCluster(2));
  RunProcess(&cluster, 0, "seeder", {}, "/t");
  Disclose(&cluster, 0, "annotator", "/t", {Taint()});
  RunProcess(&cluster, 0, "tainted", {"/t"}, "/e");
  ASSERT_TRUE(cluster.Sync().ok());

  StandingQueryTier tier(&cluster);
  const std::vector<std::string> texts = {
      "select D.name from Provenance.file as T T.~input* as D "
      "where T.taint = 1 and not (D.type = \"FILE\")"};
  std::vector<uint64_t> ids = RegisterAll(&tier, texts);
  EXPECT_FALSE(*tier.IsExtensible(ids[0]));
  EXPECT_TRUE(*tier.IsRootFiltered(ids[0]));
  ASSERT_TRUE(tier.Refresh().ok());
  ExpectFresh(&cluster, tier, ids, texts, "after the seed");

  // Untainted lineage only: each root the replace path re-evaluates fails.
  RunProcess(&cluster, 1, "writer", {}, "/u");
  RunProcess(&cluster, 1, "reader", {"/u"}, "/v");
  ASSERT_TRUE(cluster.Sync().ok());
  ASSERT_TRUE(tier.Refresh().ok());
  ExpectFresh(&cluster, tier, ids, texts, "after untainted lineage");
  auto result = tier.ResultOf(ids[0]);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->columns, std::vector<std::string>{"D.name"});
  EXPECT_EQ(StandingAnswer(tier, ids[0]), std::set<std::string>{"tainted|"});
}

}  // namespace
}  // namespace pass::cluster
