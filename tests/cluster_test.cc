// Tests for the sharded provenance cluster: shard provisioning, batched
// cross-shard ingest/replication, and federated PQL queries.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/federated_source.h"
#include "src/cluster/ingest.h"
#include "src/pql/eval.h"

namespace pass::cluster {
namespace {

ClusterOptions SmallCluster(int shards, size_t batch = 16) {
  ClusterOptions options;
  options.shards = shards;
  options.ingest_batch_records = batch;
  return options;
}

// Build a lineage chain that hops across every shard round-robin:
// /f0 on shard 0, /f1 on shard 1 <- /f0, /f2 on shard 2 <- /f1, ...
std::vector<core::ObjectRef> BuildCrossShardChain(ClusterCoordinator* cluster,
                                                  int files) {
  std::vector<core::ObjectRef> refs;
  for (int i = 0; i < files; ++i) {
    int shard = i % cluster->shard_count();
    std::string path = "/f" + std::to_string(i);
    std::vector<core::ObjectRef> sources;
    if (i > 0) {
      sources.push_back(refs.back());
    }
    auto ref = cluster->WriteWithLineage(shard, path, "payload-" + path,
                                         sources);
    EXPECT_TRUE(ref.ok()) << ref.status().ToString();
    refs.push_back(*ref);
  }
  return refs;
}

TEST(ClusterTest, ProvisionsShardsWithDisjointPnodeSpaces) {
  ClusterCoordinator cluster(SmallCluster(4));
  ASSERT_EQ(cluster.shard_count(), 4);
  for (int shard = 0; shard < 4; ++shard) {
    auto ref = cluster.WriteWithLineage(shard, "/probe", "x", {});
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(cluster.OwnerOf(ref->pnode), shard);
  }
  EXPECT_EQ(cluster.OwnerOf(core::PnodeId{200} << 48), -1);
}

TEST(ClusterTest, SyncRecoversEachShardLogIntoLocalDb) {
  ClusterCoordinator cluster(SmallCluster(3));
  for (int shard = 0; shard < 3; ++shard) {
    ASSERT_TRUE(cluster
                    .WriteWithLineage(shard, "/local" + std::to_string(shard),
                                      "data", {})
                    .ok());
  }
  ASSERT_TRUE(cluster.Sync().ok());
  EXPECT_GT(cluster.entries_recovered(), 0u);
  for (int shard = 0; shard < 3; ++shard) {
    std::string name = "/local" + std::to_string(shard);
    EXPECT_EQ(cluster.shard_db(shard).PnodesByName(name).size(), 1u)
        << "shard " << shard;
    // Purely local provenance does not replicate.
    for (int other = 0; other < 3; ++other) {
      if (other != shard) {
        EXPECT_TRUE(cluster.shard_db(other).PnodesByName(name).empty());
      }
    }
    // Consumed logs are gone: a second sync is a no-op.
  }
  uint64_t recovered = cluster.entries_recovered();
  uint64_t batches = cluster.ingest_stats().batches_sent;
  ASSERT_TRUE(cluster.Sync().ok());
  EXPECT_EQ(cluster.entries_recovered(), recovered);
  EXPECT_EQ(cluster.ingest_stats().batches_sent, batches);
}

TEST(ClusterTest, CrossShardEdgesReplicateToAncestorOwner) {
  ClusterCoordinator cluster(SmallCluster(2));
  auto a = cluster.WriteWithLineage(0, "/a", "aaa", {});
  ASSERT_TRUE(a.ok());
  auto b = cluster.WriteWithLineage(1, "/b", "bbb", {*a});
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(cluster.Sync().ok());

  EXPECT_GT(cluster.ingest_stats().entries_replicated, 0u);
  EXPECT_GT(cluster.ingest_stats().batches_sent, 0u);

  // Shard 1 (subject owner) has the forward edge.
  EXPECT_FALSE(cluster.shard_db(1).Inputs(*b).empty());
  // Shard 0 (ancestor owner) got the replicated reverse edge: /a's
  // descendants include /b even though /b lives on another machine.
  auto outputs = cluster.shard_db(0).Outputs(*a);
  ASSERT_FALSE(outputs.empty());
  EXPECT_EQ(outputs[0].pnode, b->pnode);
}

TEST(ClusterTest, FederatedFollowRoutesAcrossShards) {
  ClusterCoordinator cluster(SmallCluster(4));
  auto refs = BuildCrossShardChain(&cluster, 8);
  ASSERT_TRUE(cluster.Sync().ok());

  FederatedSource source = cluster.Source(/*portal_shard=*/0);
  uint64_t trips_before = cluster.network().stats().round_trips;

  // Ancestors of /f5 (shard 1) include /f4 (shard 0).
  auto ancestors = source.Follow(refs[5], "input", /*inverse=*/false);
  bool found = false;
  for (const auto& node : ancestors) {
    found = found || node.pnode == refs[4].pnode;
  }
  EXPECT_TRUE(found);
  // Descendants of /f4 (shard 0) include /f5 (shard 1) via the replicated
  // reverse edge.
  auto descendants = source.Follow(refs[4], "input", /*inverse=*/true);
  found = false;
  for (const auto& node : descendants) {
    found = found || node.pnode == refs[5].pnode;
  }
  EXPECT_TRUE(found);
  // The /f5 lookup was remote from portal 0 and charged the network.
  EXPECT_GT(source.stats().remote_ops, 0u);
  EXPECT_GT(cluster.network().stats().round_trips, trips_before);
}

// Acceptance: a PQL ancestry query over a 4-shard cluster returns the same
// result set as the equivalent single-merged-database run.
TEST(ClusterTest, FederatedAncestryQueryMatchesMergedSingleDb) {
  ClusterCoordinator cluster(SmallCluster(4));
  auto refs = BuildCrossShardChain(&cluster, 12);
  // A second, unrelated lineage island on shard 2.
  ASSERT_TRUE(cluster.WriteWithLineage(2, "/island", "iii", {}).ok());
  ASSERT_TRUE(cluster.Sync().ok());

  const std::vector<std::string> kQueries = {
      // Full ancestry closure of the chain tail, crossing all 4 shards.
      "select Ancestor from Provenance.file as F F.input* as Ancestor "
      "where F.name = \"/f11\"",
      // Descendant closure from the chain head.
      "select D from Provenance.file as F F.~input* as D "
      "where F.name = \"/f0\"",
      // Direct ancestors only.
      "select A from Provenance.file as F F.input as A "
      "where F.name = \"/f7\"",
      // Typed root set spanning every shard.
      "select F.name from Provenance.file as F",
  };
  EXPECT_EQ(CheckEquivalent(cluster, kQueries).ToString(), "OK");
  for (const std::string& query : kQueries) {
    EXPECT_FALSE(MergedRows(cluster, query)->empty()) << query;
  }
}

TEST(ClusterTest, BatchedIngestReducesRoundTripsAtEqualRecordCounts) {
  auto run = [](size_t batch) {
    ClusterCoordinator cluster(SmallCluster(2, batch));
    BuildCrossShardChain(&cluster, 30);
    EXPECT_TRUE(cluster.Sync().ok());
    return std::make_pair(cluster.ingest_stats(),
                          cluster.network().stats().round_trips);
  };
  auto [unbatched_stats, unbatched_trips] = run(1);
  auto [batched_stats, batched_trips] = run(64);

  // Same records crossed the wire either way.
  ASSERT_GT(unbatched_stats.entries_replicated, 0u);
  EXPECT_EQ(batched_stats.entries_replicated,
            unbatched_stats.entries_replicated);
  // Batching collapses round trips.
  EXPECT_LT(batched_stats.batches_sent, unbatched_stats.batches_sent);
  EXPECT_LT(batched_trips, unbatched_trips);
  EXPECT_EQ(unbatched_stats.batches_sent, unbatched_stats.entries_replicated);
}

// Sync() then Quiesce() is the wait for replication to finish (the baseline
// bench/fig3_cluster and bench/fig8_pipeline_ingest measure): afterwards
// every journaled batch is marked applied, nothing is in flight, and a
// second barrier has nothing left to charge.
TEST(ClusterTest, SyncThenQuiesceLeavesEveryBatchApplied) {
  ClusterCoordinator cluster(SmallCluster(4, /*batch=*/4));
  BuildCrossShardChain(&cluster, 12);
  ASSERT_TRUE(cluster.Sync().ok());
  EXPECT_GT(cluster.replication_timeline().InFlight(), 0u);
  cluster.Quiesce();

  size_t batches = 0;
  for (int shard = 0; shard < cluster.shard_count(); ++shard) {
    auto state = cluster.journal(shard).Scan();
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    for (const JournalBatch& batch : state->batches) {
      EXPECT_TRUE(batch.applied) << "shard " << shard << " batch " << batch.id;
    }
    batches += state->batches.size();
  }
  EXPECT_GT(batches, 0u);
  EXPECT_EQ(cluster.replication_timeline().InFlight(), 0u);
  EXPECT_EQ(cluster.Quiesce(), 0);
}

// The replication window holds 16 transfers: one-record batches make each
// shard's drain ship more than that, so the shipper must block on the
// oldest transfer and record the wait.
TEST(ClusterTest, FullReplicationWindowAppliesBackpressure) {
  ClusterCoordinator cluster(SmallCluster(2, /*batch=*/1));
  BuildCrossShardChain(&cluster, 40);
  ASSERT_TRUE(cluster.Sync().ok());
  EXPECT_GT(cluster.ingest_stats().batches_sent, 2u * 16u);
  const obs::Histogram& waits =
      cluster.env().obs().metrics().GetHistogram("ingest.backpressure_ns");
  EXPECT_GT(waits.count(), 0u);
  EXPECT_GT(waits.max(), 0u);
}

// ---- ShardMap routing / live migration --------------------------------------

const std::vector<std::string> kEquivalenceQueries = {
    "select Ancestor from Provenance.file as F F.input* as Ancestor "
    "where F.name = \"/f11\"",
    "select D from Provenance.file as F F.~input* as D "
    "where F.name = \"/f0\"",
    "select A from Provenance.file as F F.input as A "
    "where F.name = \"/f7\"",
    "select F.name from Provenance.file as F",
};

// The shared oracle over kEquivalenceQueries, none of which may come back
// empty (an empty answer would make the equivalence vacuous).
void ExpectEquivalent(ClusterCoordinator& cluster, const std::string& context) {
  EXPECT_EQ(CheckEquivalent(cluster, kEquivalenceQueries).ToString(), "OK")
      << context;
  for (const std::string& query : kEquivalenceQueries) {
    EXPECT_FALSE(MergedRows(cluster, query)->empty())
        << context << ": " << query;
  }
}

TEST(ClusterTest, MigrateRangeMovesOwnershipAndRows) {
  ClusterCoordinator cluster(SmallCluster(2));
  auto a = cluster.WriteWithLineage(0, "/a", "aaa", {});
  ASSERT_TRUE(a.ok());
  auto b = cluster.WriteWithLineage(1, "/b", "bbb", {*a});
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(cluster.Sync().ok());

  ASSERT_EQ(cluster.OwnerOf(a->pnode), 0);
  uint64_t epoch = cluster.shard_map().epoch();
  uint64_t trips = cluster.network().stats().round_trips;

  core::PnodeRange range{a->pnode, a->pnode + 1};
  auto report = cluster.MigrateRange(range, 1);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->from, 0);
  EXPECT_EQ(report->to, 1);
  EXPECT_GT(report->entries_shipped + report->entries_skipped, 0u);
  EXPECT_GT(report->batches, 0u);
  EXPECT_GT(report->rows_deleted, 0u);

  // Ownership, epoch, and the network meter all moved.
  EXPECT_EQ(cluster.OwnerOf(a->pnode), 1);
  EXPECT_GT(cluster.shard_map().epoch(), epoch);
  EXPECT_GT(cluster.network().stats().round_trips, trips);
  EXPECT_EQ(cluster.migration_stats().migrations, 1u);

  // The destination now answers for /a: records and the reverse edge to /b.
  EXPECT_FALSE(cluster.shard_db(1).RecordsOfAllVersions(a->pnode).empty());
  auto outputs = cluster.shard_db(1).Outputs(*a);
  ASSERT_FALSE(outputs.empty());
  EXPECT_EQ(outputs[0].pnode, b->pnode);
  // The source dropped the moved rows.
  EXPECT_TRUE(cluster.shard_db(0).RecordsOfAllVersions(a->pnode).empty());
}

TEST(ClusterTest, MigrateRangeRejectsSplitOrForeignRanges) {
  ClusterCoordinator cluster(SmallCluster(2));
  EXPECT_FALSE(cluster.MigrateRange(core::ShardSpace(7), 1).ok());
  EXPECT_FALSE(
      cluster.MigrateRange({core::ShardSpace(0).begin,
                            core::ShardSpace(1).begin + 10}, 1).ok());
  ASSERT_TRUE(cluster.MigrateRange(core::ShardSpace(0), 1).ok());
  EXPECT_FALSE(cluster.MigrateRange(core::ShardSpace(0), 5).ok());
  // Shard 1 now owns both home spaces, so this range is uniformly owned yet
  // spans a home boundary: it must be rejected before any rows ship.
  uint64_t trips = cluster.network().stats().round_trips;
  uint64_t migrations = cluster.migration_stats().migrations;
  EXPECT_FALSE(cluster
                   .MigrateRange({core::ShardSpace(0).begin,
                                  core::ShardSpace(1).begin + 10}, 0)
                   .ok());
  EXPECT_EQ(cluster.network().stats().round_trips, trips);
  EXPECT_EQ(cluster.migration_stats().migrations, migrations);
}

// Acceptance: interleave workloads, migrations, and Sync() — the federated
// query must keep matching the merged single-database answer throughout.
TEST(ClusterTest, FederatedQueriesSurviveInterleavedMigrations) {
  ClusterCoordinator cluster(SmallCluster(4));
  auto refs = BuildCrossShardChain(&cluster, 12);
  ASSERT_TRUE(cluster.WriteWithLineage(2, "/island", "iii", {}).ok());
  ASSERT_TRUE(cluster.Sync().ok());
  ExpectEquivalent(cluster, "before any migration");

  // Move the prefix of shard 0's space (covering /f0, /f4) to shard 2.
  core::PnodeRange prefix{core::ShardSpace(0).begin, refs[4].pnode + 1};
  ASSERT_TRUE(cluster.MigrateRange(prefix, 2).ok());
  ExpectEquivalent(cluster, "after prefix migration");

  // More workload after the migration, including writes on shard 0 that
  // disclose lineage to a migrated ancestor.
  auto extra = cluster.WriteWithLineage(0, "/extra", "eee", {refs[0]});
  ASSERT_TRUE(extra.ok());
  ASSERT_TRUE(cluster.Sync().ok());
  ExpectEquivalent(cluster, "after post-migration workload");

  // Move shard 1's *entire* home space to shard 3, then keep writing on
  // shard 1: even freshly minted pnodes belong to shard 3 now.
  ASSERT_TRUE(cluster.MigrateRange(core::ShardSpace(1), 3).ok());
  auto late = cluster.WriteWithLineage(1, "/late", "lll", {*extra});
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(cluster.OwnerOf(late->pnode), 3);
  ASSERT_TRUE(cluster.Sync().ok());
  ExpectEquivalent(cluster, "after whole-space migration");

  // And back again: migrating home restores the default route.
  ASSERT_TRUE(cluster.MigrateRange(core::ShardSpace(1), 1).ok());
  ASSERT_TRUE(cluster.Sync().ok());
  EXPECT_EQ(cluster.OwnerOf(late->pnode), 1);
  ExpectEquivalent(cluster, "after migrating home");
}

// Satellite regression: a FederatedSource created *before* a migration must
// pick up post-migration routing (it is wired to the live ShardMap).
TEST(ClusterTest, SourceCreatedBeforeMigrationRoutesThroughLiveMap) {
  ClusterCoordinator cluster(SmallCluster(2));
  auto a = cluster.WriteWithLineage(0, "/a", "aaa", {});
  ASSERT_TRUE(a.ok());
  auto b = cluster.WriteWithLineage(1, "/b", "bbb", {*a});
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(cluster.Sync().ok());

  FederatedSource stale = cluster.Source(/*portal_shard=*/0);
  const std::string query =
      "select D from Provenance.file as F F.~input* as D "
      "where F.name = \"/a\"";
  auto before = pql::Engine(&stale).Run(query)->SortedRows();
  EXPECT_FALSE(before.empty());

  ASSERT_TRUE(
      cluster.MigrateRange({a->pnode, a->pnode + 1}, 1).ok());

  // Same source object, post-migration: answers come from shard 1 now and
  // still match both the pre-migration answer and the merged view.
  auto after = pql::Engine(&stale).Run(query)->SortedRows();
  EXPECT_EQ(after, before);
  EXPECT_EQ(*MergedRows(cluster, query), after);
}

// Satellite: federated queries with a non-default portal shard.
TEST(ClusterTest, NonZeroPortalShardServesLocalOpsWithoutNetwork) {
  ClusterCoordinator cluster(SmallCluster(3));
  auto refs = BuildCrossShardChain(&cluster, 9);
  ASSERT_TRUE(cluster.Sync().ok());

  const std::string query =
      "select Ancestor from Provenance.file as F F.input* as Ancestor "
      "where F.name = \"/f8\"";
  auto want = *MergedRows(cluster, query);

  for (int portal = 0; portal < 3; ++portal) {
    FederatedSource source = cluster.Source(portal);
    EXPECT_EQ(pql::Engine(&source).Run(query)->SortedRows(), want)
        << "portal " << portal;
    // Every portal serves its own pnodes locally and routes the rest.
    EXPECT_GT(source.stats().local_ops, 0u) << "portal " << portal;
    EXPECT_GT(source.stats().remote_ops, 0u) << "portal " << portal;
  }

  // A lookup of a portal-owned pnode is free; the same lookup from another
  // portal charges the network.
  FederatedSource portal2 = cluster.Source(2);
  uint64_t trips = cluster.network().stats().round_trips;
  portal2.Follow(refs[2], "input", /*inverse=*/false);  // /f2 lives on shard 2
  EXPECT_EQ(cluster.network().stats().round_trips, trips);
  portal2.Follow(refs[1], "input", /*inverse=*/false);  // /f1 lives on shard 1
  EXPECT_EQ(cluster.network().stats().round_trips, trips + 1);
}

// Satellite: per-shard size accessors surface in cluster stats.
TEST(ClusterTest, ShardSizesReportPerShardRecordCounts) {
  ClusterCoordinator cluster(SmallCluster(2));
  auto refs = BuildCrossShardChain(&cluster, 6);
  ASSERT_TRUE(cluster.Sync().ok());

  auto sizes = cluster.shard_sizes();
  ASSERT_EQ(sizes.size(), 2u);
  for (int shard = 0; shard < 2; ++shard) {
    EXPECT_EQ(sizes[shard].records, cluster.shard_db(shard).RecordCount());
    EXPECT_EQ(sizes[shard].edges, cluster.shard_db(shard).EdgeCount());
    EXPECT_GT(sizes[shard].owned_rows, 0u);
  }
  // Owned rows move with a migration; totals are conserved.
  uint64_t owned_before = sizes[0].owned_rows + sizes[1].owned_rows;
  ASSERT_TRUE(cluster.MigrateRange(core::ShardSpace(0), 1).ok());
  auto after = cluster.shard_sizes();
  EXPECT_EQ(after[0].owned_rows, 0u);
  EXPECT_EQ(after[1].owned_rows, owned_before);
}

TEST(ClusterTest, RebalanceConvergesASkewedCluster) {
  ClusterCoordinator cluster(SmallCluster(4, /*batch=*/32));
  // Heavily skewed workload: every write lands on shard 0.
  std::vector<core::ObjectRef> refs;
  for (int i = 0; i < 24; ++i) {
    std::vector<core::ObjectRef> sources;
    if (i > 0) {
      sources.push_back(refs.back());
    }
    auto ref = cluster.WriteWithLineage(0, "/f" + std::to_string(i),
                                        "payload", sources);
    ASSERT_TRUE(ref.ok());
    refs.push_back(*ref);
  }
  ASSERT_TRUE(cluster.Sync().ok());

  auto before = cluster.shard_sizes();
  EXPECT_GT(before[0].owned_rows, 0u);
  EXPECT_EQ(before[1].owned_rows, 0u);

  RebalanceReport report = cluster.Rebalance(/*max_min_ratio=*/1.5);
  EXPECT_TRUE(report.converged);
  EXPECT_GT(report.migrations, 0);
  EXPECT_GT(report.min_rows, 0u);
  EXPECT_LE(report.ratio, 1.5);
  EXPECT_GT(cluster.migration_stats().batches, 0u);

  // Rebalancing changed placement, not answers.
  const std::string query =
      "select Ancestor from Provenance.file as F F.input* as Ancestor "
      "where F.name = \"/f23\"";
  EXPECT_EQ(CheckEquivalent(cluster, {query}).ToString(), "OK");
  EXPECT_GE(MergedRows(cluster, query)->size(), 23u);
}

TEST(ClusterTest, RebalanceIsANoOpOnABalancedCluster) {
  ClusterCoordinator cluster(SmallCluster(2));
  BuildCrossShardChain(&cluster, 8);  // round-robin: already balanced
  ASSERT_TRUE(cluster.Sync().ok());
  RebalanceReport report = cluster.Rebalance(/*max_min_ratio=*/2.0);
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(report.migrations, 0);
  EXPECT_EQ(cluster.migration_stats().migrations, 0u);
}

// ---- Crash consistency over the cluster journal -----------------------------

// Acceptance: a coordinator crash mid-Sync loses nothing — the journaled
// batches and unconsumed logs replay, and the federated view still equals
// the merged single-database view.
TEST(ClusterTest, CrashMidSyncRecoversToEquivalentView) {
  // Measure the crash sites of a clean sync on a twin cluster, then crash a
  // fresh identical cluster in the middle of its own sync.
  uint64_t points = 0;
  {
    ClusterCoordinator twin(SmallCluster(4, /*batch=*/4));
    BuildCrossShardChain(&twin, 12);
    uint64_t before = twin.env().crash_points_passed();
    ASSERT_TRUE(twin.Sync().ok());
    points = twin.env().crash_points_passed() - before;
  }
  ASSERT_GT(points, 2u);

  ClusterCoordinator cluster(SmallCluster(4, /*batch=*/4));
  BuildCrossShardChain(&cluster, 12);
  cluster.env().CrashAfterOps(points / 2);
  ASSERT_FALSE(cluster.Sync().ok());

  auto recovery = cluster.Recover();
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  EXPECT_GT(recovery->journals_scanned, 0u);
  ExpectEquivalent(cluster, "after mid-sync crash recovery");
}

// Acceptance: a coordinator crash between the copy and delete phases of a
// migration leaves rows on both shards only until recovery, which rolls the
// journaled migration forward to a consistent ShardMap epoch.
TEST(ClusterTest, CrashBetweenMigrationCopyAndDeleteRollsForward) {
  ClusterCoordinator cluster(SmallCluster(2));
  auto a = cluster.WriteWithLineage(0, "/a", "aaa", {});
  ASSERT_TRUE(a.ok());
  auto b = cluster.WriteWithLineage(1, "/b", "bbb", {*a});
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(cluster.Sync().ok());

  // Find the crash point between MIGRATE_COPIED and the source delete by
  // sweeping until the crash leaves rows on both shards.
  core::PnodeRange range{a->pnode, a->pnode + 1};
  uint64_t points = 0;
  {
    ClusterCoordinator twin(SmallCluster(2));
    auto ta = twin.WriteWithLineage(0, "/a", "aaa", {});
    ASSERT_TRUE(ta.ok());
    ASSERT_TRUE(twin.WriteWithLineage(1, "/b", "bbb", {*ta}).ok());
    ASSERT_TRUE(twin.Sync().ok());
    uint64_t before = twin.env().crash_points_passed();
    ASSERT_TRUE(twin.MigrateRange({ta->pnode, ta->pnode + 1}, 1).ok());
    points = twin.env().crash_points_passed() - before;
  }
  bool saw_both_shards_holding_rows = false;
  for (uint64_t point = 0; point < points; ++point) {
    ClusterCoordinator crashed(SmallCluster(2));
    auto ca = crashed.WriteWithLineage(0, "/a", "aaa", {});
    ASSERT_TRUE(ca.ok());
    ASSERT_TRUE(crashed.WriteWithLineage(1, "/b", "bbb", {*ca}).ok());
    ASSERT_TRUE(crashed.Sync().ok());
    crashed.env().CrashAfterOps(point);
    core::PnodeRange crashed_range{ca->pnode, ca->pnode + 1};
    ASSERT_FALSE(crashed.MigrateRange(crashed_range, 1).ok());
    // The crash may have left the copy on both shards — the inconsistency
    // the journal exists to repair.
    saw_both_shards_holding_rows =
        saw_both_shards_holding_rows ||
        (crashed.shard_db(0).RowsInRange(crashed_range.begin,
                                         crashed_range.end) > 0 &&
         crashed.shard_db(1).RowsInRange(crashed_range.begin,
                                         crashed_range.end) > 0);

    auto recovery = crashed.Recover();
    ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
    // Post-recovery: exactly one shard holds the range's rows, and the
    // owner is consistent with them.
    uint64_t on_source = crashed.shard_db(0).RowsInRange(crashed_range.begin,
                                                         crashed_range.end);
    uint64_t on_destination = crashed.shard_db(1).RowsInRange(
        crashed_range.begin, crashed_range.end);
    EXPECT_TRUE(on_source == 0 || on_destination == 0) << "point " << point;
    int owner = crashed.shard_map().OwnerOfRange(crashed_range);
    EXPECT_EQ(owner == 1 ? on_source : on_destination, 0u)
        << "point " << point;
    // Federated still equals merged for lineage through the moved object.
    const std::vector<std::string> queries = {
        "select D from Provenance.file as F F.~input* as D "
        "where F.name = \"/a\"",
        "select F.name from Provenance.file as F"};
    EXPECT_EQ(CheckEquivalent(crashed, queries).ToString(), "OK")
        << "point " << point;
    for (const std::string& query : queries) {
      EXPECT_FALSE(MergedRows(crashed, query)->empty())
          << "point " << point << ": " << query;
    }
  }
  // The sweep must have covered the copied-but-not-deleted window.
  EXPECT_TRUE(saw_both_shards_holding_rows);
}

TEST(ClusterTest, SingleShardClusterNeedsNoNetwork) {
  ClusterCoordinator cluster(SmallCluster(1));
  BuildCrossShardChain(&cluster, 5);
  ASSERT_TRUE(cluster.Sync().ok());
  EXPECT_EQ(cluster.ingest_stats().entries_replicated, 0u);
  EXPECT_EQ(cluster.network().stats().round_trips, 0u);

  FederatedSource source = cluster.Source(0);
  pql::Engine engine(&source);
  auto result = engine.Run(
      "select Ancestor from Provenance.file as F F.input* as Ancestor "
      "where F.name = \"/f4\"");
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->rows.size(), 5u);
  EXPECT_EQ(cluster.network().stats().round_trips, 0u);
}

}  // namespace
}  // namespace pass::cluster
