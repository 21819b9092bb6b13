// Tests for the federated query portal: frontier-shipped RPCs and the
// byte-bounded portal result cache, including its invalidation contract —
// every cached entry carries the shard it was filled from and that shard's
// per-range mutation fingerprint, and a lookup serves it only while that
// shard still owns the pnode and the fingerprint is unchanged, so the portal
// never serves stale ownership or stale data while churn elsewhere leaves
// entries warm.

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/federated_source.h"
#include "src/pql/eval.h"

// Binary-wide counting allocator: the zero-alloc probe test asserts the
// warm cache-lookup path never reaches operator new. malloc stays the
// backing store, so sanitizer interception keeps working. (GCC flags
// free() of these pointers as mismatched because it cannot see through the
// replacement; the pairing is correct.)
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
uint64_t g_heap_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_heap_allocs;
  if (void* p = std::malloc(size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pass::cluster {

// Reaches the private cache internals so tests can drive the exact probe
// sequence AttributeMany/FollowMany use, without network or evaluator noise:
// each probe passes the pnode's owner under the source's map.
class FederatedSourceTestPeer {
 public:
  explicit FederatedSourceTestPeer(FederatedSource* source)
      : source_(source) {}
  uint32_t Intern(const std::string& attr) { return source_->InternAttr(attr); }
  bool ProbeAttr(core::PnodeId pnode, uint32_t attr_id) {
    return source_->CacheLookup(
               FederatedSource::CacheKey{pnode, 0, false, attr_id},
               source_->map_->OwnerOf(pnode)) != nullptr;
  }
  bool ProbeEdges(const core::ObjectRef& ref, bool inverse) {
    return source_->CacheLookup(
               FederatedSource::CacheKey{ref.pnode, ref.version, inverse, 0},
               source_->map_->OwnerOf(ref.pnode)) != nullptr;
  }

 private:
  FederatedSource* source_;
};

namespace {

ClusterOptions SmallCluster(int shards) {
  ClusterOptions options;
  options.shards = shards;
  options.ingest_batch_records = 16;
  return options;
}

// Chain /f0 -> /f1 -> ... striped round-robin over the first `spread`
// shards (all of them by default).
std::vector<core::ObjectRef> BuildCrossShardChain(ClusterCoordinator* cluster,
                                                  int files, int spread = 0) {
  if (spread == 0) {
    spread = cluster->shard_count();
  }
  std::vector<core::ObjectRef> refs;
  for (int i = 0; i < files; ++i) {
    std::vector<core::ObjectRef> sources;
    if (i > 0) {
      sources.push_back(refs.back());
    }
    auto ref = cluster->WriteWithLineage(i % spread, "/f" + std::to_string(i),
                                         "payload", sources);
    EXPECT_TRUE(ref.ok()) << ref.status().ToString();
    refs.push_back(*ref);
  }
  return refs;
}

const char kTailClosure[] =
    "select Ancestor from Provenance.file as F F.input* as Ancestor "
    "where F.name = \"/f11\"";

TEST(FederatedCacheTest, RepeatedQueriesAreServedFromTheCache) {
  ClusterCoordinator cluster(SmallCluster(4));
  BuildCrossShardChain(&cluster, 12);
  ASSERT_TRUE(cluster.Sync().ok());

  // Every chain file's closure: each one re-walks the ancestry the files
  // below it already fetched.
  const char kEveryClosure[] =
      "select Ancestor from Provenance.file as F F.input* as Ancestor "
      "where F.name like \"/f*\"";
  FederatedSource source = cluster.Source(/*portal_shard=*/0);
  auto first = pql::Engine(&source).Run(kEveryClosure)->SortedRows();
  EXPECT_EQ(first, *MergedRows(cluster, kEveryClosure));
  uint64_t rpc_after_first = source.stats().remote_ops;
  uint64_t hits_after_first = source.stats().cache_hits;
  EXPECT_GT(rpc_after_first, 0u);
  EXPECT_GT(hits_after_first, 0u);  // the closures re-walk shared ancestry
  EXPECT_GT(source.cache_bytes_used(), 0u);

  // The same query again: every edge list and attribute set is cached, so
  // the only new RPCs are the (uncached) root-set scatter.
  auto second = pql::Engine(&source).Run(kEveryClosure)->SortedRows();
  EXPECT_EQ(second, first);
  uint64_t scatter = static_cast<uint64_t>(cluster.shard_count()) - 1;
  EXPECT_EQ(source.stats().remote_ops, rpc_after_first + scatter);
  EXPECT_GT(source.stats().cache_hits, hits_after_first);
}

// A query warms the portal cache, MigrateRange moves the queried range, and
// the next query must notice the owner change and re-route to the new owner
// — federated == merged before and after.
TEST(FederatedCacheTest, MigrationInvalidatesWarmCacheAndReRoutes) {
  ClusterCoordinator cluster(SmallCluster(4));
  auto refs = BuildCrossShardChain(&cluster, 12);
  ASSERT_TRUE(cluster.Sync().ok());

  FederatedSource source = cluster.Source(/*portal_shard=*/0);
  auto before = pql::Engine(&source).Run(kTailClosure)->SortedRows();
  EXPECT_EQ(before, *MergedRows(cluster, kTailClosure));
  EXPECT_GT(source.cache_bytes_used(), 0u);
  uint64_t invalidated = source.stats().cache_entries_invalidated;
  uint64_t epoch = cluster.shard_map().epoch();

  // Move the range holding /f5 (shard 1's space — a *remote* pnode whose
  // edge list and name set the portal cached) to shard 3.
  core::PnodeRange range{refs[5].pnode, refs[5].pnode + 1};
  ASSERT_TRUE(cluster.MigrateRange(range, 3).ok());
  EXPECT_GT(cluster.shard_map().epoch(), epoch);  // epoch observed to bump
  EXPECT_EQ(cluster.OwnerOf(refs[5].pnode), 3);

  // Same source object, post-migration: entries whose pnode changed owner
  // are dropped when probed, and the query re-routes through the live map
  // to the new owner.
  auto after = pql::Engine(&source).Run(kTailClosure)->SortedRows();
  EXPECT_EQ(after, before);
  EXPECT_EQ(after, *MergedRows(cluster, kTailClosure));
  EXPECT_GT(source.stats().cache_entries_invalidated, invalidated);
}

// A migration that crashes after its Assign but before its EPOCH_BUMP is
// durable routes the range to the destination until Recover() rebuilds the
// map without it. A query in that window fills entries from the
// destination, which holds none of the range's rows. After recovery an
// unrelated migration brings the epoch back to the same number, so no epoch
// comparison can tell the rolled-back reassignment happened; only checking
// each entry's filling shard against the pnode's current owner catches it.
TEST(FederatedCacheTest, RolledBackMigrationEntriesAreNotServed) {
  ClusterCoordinator cluster(SmallCluster(4));
  auto refs = BuildCrossShardChain(&cluster, 12);
  auto unrelated = cluster.WriteWithLineage(2, "/u", "unrelated", {});
  ASSERT_TRUE(unrelated.ok());
  ASSERT_TRUE(cluster.Sync().ok());

  FederatedSource source = cluster.Source(/*portal_shard=*/0);
  ASSERT_EQ(pql::Engine(&source).Run(kTailClosure)->SortedRows(),
            *MergedRows(cluster, kTailClosure));

  // Crash point 4 of MigrateRange is the one right after Assign.
  core::PnodeRange f5{refs[5].pnode, refs[5].pnode + 1};
  cluster.env().CrashAfterOps(3);
  EXPECT_FALSE(cluster.MigrateRange(f5, 3).ok());
  ASSERT_EQ(cluster.shard_map().epoch(), 1u);
  ASSERT_EQ(cluster.OwnerOf(refs[5].pnode), 3);
  ASSERT_TRUE(pql::Engine(&source).Run(kTailClosure).ok());

  auto report = cluster.Recover();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(cluster.shard_map().epoch(), 0u);
  ASSERT_EQ(cluster.OwnerOf(refs[5].pnode), 1);
  core::PnodeRange u{unrelated->pnode, unrelated->pnode + 1};
  ASSERT_TRUE(cluster.MigrateRange(u, 0).ok());
  ASSERT_EQ(cluster.shard_map().epoch(), 1u);

  auto after = pql::Engine(&source).Run(kTailClosure)->SortedRows();
  EXPECT_EQ(after.size(), 16u);
  EXPECT_EQ(after, *MergedRows(cluster, kTailClosure));
}

TEST(FederatedCacheTest, IngestInvalidatesStaleEdgeLists) {
  ClusterCoordinator cluster(SmallCluster(2));
  auto a = cluster.WriteWithLineage(0, "/a", "aaa", {});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(cluster.WriteWithLineage(1, "/b", "bbb", {*a}).ok());
  ASSERT_TRUE(cluster.Sync().ok());

  const std::string descendants =
      "select D from Provenance.file as F F.~input* as D "
      "where F.name = \"/a\"";
  // Portal on shard 1: /a lives on shard 0, so its reverse-edge list is a
  // remote lookup the portal caches.
  FederatedSource source = cluster.Source(/*portal_shard=*/1);
  auto before = pql::Engine(&source).Run(descendants)->SortedRows();
  EXPECT_EQ(before.size(), 2u);  // /a and /b

  // New lineage lands after the cache warmed: /c (on shard 1) descends from
  // /a. Sync mutates both shard databases; the portal must not serve the
  // cached pre-sync edge list.
  ASSERT_TRUE(cluster.WriteWithLineage(1, "/c", "ccc", {*a}).ok());
  ASSERT_TRUE(cluster.Sync().ok());
  auto after = pql::Engine(&source).Run(descendants)->SortedRows();
  EXPECT_EQ(after.size(), 3u);
  EXPECT_EQ(after, *MergedRows(cluster, descendants));
}

TEST(FederatedCacheTest, TinyCacheEvictsButStaysCorrect) {
  ClusterCoordinator cluster(SmallCluster(4));
  BuildCrossShardChain(&cluster, 12);
  ASSERT_TRUE(cluster.Sync().ok());

  FederatedSource source = cluster.Source(/*portal_shard=*/0,
                                          /*cache_bytes=*/256);
  auto got = pql::Engine(&source).Run(kTailClosure)->SortedRows();
  EXPECT_EQ(got, *MergedRows(cluster, kTailClosure));
  EXPECT_GT(source.stats().cache_evictions, 0u);
  EXPECT_LE(source.cache_bytes_used(), 256u);
}

TEST(FederatedCacheTest, ZeroBudgetDisablesCaching) {
  ClusterCoordinator cluster(SmallCluster(4));
  BuildCrossShardChain(&cluster, 12);
  ASSERT_TRUE(cluster.Sync().ok());

  FederatedSource source = cluster.Source(/*portal_shard=*/0,
                                          /*cache_bytes=*/0);
  auto got = pql::Engine(&source).Run(kTailClosure)->SortedRows();
  EXPECT_EQ(got, *MergedRows(cluster, kTailClosure));
  EXPECT_EQ(source.stats().cache_hits, 0u);
  EXPECT_EQ(source.cache_bytes_used(), 0u);
}

// Tentpole acceptance: ingest that only touches a foreign shard must leave
// the portal's warm entries alone — the fingerprint check is per entry, so
// unrelated churn costs nothing. A cache without fingerprints would have to
// start over after the same churn, which is what a freshly built source does
// (the whole-cache-flush baseline fig6 and fig9 measure against).
TEST(FederatedCacheTest, ForeignShardIngestKeepsWarmEntries) {
  ClusterCoordinator cluster(SmallCluster(4));
  // Chain over shards 0-2 only: shard 3 is pure churn, so no cached pnode
  // shares a fingerprint bucket with the churn writes.
  BuildCrossShardChain(&cluster, 12, /*spread=*/3);
  ASSERT_TRUE(cluster.Sync().ok());

  FederatedSource fine = cluster.Source(/*portal_shard=*/0);
  auto before = pql::Engine(&fine).Run(kTailClosure)->SortedRows();
  EXPECT_EQ(before, *MergedRows(cluster, kTailClosure));

  // Churn: new lineage-free files on shard 3 only. The chain's pnodes and
  // rows are untouched; only shard 3 buckets outside the chain move.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        cluster.WriteWithLineage(3, "/churn" + std::to_string(i), "x", {})
            .ok());
  }
  ASSERT_TRUE(cluster.Sync().ok());

  fine.ResetStats();
  FederatedSource fresh = cluster.Source(/*portal_shard=*/0);
  auto fine_after = pql::Engine(&fine).Run(kTailClosure)->SortedRows();
  auto fresh_after = pql::Engine(&fresh).Run(kTailClosure)->SortedRows();
  EXPECT_EQ(fine_after, before);
  EXPECT_EQ(fresh_after, before);
  // Fine-grained: the warm entries survived — nothing invalidated, and
  // strictly fewer misses than the rebuilt baseline.
  EXPECT_EQ(fine.stats().cache_entries_invalidated, 0u);
  EXPECT_LT(fine.stats().cache_misses, fresh.stats().cache_misses);
}

// Ingest that *does* mutate a cached pnode's rows must drop exactly that
// entry via its fingerprint, even with no epoch bump anywhere.
TEST(FederatedCacheTest, FingerprintCatchesMutationOfCachedRange) {
  ClusterCoordinator cluster(SmallCluster(2));
  auto a = cluster.WriteWithLineage(0, "/a", "aaa", {});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(cluster.Sync().ok());

  const std::string descendants =
      "select D from Provenance.file as F F.~input* as D "
      "where F.name = \"/a\"";
  FederatedSource source = cluster.Source(/*portal_shard=*/1);
  auto before = pql::Engine(&source).Run(descendants)->SortedRows();
  EXPECT_EQ(before.size(), 1u);

  // /b descends from /a: replication inserts a reverse-index row keyed by
  // /a's pnode on shard 0, moving its bucket fingerprint.
  ASSERT_TRUE(cluster.WriteWithLineage(1, "/b", "bbb", {*a}).ok());
  ASSERT_TRUE(cluster.Sync().ok());
  auto after = pql::Engine(&source).Run(descendants)->SortedRows();
  EXPECT_EQ(after.size(), 2u);
  EXPECT_EQ(after, *MergedRows(cluster, descendants));
  EXPECT_GT(source.stats().cache_entries_invalidated, 0u);
}

// Probing a warm cache allocates nothing — the CacheKey is flat (interned
// attr id, no strings), the owner and fingerprint checks are map lookups,
// and the LRU update is a splice.
TEST(FederatedCacheTest, WarmCacheProbesAreAllocationFree) {
  ClusterCoordinator cluster(SmallCluster(4));
  auto refs = BuildCrossShardChain(&cluster, 12);
  ASSERT_TRUE(cluster.Sync().ok());

  FederatedSource source = cluster.Source(/*portal_shard=*/0);
  // Warm every edge list + name set.
  ASSERT_TRUE(pql::Engine(&source).Run(kTailClosure).ok());
  FederatedSourceTestPeer peer(&source);
  uint32_t name_id = peer.Intern("name");  // intern outside the counted loop
  uint64_t hits_before = source.stats().cache_hits;

  uint64_t allocs_before = g_heap_allocs;
  for (int round = 0; round < 8; ++round) {
    for (const auto& ref : refs) {
      peer.ProbeAttr(ref.pnode, name_id);
      peer.ProbeEdges(ref, /*inverse=*/false);
    }
  }
  EXPECT_EQ(g_heap_allocs, allocs_before);
  EXPECT_GT(source.stats().cache_hits, hits_before);
}

TEST(FederatedCacheTest, CachedAndUncachedByteAccountingBalance) {
  ClusterCoordinator cluster(SmallCluster(4));
  BuildCrossShardChain(&cluster, 12);
  ASSERT_TRUE(cluster.Sync().ok());

  uint64_t net_before = cluster.network().stats().bytes_sent +
                        cluster.network().stats().bytes_received;
  FederatedSource source = cluster.Source(/*portal_shard=*/0);
  ASSERT_TRUE(pql::Engine(&source).Run(kTailClosure).ok());
  uint64_t net_after = cluster.network().stats().bytes_sent +
                       cluster.network().stats().bytes_received;
  // Remote request/response bytes are exactly what hit the wire; local
  // bytes never did.
  EXPECT_EQ(net_after - net_before, source.stats().remote_request_bytes +
                                        source.stats().remote_response_bytes);
  EXPECT_GT(source.stats().local_bytes, 0u);
  EXPECT_GT(source.stats().remote_request_bytes, 0u);
  EXPECT_GT(source.stats().remote_response_bytes, 0u);
}

}  // namespace
}  // namespace pass::cluster
