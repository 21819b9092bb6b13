// Tests for the federated query portal: frontier-shipped RPCs and the
// byte-bounded portal result cache, including its invalidation contract —
// every cached entry carries the shard it was filled from and the pnode's
// change stamp there (ProvDb::StampOf), and a lookup serves it only while
// that shard still owns the pnode and the stamp is unchanged, so the portal
// never serves stale ownership or stale data while churn keyed by other
// pnodes, even its neighbours, leaves entries warm.

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/federated_source.h"
#include "src/pql/eval.h"
#include "src/pql/provdb_source.h"
#include "src/waldo/provdb.h"

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

const char kExtendedClosure[] =
    "select Ancestor from Provenance.file as F F.input* as Ancestor "
    "where F.name = \"/f17\"";

// The two operations the crash sweep below interrupts.
enum class CrashOp {
  kSync,     // the Sync that ingests the chain's extension to /f17
  kMigrate,  // MigrateRange([/f5, /f9 + 1) -> shard 3) after that Sync
};

// Runs `op` on a fresh 4-shard cluster whose 12-file chain is synced and
// read by a warm portal-0 source, then extended to /f17. With `point` set,
// `op` crashes at that crash point; the same source then answers a query
// inside the crash window, and after Recover() and Sync() it must answer
// the /f11 and /f17 closures equal to the merged database. Returns the
// crash points `op` passed.
uint64_t RunThroughCrash(CrashOp op, std::optional<uint64_t> point) {
  ClusterCoordinator cluster(SmallCluster(4));
  auto refs = BuildCrossShardChain(&cluster, 12);
  EXPECT_TRUE(cluster.Sync().ok());
  FederatedSource source = cluster.Source(/*portal_shard=*/0);
  EXPECT_TRUE(pql::Engine(&source).Run(kTailClosure).ok());
  for (int i = 12; i < 18; ++i) {
    auto ref = cluster.WriteWithLineage(i % 4, "/f" + std::to_string(i),
                                        "payload", {refs.back()});
    EXPECT_TRUE(ref.ok()) << ref.status().ToString();
    refs.push_back(*ref);
  }
  if (op == CrashOp::kMigrate) {
    EXPECT_TRUE(cluster.Sync().ok());
  }

  uint64_t before = cluster.env().crash_points_passed();
  if (point.has_value()) {
    cluster.env().CrashAfterOps(*point);
  }
  Status status =
      op == CrashOp::kSync
          ? cluster.Sync()
          : cluster.MigrateRange({refs[5].pnode, refs[9].pnode + 1}, 3)
                .status();
  uint64_t passed = cluster.env().crash_points_passed() - before;
  if (!point.has_value()) {
    EXPECT_TRUE(status.ok()) << status.ToString();
    return passed;
  }
  EXPECT_FALSE(status.ok()) << "point " << *point;
  // The crash window: entries filled now read whatever the shards hold.
  EXPECT_TRUE(pql::Engine(&source).Run(kExtendedClosure).ok());
  auto report = cluster.Recover();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(cluster.Sync().ok());
  for (const char* query : {kTailClosure, kExtendedClosure}) {
    EXPECT_EQ(pql::Engine(&source).Run(query)->SortedRows(),
              *MergedRows(cluster, query))
        << "point " << *point << ": " << query;
  }
  return passed;
}

// A live source keeps its cache across a crash window and Recover(): entries
// filled from a half-ingested shard, a migration destination holding part of
// the range, or an owner the repair rolls back must all fail the owner or
// stamp check once the repair rewrites what they read. Every crash point of
// both operations.
TEST(FederatedCacheTest, LiveSourceStaysCorrectAcrossEveryCrashPoint) {
  for (CrashOp op : {CrashOp::kSync, CrashOp::kMigrate}) {
    uint64_t points = RunThroughCrash(op, std::nullopt);
    ASSERT_GT(points, 2u);
    for (uint64_t point = 0; point < points; ++point) {
      RunThroughCrash(op, point);
    }
  }
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

// Ingest that only touches a foreign shard must leave the portal's warm
// entries alone — the stamp check is per entry, so unrelated churn costs
// nothing. A cache without stamps would have to start over after the same
// churn, which is what a freshly built source does (the whole-cache-flush
// baseline fig6 and fig9 measure against).
TEST(FederatedCacheTest, ForeignShardIngestKeepsWarmEntries) {
  ClusterCoordinator cluster(SmallCluster(4));
  // Chain over shards 0-2 only: shard 3 is pure churn, so no row keyed by a
  // cached pnode changes.
  BuildCrossShardChain(&cluster, 12, /*spread=*/3);
  ASSERT_TRUE(cluster.Sync().ok());

  FederatedSource fine = cluster.Source(/*portal_shard=*/0);
  auto before = pql::Engine(&fine).Run(kTailClosure)->SortedRows();
  EXPECT_EQ(before, *MergedRows(cluster, kTailClosure));

  // Churn: new lineage-free files on shard 3 only. The chain's pnodes and
  // rows are untouched; only the stamps of pnodes homed on shard 3 move.
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

// Ingest keyed by a pnode right beside the cached ones must leave their
// entries warm too. Pnodes are allocated in sequence, so a new file lands
// next to the ones a query has just read; the stamp is per pnode, so only
// the entries of the pnodes keying the new rows drop.
TEST(FederatedCacheTest, NeighbourIngestKeepsWarmEntries) {
  ClusterCoordinator cluster(SmallCluster(2));
  auto refs = BuildCrossShardChain(&cluster, 6, /*spread=*/1);
  ASSERT_TRUE(cluster.Sync().ok());

  const std::string closure =
      "select Ancestor from Provenance.file as F F.input* as Ancestor "
      "where F.name = \"/f5\"";
  // Portal on shard 1: every chain file is a remote lookup it caches.
  FederatedSource source = cluster.Source(/*portal_shard=*/1);
  ASSERT_EQ(pql::Engine(&source).Run(closure)->SortedRows(),
            *MergedRows(cluster, closure));

  auto n = cluster.WriteWithLineage(0, "/n", "nnn", {});
  ASSERT_TRUE(n.ok());
  // Within 64 of /f0, so a change counter shared by 64 neighbouring pnodes
  // would cover /n and the whole chain alike.
  ASSERT_GT(n->pnode, refs[0].pnode);
  ASSERT_LT(n->pnode - refs[0].pnode, 64u);
  ASSERT_TRUE(cluster.Sync().ok());

  // No zero-invalidation assertion: /n's input edge adds a reverse row
  // under the shard's worker process, so that process's entries rightly
  // drop. Every chain file's own entries stay.
  FederatedSourceTestPeer peer(&source);
  uint32_t name_id = peer.Intern("name");
  for (const core::ObjectRef& ref : refs) {
    EXPECT_TRUE(peer.ProbeAttr(ref.pnode, name_id)) << ref.ToString();
    EXPECT_TRUE(peer.ProbeEdges(ref, /*inverse=*/false)) << ref.ToString();
  }
  EXPECT_EQ(pql::Engine(&source).Run(closure)->SortedRows(),
            *MergedRows(cluster, closure));
}

// Ingest that *does* mutate a cached pnode's rows must drop exactly that
// entry via its stamp, even with no epoch bump anywhere.
TEST(FederatedCacheTest, StampCatchesMutationOfCachedPnode) {
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
  // /a's pnode on shard 0, moving its stamp.
  ASSERT_TRUE(cluster.WriteWithLineage(1, "/b", "bbb", {*a}).ok());
  ASSERT_TRUE(cluster.Sync().ok());
  auto after = pql::Engine(&source).Run(descendants)->SortedRows();
  EXPECT_EQ(after.size(), 2u);
  EXPECT_EQ(after, *MergedRows(cluster, descendants));
  EXPECT_GT(source.stats().cache_entries_invalidated, 0u);
}

// Probing a warm cache allocates nothing — the CacheKey is flat (interned
// attr id, no strings), the owner and stamp checks are map lookups,
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

// The cache evicts in least-recently-used order: a hit makes an entry the
// newest, and an insert into a full cache evicts the oldest. A node asked
// twice in one frontier takes one entry.
TEST(FederatedCacheTest, EvictsLeastRecentlyUsedEntryFirst) {
  ClusterCoordinator cluster(SmallCluster(2));
  std::vector<pql::Node> files;
  for (int i = 0; i < 6; ++i) {
    // Shard 1: remote to a portal on shard 0, so every name is cached.
    auto ref = cluster.WriteWithLineage(1, "/e" + std::to_string(i), "x", {});
    ASSERT_TRUE(ref.ok());
    files.push_back(*ref);
  }
  ASSERT_TRUE(cluster.Sync().ok());
  auto name_of = [](FederatedSource& source, const pql::Node& node) {
    pql::ValueSet values = source.Attribute(node, "name");
    return values.size() == 1 ? values[0].ToString() : std::string();
  };

  // Every name is 3 bytes, so every entry takes the same bytes.
  FederatedSource sizing = cluster.Source(/*portal_shard=*/0);
  ASSERT_EQ(name_of(sizing, files[0]), "/e0");
  const size_t entry_bytes = sizing.cache_bytes_used();
  ASSERT_GT(entry_bytes, 0u);

  const size_t k = 4;
  FederatedSource source = cluster.Source(/*portal_shard=*/0, k * entry_bytes);
  for (size_t i = 0; i < k; ++i) {  // oldest first: /e0, /e1, /e2, /e3
    ASSERT_EQ(name_of(source, files[i]), "/e" + std::to_string(i));
  }
  EXPECT_EQ(source.cache_bytes_used(), k * entry_bytes);
  EXPECT_EQ(source.stats().cache_evictions, 0u);

  uint64_t hits = source.stats().cache_hits;
  ASSERT_EQ(name_of(source, files[0]), "/e0");  // touch the oldest
  EXPECT_EQ(source.stats().cache_hits, hits + 1);
  ASSERT_EQ(name_of(source, files[4]), "/e4");  // evicts /e1, not /e0
  EXPECT_EQ(source.stats().cache_evictions, 1u);
  EXPECT_EQ(source.cache_bytes_used(), k * entry_bytes);

  // /e5 twice in one frontier: both miss, and the second fill replaces the
  // first, so only the oldest entry (/e2) goes.
  uint64_t misses = source.stats().cache_misses;
  auto twice = source.AttributeMany({files[5], files[5]}, "name");
  ASSERT_EQ(twice.size(), 2u);
  EXPECT_EQ(twice[0].size(), 1u);
  EXPECT_EQ(twice[1].size(), 1u);
  EXPECT_EQ(source.stats().cache_misses, misses + 2);
  EXPECT_EQ(source.stats().cache_evictions, 2u);
  EXPECT_EQ(source.cache_bytes_used(), k * entry_bytes);

  FederatedSourceTestPeer peer(&source);
  uint32_t name_id = peer.Intern("name");
  std::vector<bool> cached;
  for (const pql::Node& file : files) {
    cached.push_back(peer.ProbeAttr(file.pnode, name_id));
  }
  EXPECT_EQ(cached, (std::vector<bool>{true, false, false, true, true, true}));
}

// cluster.Source() hands sources out by value: a move carries the cache's
// entries and their LRU links over intact, by construction and by
// assignment alike.
TEST(FederatedCacheTest, MovedSourceKeepsItsCacheAndOrder) {
  ClusterCoordinator cluster(SmallCluster(4));
  auto refs = BuildCrossShardChain(&cluster, 12);
  ASSERT_TRUE(cluster.Sync().ok());

  FederatedSource source = cluster.Source(/*portal_shard=*/0,
                                          /*cache_bytes=*/768);
  auto before = pql::Engine(&source).Run(kTailClosure)->SortedRows();
  ASSERT_GT(source.stats().cache_evictions, 0u);
  size_t used = source.cache_bytes_used();

  FederatedSource moved(std::move(source));
  EXPECT_EQ(moved.cache_bytes_used(), used);
  FederatedSource assigned = cluster.Source(/*portal_shard=*/0);
  assigned = std::move(moved);
  EXPECT_EQ(assigned.cache_bytes_used(), used);
  uint64_t hits = assigned.stats().cache_hits;
  uint64_t evictions = assigned.stats().cache_evictions;
  // The same closure again: its latest entries hit, and the fills evict
  // through the carried-over links.
  EXPECT_EQ(pql::Engine(&assigned).Run(kTailClosure)->SortedRows(), before);
  EXPECT_GT(assigned.stats().cache_hits, hits);
  EXPECT_GT(assigned.stats().cache_evictions, evictions);
  EXPECT_LE(assigned.cache_bytes_used(), 768u);
  EXPECT_EQ(before, *MergedRows(cluster, kTailClosure));
}

// Both sources read attributes by one rule, so a portal's AttributeMany
// equals ProvDbSource's over the merged database for every name, in any
// case: kinds, annotations (an annotation keyed "Name" answers `name` next
// to the NAME rows), virtual attributes and unknown names, over nodes with
// several versions or no rows, local and remote, cached and not.
TEST(FederatedCacheTest, AttributeManyEqualsMergedDatabaseForEveryName) {
  ClusterCoordinator cluster(SmallCluster(4));
  auto refs = BuildCrossShardChain(&cluster, 8);
  ASSERT_TRUE(cluster.Sync().ok());
  for (size_t i = 0; i < refs.size(); ++i) {
    // Rows of two versions on each file's owner, as ingest would put them.
    waldo::ProvDb& owner = cluster.shard_db(cluster.OwnerOf(refs[i].pnode));
    owner.Insert({refs[i], core::Record::Annotation(
                               i % 2 == 0 ? "taint" : "TaInt", int64_t{1})});
    owner.Insert({{refs[i].pnode, refs[i].version + 1},
                  core::Record::Annotation(
                      "Name", std::string("alias") + std::to_string(i))});
    if (i % 3 == 0) {  // /f0 (local to the portal), /f3 and /f6 (remote)
      owner.Insert({refs[i], core::Record::Of(core::Attr::kArgv,
                                               std::string("cp a b"))});
    }
  }
  waldo::ProvDb merged;
  cluster.MergeInto(&merged);
  pql::ProvDbSource single(&merged);
  std::vector<pql::Node> frontier = single.RootSet("object");
  frontier.push_back({refs[0].pnode + 4096, 0});  // no rows on any shard
  ASSERT_GT(frontier.size(), refs.size());
  ASSERT_EQ(single.Attribute(refs[3], "name").size(), 2u);  // "/f3", "alias3"

  auto strings = [](const std::vector<pql::ValueSet>& sets) {
    std::vector<std::vector<std::string>> out;
    for (const pql::ValueSet& values : sets) {
      out.emplace_back();
      for (const pql::Value& value : values) {
        out.back().push_back(value.ToString());
      }
    }
    return out;
  };
  const char* kNames[] = {"name", "NAME", "type",    "pid",     "argv",
                          "taint", "TaInt", "pnode", "version", "no_such"};
  FederatedSource portal = cluster.Source(/*portal_shard=*/0);
  // Half the frontier first: the first full round mixes cached and uncached
  // nodes, the second reads every remote node from the cache.
  std::vector<pql::Node> half(frontier.begin(),
                              frontier.begin() + frontier.size() / 2);
  for (const char* attr : kNames) {
    portal.AttributeMany(half, attr);
  }
  for (int round = 0; round < 2; ++round) {
    for (const char* attr : kNames) {
      auto want = strings(single.AttributeMany(frontier, attr));
      EXPECT_EQ(strings(portal.AttributeMany(frontier, attr)), want)
          << attr << ", round " << round;
      bool any = std::any_of(want.begin(), want.end(), [](const auto& values) {
        return !values.empty();
      });
      EXPECT_EQ(any, std::string(attr) != "no_such") << attr;
    }
  }
  EXPECT_GT(portal.stats().cache_hits, 0u);
  EXPECT_GT(portal.stats().cache_misses, 0u);
  EXPECT_GT(portal.stats().local_ops, 0u);
  EXPECT_GT(portal.stats().remote_ops, 0u);
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
