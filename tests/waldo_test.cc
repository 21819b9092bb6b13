// Tests for Waldo: the KV segment store, the provenance database, and the
// log-draining daemon.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/core/object.h"
#include "src/fs/memfs.h"
#include "src/lasagna/lasagna.h"
#include "src/sim/env.h"
#include "src/waldo/kvstore.h"
#include "src/waldo/provdb.h"
#include "src/waldo/waldo.h"

namespace pass::waldo {
namespace {

// Every live value of exactly `key`, oldest first, read through Scan (the
// store's only read path).
std::vector<std::string> ValuesOf(const KvStore& store, std::string_view key) {
  std::vector<std::string> values;
  store.Scan(key, [&](std::string_view scanned, std::string_view value) {
    if (scanned == key) {
      values.emplace_back(value);
    }
  });
  return values;
}

TEST(KvStoreTest, PutGetMultiValue) {
  KvStore store;
  store.Put("k", "v1");
  store.Put("k", "v2");
  auto values = ValuesOf(store, "k");
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0], "v1");
  EXPECT_EQ(values[1], "v2");
  EXPECT_TRUE(ValuesOf(store, "missing").empty());
}

TEST(KvStoreTest, DeleteTombstones) {
  KvStore store;
  store.Put("k", "v");
  store.Delete("k");
  EXPECT_TRUE(ValuesOf(store, "k").empty());
  EXPECT_EQ(store.stats().tombstones, 1u);
  EXPECT_EQ(store.stats().entries, 0u);
}

TEST(KvStoreTest, ScanByPrefixInOrder) {
  KvStore store;
  store.Put("i/b", "2");
  store.Put("i/a", "1");
  store.Put("o/z", "x");
  store.Put("i/c", "3");
  std::vector<std::string> keys;
  store.Scan("i/", [&](std::string_view key, std::string_view value) {
    keys.emplace_back(key);
  });
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], "i/a");
  EXPECT_EQ(keys[2], "i/c");
}

TEST(KvStoreTest, SegmentsRotate) {
  KvStore store(/*segment_bytes=*/256);
  for (int i = 0; i < 50; ++i) {
    store.Put("key" + std::to_string(i), std::string(32, 'v'));
  }
  EXPECT_GT(store.stats().segments, 3u);
}

TEST(KvStoreTest, CompactReclaimsDeletedSpace) {
  KvStore store(/*segment_bytes=*/1024, /*auto_compact=*/false);
  for (int i = 0; i < 100; ++i) {
    store.Put("key" + std::to_string(i), std::string(64, 'v'));
  }
  for (int i = 0; i < 90; ++i) {
    store.Delete("key" + std::to_string(i));
  }
  uint64_t before = store.stats().bytes;
  uint64_t reclaimed = store.Compact();
  EXPECT_GT(reclaimed, 0u);
  EXPECT_LT(store.stats().bytes, before);
  // Survivors intact.
  for (int i = 90; i < 100; ++i) {
    EXPECT_FALSE(ValuesOf(store, "key" + std::to_string(i)).empty()) << i;
  }
}

TEST(KvStoreTest, CompactRewritesLiveEntriesInKeyOrder) {
  // Compaction writes the survivors in key order, each key's values in
  // insertion order: exactly the image a fresh store gets from putting them
  // that way. Table 3's byte counts depend on this layout.
  KvStore store(/*segment_bytes=*/256, /*auto_compact=*/false);
  std::map<std::string, std::vector<std::string>> expected;
  for (int round = 0; round < 4; ++round) {
    for (int i = 9; i >= 0; --i) {
      std::string key = "k" + std::to_string((i * 7 + round) % 10);
      std::string value(1 + i, static_cast<char>('a' + round));
      store.Put(key, value);
      expected[key].push_back(value);
    }
    for (int i = round; i < 10; i += 3) {
      std::string key = "k" + std::to_string(i);
      store.Delete(key);
      expected.erase(key);
    }
  }
  ASSERT_FALSE(expected.empty());
  store.Compact();
  KvStore fresh(/*segment_bytes=*/256, /*auto_compact=*/false);
  for (const auto& [key, values] : expected) {
    for (const std::string& value : values) {
      fresh.Put(key, value);
    }
  }
  EXPECT_EQ(store.Serialize(), fresh.Serialize());
  EXPECT_EQ(store.stats().segments, fresh.stats().segments);
  EXPECT_EQ(store.stats().live_bytes, fresh.stats().live_bytes);
}

TEST(KvStoreTest, AutoCompactionReclaimsSpaceUnderDeleteChurn) {
  // Heavy Delete churn: without auto-compaction the segment log would keep
  // every dead entry and every tombstone forever.
  KvStore store(/*segment_bytes=*/1024);
  KvStore baseline(/*segment_bytes=*/1024, /*auto_compact=*/false);
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 50; ++i) {
      std::string key = "churn" + std::to_string(i);
      std::string value(64, static_cast<char>('a' + round));
      store.Put(key, value);
      baseline.Put(key, value);
    }
    for (int i = 0; i < 45; ++i) {
      std::string key = "churn" + std::to_string(i);
      store.Delete(key);
      baseline.Delete(key);
    }
  }
  EXPECT_GT(store.stats().compactions, 0u);
  EXPECT_LT(store.stats().bytes, baseline.stats().bytes / 2);
  // Dead bytes stay bounded by the live share (3x allows frame overhead,
  // which live_bytes does not count).
  EXPECT_LE(store.stats().bytes, 3 * store.stats().live_bytes + 1024);
  // Survivors are intact and multi-values preserved.
  for (int i = 45; i < 50; ++i) {
    auto values = ValuesOf(store, "churn" + std::to_string(i));
    ASSERT_EQ(values.size(), 10u);
    EXPECT_EQ(values.back(), std::string(64, 'j'));
  }
}

TEST(KvStoreTest, SerializeDeserializeRoundTrip) {
  KvStore store;
  store.Put("a", "1");
  store.Put("b", "2");
  store.Put("b", "3");
  store.Delete("a");
  auto restored = KvStore::Deserialize(store.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(ValuesOf(*restored, "a").empty());
  auto values = ValuesOf(*restored, "b");
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[1], "3");
}

TEST(KvStoreTest, DeserializeRejectsCorruption) {
  KvStore store;
  store.Put("key", "value");
  std::string image = store.Serialize();
  image[image.size() / 2] ^= 0x10;
  auto restored = KvStore::Deserialize(image);
  EXPECT_FALSE(restored.ok());
}

// ---- ProvDb ------------------------------------------------------------------

lasagna::LogEntry Entry(core::ObjectRef subject, core::Record record) {
  return lasagna::LogEntry{subject, std::move(record)};
}

TEST(ProvDbTest, AttributesAndEdges) {
  ProvDb db;
  db.Insert(Entry({1, 0}, core::Record::Name("/out")));
  db.Insert(Entry({1, 0}, core::Record::Type("FILE")));
  db.Insert(Entry({1, 0}, core::Record::Input({2, 0})));
  db.Insert(Entry({2, 0}, core::Record::Type("PROC")));

  auto records = db.RecordsOf({1, 0});
  EXPECT_EQ(records.size(), 2u);  // INPUT lives in the edge tables
  auto inputs = db.Inputs({1, 0});
  ASSERT_EQ(inputs.size(), 1u);
  EXPECT_EQ(inputs[0], (core::ObjectRef{2, 0}));
  auto outputs = db.Outputs({2, 0});
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(outputs[0], (core::ObjectRef{1, 0}));
}

TEST(ProvDbTest, NameAndTypeIndexes) {
  ProvDb db;
  db.Insert(Entry({1, 0}, core::Record::Name("/out")));
  db.Insert(Entry({2, 0}, core::Record::Type("PROC")));
  db.Insert(Entry({3, 0}, core::Record::Name("/out")));  // hard link twin
  auto by_name = db.PnodesByName("/out");
  EXPECT_EQ(by_name.size(), 2u);
  auto by_type = db.PnodesByType("PROC");
  ASSERT_EQ(by_type.size(), 1u);
  EXPECT_EQ(by_type[0], 2u);
  EXPECT_EQ(db.NameOf(1), "/out");
  EXPECT_EQ(db.NameOf(99), "");
}

TEST(ProvDbTest, VersionsAccumulate) {
  ProvDb db;
  db.Insert(Entry({1, 0}, core::Record::Type("FILE")));
  db.Insert(Entry({1, 2}, core::Record::Input({1, 1})));
  auto versions = db.VersionsOf(1);
  ASSERT_EQ(versions.size(), 3u);  // 0, 1 (as ancestor), 2
  EXPECT_EQ(versions[2], 2u);
}

TEST(ProvDbTest, BulkLookupsAlignWithSingleLookups) {
  ProvDb db;
  db.Insert(Entry({1, 0}, core::Record::Name("/a")));
  db.Insert(Entry({1, 0}, core::Record::Input({2, 0})));
  db.Insert(Entry({1, 0}, core::Record::Input({3, 0})));
  db.Insert(Entry({2, 0}, core::Record::Type("PROC")));

  std::vector<core::ObjectRef> refs = {{1, 0}, {2, 0}, {99, 0}};
  auto inputs = db.InputsMany(refs);
  auto outputs = db.OutputsMany(refs);
  ASSERT_EQ(inputs.size(), refs.size());
  ASSERT_EQ(outputs.size(), refs.size());
  for (size_t i = 0; i < refs.size(); ++i) {
    EXPECT_EQ(inputs[i], db.Inputs(refs[i])) << i;
    EXPECT_EQ(outputs[i], db.Outputs(refs[i])) << i;
  }
  auto records = db.RecordsOfAllVersionsMany({1, 2, 99});
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].size(), db.RecordsOfAllVersions(1).size());
  EXPECT_EQ(records[1].size(), db.RecordsOfAllVersions(2).size());
  EXPECT_TRUE(records[2].empty());
}

TEST(ProvDbTest, StatsTrackStores) {
  ProvDb db;
  db.Insert(Entry({1, 0}, core::Record::Name("/out")));
  db.Insert(Entry({1, 0}, core::Record::Input({2, 0})));
  auto stats = db.stats();
  EXPECT_EQ(stats.records, 1u);
  EXPECT_EQ(stats.edges, 1u);
  EXPECT_GT(stats.db_bytes, 0u);
  EXPECT_GT(stats.index_bytes, 0u);
}

TEST(ProvDbTest, SerializeDeserializePreservesQueryResults) {
  ProvDb db;
  db.Insert(Entry({1, 0}, core::Record::Name("/out")));
  db.Insert(Entry({1, 0}, core::Record::Type("FILE")));
  db.Insert(Entry({1, 0}, core::Record::Input({2, 0})));
  db.Insert(Entry({1, 2}, core::Record::Input({1, 1})));
  db.Insert(Entry({2, 0}, core::Record::Type("PROC")));
  db.Insert(Entry({2, 0}, core::Record::Of(core::Attr::kPid, int64_t{42})));
  db.Insert(Entry({3, 0}, core::Record::Annotation("step", int64_t{7})));

  auto restored = ProvDb::Deserialize(db.Serialize());
  ASSERT_TRUE(restored.ok());

  EXPECT_EQ(restored->RecordsOf({1, 0}), db.RecordsOf({1, 0}));
  EXPECT_EQ(restored->RecordsOfAllVersions(1), db.RecordsOfAllVersions(1));
  EXPECT_EQ(restored->Inputs({1, 0}), db.Inputs({1, 0}));
  EXPECT_EQ(restored->Inputs({1, 2}), db.Inputs({1, 2}));
  EXPECT_EQ(restored->Outputs({2, 0}), db.Outputs({2, 0}));
  EXPECT_EQ(restored->VersionsOf(1), db.VersionsOf(1));
  EXPECT_EQ(restored->PnodesByName("/out"), db.PnodesByName("/out"));
  EXPECT_EQ(restored->PnodesByType("PROC"), db.PnodesByType("PROC"));
  EXPECT_EQ(restored->NameOf(1), "/out");
  EXPECT_EQ(restored->AllPnodes(), db.AllPnodes());
  EXPECT_EQ(restored->RecordsOf({3, 0}), db.RecordsOf({3, 0}));
  EXPECT_EQ(restored->stats().records, db.stats().records);
  EXPECT_EQ(restored->stats().edges, db.stats().edges);
  EXPECT_EQ(restored->stats().objects, db.stats().objects);
  EXPECT_EQ(restored->stats().db_bytes, db.stats().db_bytes);
  EXPECT_EQ(restored->stats().index_bytes, db.stats().index_bytes);
}

TEST(ProvDbTest, DeserializeRejectsCorruptImage) {
  ProvDb db;
  db.Insert(Entry({1, 0}, core::Record::Name("/out")));
  std::string image = db.Serialize();
  image[image.size() - 3] ^= 0x40;
  EXPECT_FALSE(ProvDb::Deserialize(image).ok());
}

// ---- Range surface (cluster migration) --------------------------------------

// Fixture data: pnodes 10..12 form a chain 12 <- 11 <- 10, and pnode 50
// outside the range depends on 11 inside it.
ProvDb RangeDb() {
  ProvDb db;
  db.Insert(Entry({10, 0}, core::Record::Name("/a")));
  db.Insert(Entry({10, 0}, core::Record::Type("FILE")));
  db.Insert(Entry({11, 0}, core::Record::Name("/b")));
  db.Insert(Entry({11, 0}, core::Record::Input({10, 0})));
  db.Insert(Entry({12, 0}, core::Record::Name("/c")));
  db.Insert(Entry({12, 0}, core::Record::Input({11, 0})));
  db.Insert(Entry({50, 0}, core::Record::Name("/far")));
  db.Insert(Entry({50, 0}, core::Record::Input({11, 0})));
  return db;
}

TEST(ProvDbTest, RecordAndEdgeCountAccessors) {
  ProvDb db = RangeDb();
  EXPECT_EQ(db.RecordCount(), 5u);
  EXPECT_EQ(db.EdgeCount(), 3u);
  EXPECT_EQ(db.RecordCount(), db.stats().records);
  EXPECT_EQ(db.EdgeCount(), db.stats().edges);
}

TEST(ProvDbTest, RowsInRangeCountsSubjectRows) {
  ProvDb db = RangeDb();
  EXPECT_EQ(db.RowsInRange(10, 13), 6u);  // 4 attrs + 2 in-range fwd edges
  EXPECT_EQ(db.RowsInRange(50, 51), 2u);  // /far's name + its edge
  EXPECT_EQ(db.RowsInRange(13, 50), 0u);
  auto weights = db.PnodeRowsInRange(10, 13);
  ASSERT_EQ(weights.size(), 3u);
  EXPECT_EQ(weights[0], (std::pair<core::PnodeId, uint64_t>{10, 2}));
  EXPECT_EQ(weights[1], (std::pair<core::PnodeId, uint64_t>{11, 2}));
  EXPECT_EQ(weights[2], (std::pair<core::PnodeId, uint64_t>{12, 2}));
}

TEST(ProvDbTest, InsertUniqueSkipsRowsAlreadyPresent) {
  ProvDb db = RangeDb();
  EXPECT_FALSE(db.InsertUnique(Entry({10, 0}, core::Record::Name("/a"))));
  EXPECT_FALSE(db.InsertUnique(Entry({11, 0}, core::Record::Input({10, 0}))));
  EXPECT_EQ(db.RecordCount(), 5u);
  EXPECT_EQ(db.EdgeCount(), 3u);
  EXPECT_TRUE(db.InsertUnique(Entry({10, 0}, core::Record::Name("/other"))));
  EXPECT_TRUE(db.InsertUnique(Entry({11, 0}, core::Record::Input({12, 0}))));
  EXPECT_FALSE(db.InsertUnique(Entry({11, 0}, core::Record::Input({12, 0}))));
  EXPECT_EQ(db.RecordCount(), 6u);
  EXPECT_EQ(db.EdgeCount(), 4u);
}

TEST(ProvDbTest, InsertUniqueCompletesAHalfPresentEdge) {
  // After DeleteRange(10, 13), the 50 -> 11 edge survives only as 50's
  // forward row; re-inserting the entry must restore the missing reverse
  // half without duplicating the forward one.
  ProvDb db = RangeDb();
  db.DeleteRange(10, 13);
  ASSERT_TRUE(db.Outputs({11, 0}).empty());
  ASSERT_EQ(db.Inputs({50, 0}).size(), 1u);
  EXPECT_TRUE(db.InsertUnique(Entry({50, 0}, core::Record::Input({11, 0}))));
  EXPECT_EQ(db.Inputs({50, 0}).size(), 1u);
  ASSERT_EQ(db.Outputs({11, 0}).size(), 1u);
  EXPECT_EQ(db.Outputs({11, 0})[0], (core::ObjectRef{50, 0}));
}

TEST(ProvDbTest, DeleteRangeIgnoresEmptyAndInvertedRanges) {
  ProvDb db = RangeDb();
  EXPECT_EQ(db.DeleteRange(0, 0), 0u);
  EXPECT_EQ(db.DeleteRange(50, 10), 0u);
  EXPECT_EQ(db.RecordCount(), 5u);
  EXPECT_EQ(db.AllPnodes().size(), 4u);
  EXPECT_EQ(db.NameOf(10), "/a");
}

TEST(ProvDbTest, EntriesInRangeReplayIntoAnEquivalentRange) {
  ProvDb db = RangeDb();
  ProvDb moved;
  for (const auto& entry : db.EntriesInRange(10, 13)) {
    moved.Insert(entry);
  }
  // Subject rows of 10..12 all arrived.
  EXPECT_EQ(moved.RecordsOf({10, 0}), db.RecordsOf({10, 0}));
  EXPECT_EQ(moved.Inputs({11, 0}), db.Inputs({11, 0}));
  EXPECT_EQ(moved.Inputs({12, 0}), db.Inputs({12, 0}));
  // The reverse row naming out-of-range 50 as descendant of 11 came too.
  EXPECT_EQ(moved.Outputs({11, 0}), db.Outputs({11, 0}));
  // But 50's own attribute rows did not (they are not in the range).
  EXPECT_TRUE(moved.RecordsOf({50, 0}).empty());
  // No duplicates: the 12<-11 edge appears once although both ends are
  // in range (forward and reverse rows come from one entry).
  EXPECT_EQ(moved.Inputs({12, 0}).size(), 1u);
  EXPECT_EQ(moved.EdgeCount(), 3u);
}

TEST(ProvDbTest, DeleteRangeDropsKeyedRowsOnly) {
  ProvDb db = RangeDb();
  uint64_t removed = db.DeleteRange(10, 13);
  EXPECT_GT(removed, 0u);
  // In-range subjects are gone from every surface.
  EXPECT_TRUE(db.RecordsOf({10, 0}).empty());
  EXPECT_TRUE(db.Inputs({12, 0}).empty());
  EXPECT_TRUE(db.Outputs({11, 0}).empty());
  EXPECT_TRUE(db.VersionsOf(11).empty());
  EXPECT_TRUE(db.PnodesByName("/b").empty());
  EXPECT_EQ(db.NameOf(10), "");
  EXPECT_EQ(db.RowsInRange(10, 13), 0u);
  // Out-of-range rows stay — including 50's forward edge into the range.
  EXPECT_EQ(db.RecordsOf({50, 0}).size(), 1u);
  ASSERT_EQ(db.Inputs({50, 0}).size(), 1u);
  EXPECT_EQ(db.Inputs({50, 0})[0], (core::ObjectRef{11, 0}));
  ASSERT_EQ(db.PnodesByName("/far").size(), 1u);
  // Counters reconcile.
  EXPECT_EQ(db.RecordCount(), 1u);
  EXPECT_EQ(db.EdgeCount(), 1u);
}

TEST(ProvDbTest, DeleteRangeSurvivesSerializeRoundTrip) {
  ProvDb db = RangeDb();
  db.DeleteRange(10, 13);
  auto restored = ProvDb::Deserialize(db.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->RecordsOf({10, 0}).empty());
  EXPECT_TRUE(restored->VersionsOf(12).empty());
  // The deleted reverse row does not resurrect from 50's surviving forward
  // edge: outputs rebuild from 'o/' keys alone.
  EXPECT_TRUE(restored->Outputs({11, 0}).empty());
  EXPECT_EQ(restored->RecordsOf({50, 0}), db.RecordsOf({50, 0}));
  EXPECT_EQ(restored->Inputs({50, 0}), db.Inputs({50, 0}));
  EXPECT_EQ(restored->PnodesByName("/far"), db.PnodesByName("/far"));
  EXPECT_EQ(restored->stats().records, db.stats().records);
  EXPECT_EQ(restored->stats().edges, db.stats().edges);
  EXPECT_EQ(restored->stats().db_bytes, db.stats().db_bytes);
  EXPECT_EQ(restored->stats().index_bytes, db.stats().index_bytes);
}

TEST(ProvDbTest, CompactedStoresSurviveSerializeRoundTrip) {
  // 100 chained files; deleting 90 of them sends the records store through
  // auto-compaction, so the image holds compacted segments plus the
  // tombstones written after the last compaction.
  ProvDb db;
  for (core::PnodeId pnode = 1; pnode <= 100; ++pnode) {
    db.Insert(Entry({pnode, 0}, core::Record::Name(
                                    "/f" + std::to_string(pnode))));
    db.Insert(Entry({pnode, 0}, core::Record::Type("FILE")));
    if (pnode > 1) {
      db.Insert(Entry({pnode, 0}, core::Record::Input({pnode - 1, 0})));
    }
  }
  EXPECT_EQ(db.stats().db_bytes, 11792u);
  db.DeleteRange(1, 91);
  EXPECT_EQ(db.stats().db_bytes, 3773u);

  auto restored = ProvDb::Deserialize(db.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->stats().db_bytes, db.stats().db_bytes);
  EXPECT_EQ(restored->stats().index_bytes, db.stats().index_bytes);
  EXPECT_EQ(restored->Inputs({95, 0}), db.Inputs({95, 0}));
  ASSERT_EQ(restored->Inputs({95, 0}).size(), 1u);
  EXPECT_EQ(restored->PnodesByType("FILE"), db.PnodesByType("FILE"));
  EXPECT_EQ(restored->PnodesByType("FILE").size(), 10u);
}

TEST(ProvDbTest, PartialNameIndexDeleteKeepsSurvivors) {
  ProvDb db;
  db.Insert(Entry({5, 0}, core::Record::Name("/twin")));
  db.Insert(Entry({80, 0}, core::Record::Name("/twin")));  // hard link twin
  db.DeleteRange(0, 10);
  auto by_name = db.PnodesByName("/twin");
  ASSERT_EQ(by_name.size(), 1u);
  EXPECT_EQ(by_name[0], 80u);
}

// ---- Waldo daemon ------------------------------------------------------------

class WaldoTest : public ::testing::Test {
 protected:
  WaldoTest()
      : env_(5),
        lower_(&env_, nullptr, {}, {}, {},
               fs::MemFsOptions{.charge_disk = false}),
        allocator_(0),
        volume_(&env_, &lower_, &allocator_, SmallLogs()),
        waldo_(&db_) {
    waldo_.AddVolume(&volume_);
  }

  static lasagna::LasagnaOptions SmallLogs() {
    lasagna::LasagnaOptions options;
    options.log_rotate_bytes = 512;
    return options;
  }

  sim::Env env_;
  fs::MemFs lower_;
  core::PnodeAllocator allocator_;
  lasagna::LasagnaFs volume_;
  ProvDb db_;
  Waldo waldo_;
};

TEST_F(WaldoTest, DrainMovesRecordsToDatabase) {
  auto root = volume_.root();
  auto file = *root->Create("out", os::VnodeType::kFile);
  core::Bundle bundle{core::BundleEntry{
      {file->pnode(), 0},
      {core::Record::Name("/out"), core::Record::Input({777, 0})}}};
  ASSERT_TRUE(file->PassWrite(0, "data", bundle).ok());
  ASSERT_TRUE(waldo_.Drain().ok());

  EXPECT_GE(waldo_.stats().entries_ingested, 2u);
  EXPECT_EQ(db_.PnodesByName("/out").size(), 1u);
  EXPECT_EQ(db_.Inputs({file->pnode(), 0}).size(), 1u);
  // Logs consumed and removed.
  EXPECT_TRUE(volume_.ClosedLogPaths().empty());
}

TEST_F(WaldoTest, PollConsumesOnlyClosedLogs) {
  auto root = volume_.root();
  auto file = *root->Create("out", os::VnodeType::kFile);
  ASSERT_TRUE(file->Write(0, "x").ok());  // tiny: log stays open
  ASSERT_TRUE(waldo_.Poll().ok());
  EXPECT_EQ(waldo_.stats().logs_processed, 0u);
  ASSERT_TRUE(volume_.ForceRotate().ok());
  ASSERT_TRUE(waldo_.Poll().ok());
  EXPECT_EQ(waldo_.stats().logs_processed, 1u);
}

TEST_F(WaldoTest, OrphanedTransactionsDiscarded) {
  // Close one real log, then overwrite it with a hand-crafted BEGINTXN that
  // never commits (a crashed client), so Waldo reads exactly that log.
  auto root = volume_.root();
  auto file = *root->Create("f", os::VnodeType::kFile);
  ASSERT_TRUE(file->Write(0, "y").ok());
  ASSERT_TRUE(volume_.ForceRotate().ok());
  std::vector<std::string> closed = volume_.ClosedLogPaths();
  ASSERT_EQ(closed.size(), 1u);
  std::string log;
  lasagna::EncodeLogEntry(
      &log, {{1, 0}, core::Record::Of(core::Attr::kBeginTxn, int64_t{99})});
  lasagna::EncodeLogEntry(&log, {{1, 0}, core::Record::Name("/never")});
  ASSERT_TRUE(lower_.WriteFileRaw(closed[0], log).ok());

  ASSERT_TRUE(waldo_.Poll().ok());
  EXPECT_EQ(waldo_.stats().logs_processed, 1u);
  EXPECT_EQ(waldo_.stats().orphans_discarded, 2u);
  EXPECT_EQ(waldo_.stats().entries_ingested, 0u);
  EXPECT_TRUE(db_.PnodesByName("/never").empty());
}

TEST_F(WaldoTest, MultipleRotationsAllIngested) {
  auto root = volume_.root();
  auto file = *root->Create("big", os::VnodeType::kFile);
  for (int i = 0; i < 20; ++i) {
    core::Bundle bundle{core::BundleEntry{
        {file->pnode(), 0},
        {core::Record::Annotation("step", int64_t{i})}}};
    ASSERT_TRUE(file->PassWrite(i, "z", bundle).ok());
  }
  ASSERT_TRUE(waldo_.Drain().ok());
  EXPECT_GT(waldo_.stats().logs_processed, 2u);
  EXPECT_GE(db_.RecordsOf({file->pnode(), 0}).size(), 20u);
}

// Per-range mutation fingerprints: every row keyed into a 64-pnode bucket
// bumps that bucket's counter, and only that bucket's — the federated
// cache's per-entry revalidation depends on untouched buckets staying put.
TEST(ProvDbTest, RangeFingerprintsTrackMutationsPerBucket) {
  ProvDb db;
  EXPECT_EQ(db.range_mutation_count(10), 0u);
  db.Insert(Entry({10, 0}, core::Record::Name("/a")));
  // 10 and 63 share bucket 0; 64 starts bucket 1.
  EXPECT_EQ(db.range_mutation_count(10), 1u);
  EXPECT_EQ(db.range_mutation_count(63), 1u);
  EXPECT_EQ(db.range_mutation_count(64), 0u);
  // An edge bumps both endpoints' buckets: the reverse-index row under the
  // ancestor is as much a mutation of its range as the forward row.
  db.Insert(Entry({70, 0}, core::Record::Input({10, 0})));
  EXPECT_EQ(db.range_mutation_count(70), 1u);
  EXPECT_EQ(db.range_mutation_count(10), 2u);
}

TEST(ProvDbTest, RangeFingerprintIgnoresDuplicateInsertUnique) {
  ProvDb db;
  EXPECT_TRUE(db.InsertUnique(Entry({10, 0}, core::Record::Name("/a"))));
  uint64_t after_first = db.range_mutation_count(10);
  EXPECT_GT(after_first, 0u);
  // A replayed row is not a mutation: redelivered ingest batches must not
  // shake warm cache entries loose.
  EXPECT_FALSE(db.InsertUnique(Entry({10, 0}, core::Record::Name("/a"))));
  EXPECT_EQ(db.range_mutation_count(10), after_first);
  EXPECT_TRUE(db.InsertUnique(Entry({10, 0}, core::Record::Name("/b"))));
  EXPECT_GT(db.range_mutation_count(10), after_first);
}

TEST(ProvDbTest, DeleteRangeBumpsOnlyTouchedBuckets) {
  // RangeDb's pnodes (10-12, 50) all share bucket 0; the far subject must
  // sit past pnode 63 to own a bucket of its own.
  ProvDb db;
  db.Insert(Entry({10, 0}, core::Record::Name("/a")));
  db.Insert(Entry({11, 0}, core::Record::Input({10, 0})));
  db.Insert(Entry({200, 0}, core::Record::Name("/far")));
  db.Insert(Entry({200, 0}, core::Record::Input({11, 0})));
  uint64_t near = db.range_mutation_count(10);
  uint64_t far = db.range_mutation_count(200);
  EXPECT_GT(db.DeleteRange(10, 64), 0u);
  EXPECT_GT(db.range_mutation_count(10), near);
  // Every deleted row was keyed in [10, 64) — all bucket 0, including the
  // 11 <- 200 reverse row. Pnode 200's rows survive (even its forward edge
  // into the range), so its bucket must not move.
  EXPECT_EQ(db.range_mutation_count(200), far);
  // Deleting an already-empty range is not a mutation anywhere.
  uint64_t settled = db.range_mutation_count(10);
  EXPECT_EQ(db.DeleteRange(10, 64), 0u);
  EXPECT_EQ(db.range_mutation_count(10), settled);
}

}  // namespace
}  // namespace pass::waldo
