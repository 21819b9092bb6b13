// Tests for Waldo: the store size model, the provenance database, and the
// log-draining daemon.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/core/object.h"
#include "src/fs/memfs.h"
#include "src/lasagna/lasagna.h"
#include "src/sim/env.h"
#include "src/util/md5.h"
#include "src/util/rng.h"
#include "src/waldo/kvstore.h"
#include "src/waldo/provdb.h"
#include "src/waldo/waldo.h"

namespace pass::waldo {
namespace {

// ---- Store sizes -------------------------------------------------------------
// Every expected size below is what the segment store this model replaced
// occupied after the same operations.

// A KvStoreSize beside the values its keys hold: Delete passes the model
// the count and bytes it asks for, and the survivors can fill a fresh
// model.
class SizedStore {
 public:
  void Put(const std::string& key, const std::string& value) {
    size_.Put(key.size(), value.size());
    values_[key].push_back(value);
  }
  // Returns whether the delete compacted the log (nothing else shrinks it).
  bool Delete(const std::string& key) {
    uint64_t before = size_.bytes();
    uint64_t count = 0;
    uint64_t bytes = 0;
    if (auto it = values_.find(key); it != values_.end()) {
      for (const std::string& value : it->second) {
        ++count;
        bytes += value.size();
      }
      values_.erase(it);
    }
    size_.Delete(key.size(), count, bytes);
    return size_.bytes() < before;
  }
  uint64_t bytes() const { return size_.bytes(); }
  // The bytes of a fresh model holding only the live values.
  uint64_t SurvivorBytes() const {
    KvStoreSize fresh;
    for (const auto& [key, values] : values_) {
      for (const std::string& value : values) {
        fresh.Put(key.size(), value.size());
      }
    }
    return fresh.bytes();
  }

 private:
  KvStoreSize size_;
  std::map<std::string, std::vector<std::string>> values_;
};

TEST(KvStoreSizeTest, PutsAndTombstonesAreWholeFrames) {
  KvStoreSize store;
  store.Put(1, 2);  // "k" -> "v1": 1 + 2 + 17
  EXPECT_EQ(store.bytes(), 20u);
  store.Put(1, 2);  // "k" -> "v2"
  EXPECT_EQ(store.bytes(), 40u);
  store.Put(3, 0);  // "key" -> ""
  EXPECT_EQ(store.bytes(), 60u);
  store.Delete(1, 2, 4);  // "k": a 1 + 17 tombstone, 24 dead of 78
  EXPECT_EQ(store.bytes(), 78u);
}

TEST(KvStoreSizeTest, DeletingAKeyWithoutValuesWritesNothing) {
  KvStoreSize store;
  store.Put(1, 1);  // "a" -> "1"
  EXPECT_EQ(store.bytes(), 19u);
  store.Delete(1, 0, 0);  // "b", never put
  EXPECT_EQ(store.bytes(), 19u);
  store.Delete(1, 1, 1);  // "a"
  EXPECT_EQ(store.bytes(), 37u);
  store.Delete(1, 0, 0);  // "a" again
  EXPECT_EQ(store.bytes(), 37u);
}

TEST(KvStoreSizeTest, CompactionFiresUnderDeleteChurn) {
  // Without compaction the log would keep every dead frame and tombstone:
  // 5,460 bytes a round.
  SizedStore store;
  std::vector<uint64_t> rounds;
  int compactions = 0;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 50; ++i) {
      store.Put("churn" + std::to_string(i),
                std::string(64, static_cast<char>('a' + round)));
    }
    for (int i = 0; i < 45; ++i) {
      compactions += store.Delete("churn" + std::to_string(i));
    }
    rounds.push_back(store.bytes());
  }
  EXPECT_EQ(rounds, (std::vector<uint64_t>{440, 1888, 2328, 2432, 2312, 7772,
                                           4088, 9548, 4520, 9980}));
  EXPECT_EQ(compactions, 8);
}

TEST(KvStoreSizeTest, CompactedLogEqualsAFreshLogOfTheSurvivors) {
  // Keys of several values, of many sizes; some keys outlive a round.
  SizedStore store;
  std::vector<uint64_t> rounds;
  int compactions = 0;
  for (int round = 0; round < 6; ++round) {
    for (int i = 9; i >= 0; --i) {
      store.Put("k" + std::to_string((i * 7 + round) % 10),
                std::string(8 * (1 + i) + round, 'v'));
    }
    for (int i = round % 3; i < 10; i += 2) {
      if (store.Delete("k" + std::to_string(i))) {
        ++compactions;
        EXPECT_EQ(store.bytes(), store.SurvivorBytes())
            << "round " << round << ", k" << i;
      }
    }
    rounds.push_back(store.bytes());
  }
  EXPECT_EQ(rounds,
            (std::vector<uint64_t>{725, 340, 1066, 1821, 773, 487}));
  EXPECT_EQ(compactions, 3);
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
  auto types = db.AttributeValuesMany({1, 2, 99}, "type");
  ASSERT_EQ(types.size(), 3u);
  EXPECT_TRUE(types[0].empty());
  ASSERT_EQ(types[1].size(), 1u);
  EXPECT_EQ(*types[1][0], db.RecordsOf({2, 0})[0].value);
  EXPECT_TRUE(types[2].empty());
}

// AttributeValuesMany keeps exactly the rows whose attribute name equals
// the asked one ignoring case: a kind's query name, or an annotation's key.
// Rows come across versions, oldest first, in insertion order.
TEST(ProvDbTest, AttributeValuesKeepTheAskedRowsInOrder) {
  ProvDb db;
  db.Insert(Entry({1, 2}, core::Record::Name("/v2")));
  db.Insert(Entry({1, 0}, core::Record::Name("/v0")));
  db.Insert(Entry({1, 0}, core::Record::Annotation("Name", std::string("n"))));
  db.Insert(Entry({1, 0}, core::Record::Type("FILE")));
  db.Insert(Entry({1, 1}, core::Record::Annotation("TaInt", int64_t{1})));
  db.Insert(Entry({1, 1}, core::Record::Of(core::Attr::kPid, int64_t{7})));
  db.Insert(Entry({1, 1}, core::Record::Of(core::Attr::kBeginTxn,
                                           int64_t{3})));
  db.Insert(Entry({1, 1}, core::Record::Of(static_cast<core::Attr>(99),
                                           int64_t{5})));
  db.Insert(Entry({2, 0}, core::Record::Input({1, 0})));  // no attribute rows

  auto strings = [](const std::vector<const core::Value*>& values) {
    std::vector<std::string> out;
    for (const core::Value* value : values) {
      out.push_back(core::ValueToString(*value));
    }
    return out;
  };
  std::vector<core::PnodeId> pnodes = {1, 2, 3};
  using Strings = std::vector<std::string>;
  for (const char* name : {"name", "NAME", "Name"}) {
    auto values = db.AttributeValuesMany(pnodes, name);
    ASSERT_EQ(values.size(), 3u);
    EXPECT_EQ(strings(values[0]), (Strings{"/v0", "n", "/v2"})) << name;
    EXPECT_TRUE(values[1].empty());
    EXPECT_TRUE(values[2].empty());
  }
  EXPECT_EQ(strings(db.AttributeValuesMany(pnodes, "taint")[0]),
            Strings{"1"});
  EXPECT_EQ(strings(db.AttributeValuesMany(pnodes, "TAINT")[0]),
            Strings{"1"});
  EXPECT_EQ(strings(db.AttributeValuesMany(pnodes, "Pid")[0]), Strings{"7"});
  EXPECT_EQ(strings(db.AttributeValuesMany(pnodes, "begintxn")[0]),
            Strings{"3"});
  EXPECT_EQ(strings(db.AttributeValuesMany(pnodes, "unknown")[0]),
            Strings{"5"});
  EXPECT_EQ(strings(db.AttributeValuesMany(pnodes, "type")[0]),
            Strings{"FILE"});
  // Edges are no attribute rows, and an annotation does not answer to its
  // kind's own name.
  EXPECT_TRUE(db.AttributeValuesMany(pnodes, "input")[1].empty());
  EXPECT_TRUE(db.AttributeValuesMany(pnodes, "annotation")[0].empty());
  EXPECT_TRUE(db.AttributeValuesMany(pnodes, "nam")[0].empty());
}

// The root-set reads equal the per-pnode lookups they replace: members
// both adjacent and far apart, several versions, ancestor-only nodes.
TEST(ProvDbTest, LatestMembersMatchPerPnodeLookups) {
  ProvDb db;
  for (core::PnodeId pnode = 1; pnode <= 120; ++pnode) {
    bool file = pnode % 11 == 0 || pnode % 11 == 1 || pnode > 100;
    core::ObjectRef ref{pnode, static_cast<core::Version>(pnode % 3)};
    db.Insert(Entry(ref, core::Record::Type(file ? "FILE" : "PROC")));
    db.Insert(Entry(ref, core::Record::Input({pnode + 500, 0})));
  }
  std::vector<core::ObjectRef> files;
  for (core::PnodeId pnode : db.PnodesByType("FILE")) {
    files.push_back({pnode, db.LatestVersionOf(pnode)});
  }
  std::vector<core::ObjectRef> all;
  for (core::PnodeId pnode : db.AllPnodes()) {
    all.push_back({pnode, db.LatestVersionOf(pnode)});
  }
  ASSERT_EQ(files.size(), 39u);
  ASSERT_EQ(all.size(), 240u);
  EXPECT_EQ(db.LatestOfType("FILE"), files);
  EXPECT_EQ(db.LatestOfAll(), all);
  EXPECT_TRUE(db.LatestOfType("PIPE").empty());
}

TEST(ProvDbTest, StatsTrackStores) {
  ProvDb db;
  db.Insert(Entry({1, 0}, core::Record::Name("/out")));
  db.Insert(Entry({1, 0}, core::Record::Input({2, 0})));
  auto stats = db.stats();
  EXPECT_EQ(stats.records, 1u);
  EXPECT_EQ(stats.edges, 1u);
  // r/ key 27 + encoded NAME 15 + 17; n//out 6 + 12 + 17, then the edge's
  // i/ and o/ frames, 27 + 12 + 17 each.
  EXPECT_EQ(stats.db_bytes, 59u);
  EXPECT_EQ(stats.index_bytes, 147u);
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

TEST(ProvDbTest, DeleteRangeCompactsTheRecordsStore) {
  // 100 chained files; deleting 90 of them sends the records store through
  // compaction, so it holds the survivors' frames plus the tombstones
  // written after the last compaction. The index store does not compact:
  // it grows by its tombstones and by FILE's type key, rewritten for the 10
  // survivors.
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
  EXPECT_EQ(db.stats().index_bytes, 18080u);
  db.DeleteRange(1, 91);
  EXPECT_EQ(db.stats().db_bytes, 3773u);
  EXPECT_EQ(db.stats().index_bytes, 28390u);
  EXPECT_EQ(db.Inputs({95, 0}), (std::vector<core::ObjectRef>{{94, 0}}));
  EXPECT_EQ(db.PnodesByType("FILE").size(), 10u);
  EXPECT_EQ(db.RecordCount(), 20u);
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

// A name with an embedded NUL keeps its whole 6-byte index key through
// DeleteRange: the rewrite tombstones the key WriteAttr wrote, which
// compacts the index store down to the survivor's one frame. (A key cut at
// the NUL would tombstone nothing and add a second key: 103 bytes.)
TEST(ProvDbTest, DeleteRangeRewritesNamesWithEmbeddedNul) {
  const std::string name("/a\0b", 4);
  ProvDb db;
  db.Insert(Entry({5, 0}, core::Record::Name(name)));
  db.Insert(Entry({80, 0}, core::Record::Name(name)));
  EXPECT_EQ(db.stats().index_bytes, 70u);  // 2 x (6 + 12 + 17)
  db.DeleteRange(0, 10);
  EXPECT_EQ(db.stats().index_bytes, 35u);
  EXPECT_EQ(db.PnodesByName(name), std::vector<core::PnodeId>{80});
}

// ---- Node table --------------------------------------------------------------

// One pnode's versions chained newest first: each edge names a version older
// than every one the node holds, so each insert lands at the front of the
// node's version list while the edge's rows are being written (the ASan
// build reads freed rows if a reference outlives the insert).
TEST(ProvDbTest, SamePnodeChainInsertedNewestFirst) {
  ProvDb db;
  for (core::Version k = 20; k >= 1; --k) {
    db.Insert(Entry({7, k}, core::Record::Input({7, k - 1})));
    db.Insert(Entry({7, k}, core::Record::Type("FILE")));
  }
  for (core::Version k = 20; k >= 1; --k) {
    EXPECT_FALSE(
        db.InsertUnique(Entry({7, k}, core::Record::Input({7, k - 1}))));
  }
  std::vector<core::Version> all;
  for (core::Version k = 0; k <= 20; ++k) {
    all.push_back(k);
    std::vector<core::ObjectRef> inputs;
    if (k > 0) {
      inputs.push_back({7, k - 1});
    }
    std::vector<core::ObjectRef> outputs;
    if (k < 20) {
      outputs.push_back({7, k + 1});
    }
    EXPECT_EQ(db.Inputs({7, k}), inputs) << k;
    EXPECT_EQ(db.Outputs({7, k}), outputs) << k;
    EXPECT_EQ(db.RecordsOf({7, k}).size(), k > 0 ? 1u : 0u) << k;
  }
  EXPECT_EQ(db.VersionsOf(7), all);
  EXPECT_EQ(db.LatestVersionOf(7), 20u);
  EXPECT_EQ(db.RecordCount(), 20u);
  EXPECT_EQ(db.EdgeCount(), 20u);
  EXPECT_EQ(db.RecordsOfAllVersions(7).size(), 20u);
  // Each edge wrote two rows and each TYPE one, all keyed by pnode 7.
  EXPECT_EQ(db.stamp(), 60u);
  EXPECT_EQ(db.StampOf(7), 60u);
  EXPECT_EQ(db.AllPnodes(), std::vector<core::PnodeId>{7});
}

// A node exists for every pnode a row names. A version an INPUT without a
// ref made known keys no row here: it reads as known, unstamped, unnamed
// and weightless. A range-deleted ancestor stays forgotten while a
// surviving forward row still names it.
TEST(ProvDbTest, PnodesKnownWithoutRowsKeepVersionsOnly) {
  ProvDb db;
  db.Insert(Entry({10, 0}, core::Record::Name("/a")));
  db.Insert(Entry({10, 0}, core::Record::Input({77, 3})));
  // The range takes 77's reverse row; 10's forward row into it stays.
  ASSERT_EQ(db.DeleteRange(77, 78), 1u);
  db.Insert(Entry({30, 2}, core::Record::Of(core::Attr::kInput, {})));
  EXPECT_EQ(db.AllPnodes(), (std::vector<core::PnodeId>{10, 30}));
  EXPECT_EQ(db.stats().objects, 2u);
  EXPECT_EQ(db.Inputs({10, 0}), (std::vector<core::ObjectRef>{{77, 3}}));
  EXPECT_TRUE(db.VersionsOf(77).empty());
  EXPECT_EQ(db.VersionsOf(30), std::vector<core::Version>{2});
  EXPECT_EQ(db.LatestVersionOf(77), 0u);
  EXPECT_EQ(db.LatestVersionOf(30), 2u);
  EXPECT_EQ(db.StampOf(77), 0u);
  EXPECT_EQ(db.StampOf(30), 0u);
  EXPECT_GT(db.StampOf(10), 0u);
  EXPECT_EQ(db.NameOf(77), "");
  EXPECT_EQ(db.NameOf(30), "");
  EXPECT_TRUE(db.RecordsOfAllVersions(77).empty());
  EXPECT_TRUE(db.Outputs({77, 3}).empty());
  using Weights = std::vector<std::pair<core::PnodeId, uint64_t>>;
  EXPECT_EQ(db.PnodeRowsInRange(0, 100), (Weights{{10, 2}, {30, 0}}));
  EXPECT_EQ(db.RowsInRange(0, 100), 2u);
  // Three rows and the removal moved the sequence; making a version known
  // moves nothing.
  EXPECT_EQ(db.stamp(), 4u);
}

TEST(ProvDbTest, DeleteRangeThenReinsertUnderANewName) {
  ProvDb db;
  db.Insert(Entry({10, 0}, core::Record::Name("/old")));
  db.Insert(Entry({10, 1}, core::Record::Input({10, 0})));
  db.Insert(Entry({10, 1}, core::Record::Name("/renamed")));
  EXPECT_EQ(db.NameOf(10), "/renamed");  // the latest NAME row written
  ASSERT_EQ(db.DeleteRange(10, 11), 4u);
  db.Insert(Entry({10, 5}, core::Record::Name("/new")));
  EXPECT_EQ(db.NameOf(10), "/new");
  EXPECT_EQ(db.VersionsOf(10), std::vector<core::Version>{5});
  EXPECT_EQ(db.RecordsOfAllVersions(10),
            std::vector<core::Record>{core::Record::Name("/new")});
  EXPECT_TRUE(db.RecordsOf({10, 0}).empty());
  EXPECT_TRUE(db.Inputs({10, 1}).empty());
  EXPECT_TRUE(db.Outputs({10, 0}).empty());
  EXPECT_TRUE(db.PnodesByName("/old").empty());
  EXPECT_TRUE(db.PnodesByName("/renamed").empty());
  EXPECT_EQ(db.PnodesByName("/new"), std::vector<core::PnodeId>{10});
  EXPECT_EQ(db.RecordCount(), 1u);
  EXPECT_EQ(db.EdgeCount(), 0u);
}

// Pins every size and number the write path leaves behind. A seeded mix
// drives Insert, InsertUnique (earlier entries offered again included),
// InsertCopy, same-pnode edges and DeleteRange churn, and at least one
// DeleteRange must shrink the index store, so compaction fired. The store
// sizes cover the frame sizes, tombstone order and compaction points, and
// the digest the export of the whole pnode space (its order): migration,
// audit fingerprints and Table 3 read these, so a rewrite of the node
// table or the size model must leave every value below as it is.
TEST(ProvDbTest, StoreSizesAndRangeExportArePinned) {
  Rng rng(2026);
  ProvDb db;
  std::vector<lasagna::LogEntry> offered;
  bool index_shrank = false;
  auto any_ref = [&] {
    return core::ObjectRef{1 + rng.NextBelow(300),
                           static_cast<core::Version>(rng.NextBelow(4))};
  };
  for (int step = 1; step <= 6000; ++step) {
    lasagna::LogEntry entry{any_ref(), {}};
    switch (rng.NextBelow(6)) {
      case 0:
        entry.record =
            core::Record::Name("/f" + std::to_string(rng.NextBelow(200)));
        break;
      case 1:
        entry.record = core::Record::Type(rng.NextBool() ? "FILE" : "PROC");
        break;
      case 2:
        entry.record = core::Record::Annotation("step", int64_t{step});
        break;
      case 3:
        entry.record = core::Record::Input(any_ref());
        break;
      case 4:  // a same-pnode edge: the next version lists this one
        entry.record = core::Record::Input(entry.subject);
        ++entry.subject.version;
        break;
      default:  // an INPUT without a ref: the version is only made known
        entry.record = core::Record::Of(core::Attr::kInput, {});
        break;
    }
    uint64_t mode = rng.NextBelow(10);
    if (mode < 3) {
      db.Insert(entry);
    } else if (mode < 6) {
      db.InsertUnique(entry);
    } else if (mode < 8) {
      db.InsertCopy(entry);
    } else {
      db.InsertUnique(offered[rng.NextBelow(offered.size())]);
    }
    offered.push_back(entry);
    if (step % 400 == 0) {
      uint64_t before = db.stats().index_bytes;
      core::PnodeId begin = 1 + rng.NextBelow(300);
      db.DeleteRange(begin, begin + 40 + rng.NextBelow(120));
      index_shrank = index_shrank || db.stats().index_bytes < before;
    }
  }
  EXPECT_TRUE(index_shrank);

  std::string payloads;
  for (const lasagna::LogEntry& entry :
       db.EntriesInRange(0, ~core::PnodeId{0})) {
    lasagna::EncodeLogEntryPayload(&payloads, entry);
  }
  EXPECT_EQ(Md5::HexHash(payloads), "a185cc7aa63cda71dded98efc88fce6d");
  EXPECT_EQ(db.stamp(), 6226u);
  // Every pnode's stamp, which also pins that an edge stamps its subject
  // before its ancestor.
  std::string stamps;
  for (core::PnodeId pnode : db.AllPnodes()) {
    stamps += std::to_string(pnode) + ":" + std::to_string(db.StampOf(pnode)) +
              ",";
  }
  EXPECT_EQ(Md5::HexHash(stamps), "a7c49771b28b357120a659bd14168afe");
  ProvDbStats stats = db.stats();
  EXPECT_EQ(stats.records, 597u);
  EXPECT_EQ(stats.edges, 380u);
  EXPECT_EQ(stats.objects, 212u);
  EXPECT_EQ(stats.db_bytes, 230246u);
  EXPECT_EQ(stats.index_bytes, 247674u);
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

TEST_F(WaldoTest, MalformedTxnMarkersDiscardTheirTransactions) {
  // Every frame is CRC-valid (a rewriter recomputes the CRC), but the
  // first BEGINTXN carries a string and the ENDTXN after it an integer.
  // Both are malformed: their records are orphans, and the well-formed
  // transaction that follows still commits.
  auto root = volume_.root();
  auto file = *root->Create("f", os::VnodeType::kFile);
  ASSERT_TRUE(file->Write(0, "y").ok());
  ASSERT_TRUE(volume_.ForceRotate().ok());
  std::vector<std::string> closed = volume_.ClosedLogPaths();
  ASSERT_EQ(closed.size(), 1u);
  std::string log;
  lasagna::EncodeLogEntry(
      &log, {{1, 0}, core::Record::Of(core::Attr::kBeginTxn,
                                      std::string("not an id"))});
  lasagna::EncodeLogEntry(&log, {{1, 0}, core::Record::Name("/never")});
  lasagna::EncodeLogEntry(
      &log, {{1, 0}, core::Record::Of(core::Attr::kEndTxn, int64_t{7})});
  lasagna::TxnDescriptor descriptor;
  descriptor.txn_id = 8;
  std::string blob = lasagna::EncodeTxnDescriptor(descriptor);
  lasagna::EncodeLogEntry(
      &log, {{2, 0}, core::Record::Of(core::Attr::kBeginTxn, int64_t{8})});
  lasagna::EncodeLogEntry(&log, {{2, 0}, core::Record::Name("/kept")});
  lasagna::EncodeLogEntry(
      &log, {{2, 0}, core::Record::Of(core::Attr::kEndTxn, blob)});
  ASSERT_TRUE(lower_.WriteFileRaw(closed[0], log).ok());

  ASSERT_TRUE(waldo_.Poll().ok());
  EXPECT_EQ(waldo_.stats().logs_processed, 1u);
  EXPECT_EQ(waldo_.stats().orphans_discarded, 2u);
  EXPECT_EQ(waldo_.stats().entries_ingested, 1u);
  EXPECT_TRUE(db_.PnodesByName("/never").empty());
  EXPECT_EQ(db_.PnodesByName("/kept").size(), 1u);
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

// Per-pnode change stamps: every row written takes the next number of one
// database-wide sequence, and the pnode keying the row keeps it. The
// federated cache's per-entry revalidation depends on the stamps of pnodes
// no change keyed staying put, and on no number ever standing for two
// different row sets of one pnode.
TEST(ProvDbTest, StampsMoveOnlyForTheKeyingPnode) {
  ProvDb db;
  EXPECT_EQ(db.StampOf(10), 0u);
  EXPECT_EQ(db.stamp(), 0u);
  db.Insert(Entry({10, 0}, core::Record::Name("/a")));
  uint64_t named = db.StampOf(10);
  EXPECT_GT(named, 0u);
  // Neighbours keep no row here, whatever their distance.
  EXPECT_EQ(db.StampOf(11), 0u);
  EXPECT_EQ(db.StampOf(63), 0u);
  // An edge moves both endpoints: the forward row is keyed by the subject,
  // the reverse-index row by the ancestor.
  db.Insert(Entry({70, 0}, core::Record::Input({10, 0})));
  EXPECT_GT(db.StampOf(70), named);
  EXPECT_GT(db.StampOf(10), named);
  EXPECT_NE(db.StampOf(70), db.StampOf(10));
  EXPECT_EQ(db.StampOf(11), 0u);
  EXPECT_EQ(db.stamp(), 3u);  // one number per row written
}

TEST(ProvDbTest, StampIgnoresDuplicateInsertUnique) {
  ProvDb db;
  EXPECT_TRUE(db.InsertUnique(Entry({10, 0}, core::Record::Name("/a"))));
  uint64_t after_first = db.StampOf(10);
  EXPECT_GT(after_first, 0u);
  uint64_t end = db.stamp();
  // A replayed row is not a change: redelivered ingest batches must not
  // shake warm cache entries loose.
  EXPECT_FALSE(db.InsertUnique(Entry({10, 0}, core::Record::Name("/a"))));
  EXPECT_EQ(db.StampOf(10), after_first);
  EXPECT_EQ(db.stamp(), end);
  EXPECT_TRUE(db.InsertUnique(Entry({10, 0}, core::Record::Name("/b"))));
  EXPECT_GT(db.StampOf(10), after_first);
}

TEST(ProvDbTest, DeleteRangeForgetsOnlyTheRemovedStamps) {
  ProvDb db;
  db.Insert(Entry({10, 0}, core::Record::Name("/a")));
  db.Insert(Entry({11, 0}, core::Record::Input({10, 0})));
  db.Insert(Entry({200, 0}, core::Record::Name("/far")));
  db.Insert(Entry({200, 0}, core::Record::Input({11, 0})));
  uint64_t far = db.StampOf(200);
  uint64_t end = db.stamp();
  EXPECT_GT(db.DeleteRange(10, 64), 0u);
  // Every deleted row was keyed in [10, 64), the 11 <- 200 reverse row
  // included: those pnodes key no row here any more, and the sequence moved
  // once.
  EXPECT_EQ(db.StampOf(10), 0u);
  EXPECT_EQ(db.StampOf(11), 0u);
  EXPECT_EQ(db.stamp(), end + 1);
  // Pnode 200's rows survive (even its forward edge into the range), so its
  // stamp must not move.
  EXPECT_EQ(db.StampOf(200), far);
  // Deleting an already-empty range is not a change anywhere.
  EXPECT_EQ(db.DeleteRange(10, 64), 0u);
  EXPECT_EQ(db.stamp(), end + 1);
}

TEST(ProvDbTest, InsertCopyMovesTheStampButFeedsNothing) {
  ProvDb db;
  db.Insert(Entry({10, 0}, core::Record::Name("/a")));
  uint64_t stamp = db.StampOf(10);
  uint64_t fed = db.feed_end();
  // A migration copy changes the rows a cached entry read, so it must move
  // the stamp, although it adds nothing to the feed.
  EXPECT_TRUE(db.InsertCopy(Entry({10, 0}, core::Record::Type("FILE"))));
  EXPECT_GT(db.StampOf(10), stamp);
  EXPECT_EQ(db.feed_end(), fed);
  // A copy that inserts nothing moves nothing.
  uint64_t end = db.stamp();
  EXPECT_FALSE(db.InsertCopy(Entry({10, 0}, core::Record::Type("FILE"))));
  EXPECT_EQ(db.stamp(), end);
}

// Per-pnode counters would restart after DeleteRange, so pnode 10 would read
// the same stamp for /a and for /b, and an entry cached at /a's stamp would
// be served for /b. One database-wide sequence never repeats a number.
TEST(ProvDbTest, StampNeverRepeatsAcrossDeleteRange) {
  ProvDb db;
  db.Insert(Entry({10, 0}, core::Record::Name("/a")));
  uint64_t filled_at = db.StampOf(10);
  ASSERT_GT(db.DeleteRange(10, 11), 0u);
  EXPECT_EQ(db.StampOf(10), 0u);
  db.Insert(Entry({10, 0}, core::Record::Name("/b")));
  EXPECT_GT(db.StampOf(10), 0u);
  EXPECT_NE(db.StampOf(10), filled_at);
}

}  // namespace
}  // namespace pass::waldo
