// Tests for Lasagna (§5.6): log format, transactions, WAP ordering,
// rotation, pass_mkobj/reviveobj, and crash recovery over every prefix of
// the disk mutation trace.

#include <gtest/gtest.h>

#include "src/core/object.h"
#include "src/fs/memfs.h"
#include "src/lasagna/lasagna.h"
#include "src/lasagna/log_format.h"
#include "src/lasagna/recovery.h"
#include "src/sim/env.h"

namespace pass::lasagna {
namespace {

core::Bundle OneRecordBundle(core::ObjectRef subject, core::Record record) {
  return core::Bundle{core::BundleEntry{subject, {std::move(record)}}};
}

TEST(LogFormatTest, EntryRoundTrip) {
  LogEntry entry{core::ObjectRef{7, 2}, core::Record::Name("/data/out")};
  std::string buf;
  EncodeLogEntry(&buf, entry);
  LogReader reader(buf);
  auto first = reader.Next();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());
  EXPECT_EQ((*first)->subject, entry.subject);
  EXPECT_EQ((*first)->record, entry.record);
  auto end = reader.Next();
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(end->has_value());
}

TEST(LogFormatTest, TruncatedTailDetected) {
  std::string buf;
  EncodeLogEntry(&buf, LogEntry{{1, 0}, core::Record::Name("/a")});
  EncodeLogEntry(&buf, LogEntry{{2, 0}, core::Record::Name("/b")});
  bool truncated = false;
  auto entries = ParseLog(std::string_view(buf).substr(0, buf.size() - 3),
                          &truncated);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 1u);
  EXPECT_TRUE(truncated);
}

TEST(LogFormatTest, CorruptCrcDetected) {
  std::string buf;
  EncodeLogEntry(&buf, LogEntry{{1, 0}, core::Record::Name("/a")});
  buf[10] ^= 0x40;
  bool truncated = false;
  auto entries = ParseLog(buf, &truncated);
  ASSERT_TRUE(entries.ok());
  EXPECT_TRUE(entries->empty());
  EXPECT_TRUE(truncated);
}

TEST(LogFormatTest, TxnDescriptorRoundTrip) {
  TxnDescriptor descriptor;
  descriptor.txn_id = 42;
  descriptor.data_md5 = Md5::Hash("payload");
  descriptor.path = "/out/result.dat";
  descriptor.offset = 4096;
  descriptor.length = 7;
  auto decoded = DecodeTxnDescriptor(EncodeTxnDescriptor(descriptor));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->txn_id, 42u);
  EXPECT_EQ(decoded->data_md5, descriptor.data_md5);
  EXPECT_EQ(decoded->path, "/out/result.dat");
  EXPECT_EQ(decoded->offset, 4096u);
  EXPECT_EQ(decoded->length, 7u);
}

class LasagnaTest : public ::testing::Test {
 protected:
  LasagnaTest()
      : env_(3),
        lower_(&env_, nullptr, {}, {}, {},
               fs::MemFsOptions{.charge_disk = false, .enable_trace = true}),
        allocator_(0),
        fs_(&env_, &lower_, &allocator_) {}

  os::VnodeRef CreateFile(const std::string& name) {
    auto root = fs_.root();
    auto vnode = root->Create(name, os::VnodeType::kFile);
    EXPECT_TRUE(vnode.ok());
    return *vnode;
  }

  sim::Env env_;
  fs::MemFs lower_;
  core::PnodeAllocator allocator_;
  LasagnaFs fs_;
};

TEST_F(LasagnaTest, FilesGetPnodesAtCreation) {
  auto a = CreateFile("a");
  auto b = CreateFile("b");
  EXPECT_NE(a->pnode(), core::kInvalidPnode);
  EXPECT_NE(b->pnode(), core::kInvalidPnode);
  EXPECT_NE(a->pnode(), b->pnode());
}

TEST_F(LasagnaTest, VnodeIdentityStableAcrossLookups) {
  CreateFile("a");
  auto root = fs_.root();
  auto first = root->Lookup("a");
  auto second = root->Lookup("a");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());
}

TEST_F(LasagnaTest, PassReadReturnsIdentity) {
  auto file = CreateFile("a");
  core::Bundle bundle;
  ASSERT_TRUE(file->PassWrite(0, "hello", bundle).ok());
  std::string out;
  auto info = file->PassRead(0, 5, &out);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(out, "hello");
  EXPECT_EQ(info->source.pnode, file->pnode());
  EXPECT_EQ(info->source.version, file->version());
}

TEST_F(LasagnaTest, PassFreezeBumpsVersion) {
  auto file = CreateFile("a");
  EXPECT_EQ(file->version(), 0u);
  EXPECT_EQ(*file->PassFreeze(), 1u);
  EXPECT_EQ(*file->PassFreeze(), 2u);
  EXPECT_EQ(file->version(), 2u);
}

TEST_F(LasagnaTest, WapLogPrecedesDataOnDisk) {
  // The WAP protocol: all provenance frames of the transaction must appear
  // in the lower-fs mutation trace before the data write.
  auto file = CreateFile("a");
  core::Bundle bundle = OneRecordBundle(
      core::ObjectRef{file->pnode(), 0},
      core::Record::Input(core::ObjectRef{999, 0}));
  ASSERT_TRUE(file->PassWrite(0, "DATA-BYTES", bundle).ok());

  int log_write = -1;
  int data_write = -1;
  const auto& trace = lower_.trace();
  for (size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].kind != fs::FsOp::Kind::kWrite) {
      continue;
    }
    if (trace[i].path.find("/.pass/") == 0 && log_write < 0) {
      log_write = static_cast<int>(i);
    }
    if (trace[i].path == "/a") {
      data_write = static_cast<int>(i);
    }
  }
  ASSERT_GE(log_write, 0);
  ASSERT_GE(data_write, 0);
  EXPECT_LT(log_write, data_write);
}

TEST_F(LasagnaTest, PlainWriteStillLogsEmptyTxn) {
  auto file = CreateFile("a");
  ASSERT_TRUE(file->Write(0, "unaware application").ok());
  EXPECT_EQ(fs_.lasagna_stats().txns, 1u);
  EXPECT_EQ(*lower_.ReadFileRaw("/a"), "unaware application");
}

TEST_F(LasagnaTest, LogRotationBySize) {
  LasagnaOptions options;
  options.log_rotate_bytes = 2048;
  LasagnaFs small(&env_, &lower_, &allocator_, options);
  auto root = small.root();
  auto file = *root->Create("f", os::VnodeType::kFile);
  for (int i = 0; i < 30; ++i) {
    core::Bundle bundle = OneRecordBundle(
        core::ObjectRef{file->pnode(), 0},
        core::Record::Name(std::string(100, 'n')));
    ASSERT_TRUE(file->PassWrite(0, "x", bundle).ok());
  }
  EXPECT_GT(small.lasagna_stats().rotations, 1u);
  EXPECT_FALSE(small.ClosedLogPaths().empty());
}

TEST_F(LasagnaTest, DormantLogRotates) {
  LasagnaOptions options;
  options.log_dormancy_ns = sim::kSecond;
  LasagnaFs fs(&env_, &lower_, &allocator_, options);
  auto root = fs.root();
  auto file = *root->Create("g", os::VnodeType::kFile);
  ASSERT_TRUE(file->Write(0, "x").ok());
  fs.MaybeRotateDormant();
  EXPECT_EQ(fs.lasagna_stats().rotations, 0u);  // not dormant yet
  env_.ChargeCpu(2 * sim::kSecond);
  fs.MaybeRotateDormant();
  EXPECT_EQ(fs.lasagna_stats().rotations, 1u);
}

TEST_F(LasagnaTest, LogHiddenFromNamespace) {
  CreateFile("visible");
  auto root = fs_.root();
  auto entries = root->Readdir();
  ASSERT_TRUE(entries.ok());
  for (const os::Dirent& entry : *entries) {
    EXPECT_NE(entry.name, ".pass");
  }
  EXPECT_FALSE(root->Lookup(".pass").ok());
}

TEST_F(LasagnaTest, MkobjReviveRoundTrip) {
  auto object = fs_.PassMkobj();
  ASSERT_TRUE(object.ok());
  core::PnodeId pnode = (*object)->pnode();
  EXPECT_EQ((*object)->type(), os::VnodeType::kPhantom);
  ASSERT_TRUE((*object)->PassFreeze().ok());

  auto revived = fs_.PassReviveobj(pnode, 1);
  ASSERT_TRUE(revived.ok());
  EXPECT_EQ((*revived)->pnode(), pnode);

  EXPECT_FALSE(fs_.PassReviveobj(987654, 0).ok());
  EXPECT_FALSE(fs_.PassReviveobj(pnode, 99).ok());
}

TEST_F(LasagnaTest, PhantomRejectsData) {
  auto object = fs_.PassMkobj();
  ASSERT_TRUE(object.ok());
  core::Bundle bundle;
  EXPECT_FALSE((*object)->PassWrite(0, "data!", bundle).ok());
  EXPECT_TRUE((*object)->PassWrite(0, "", bundle).ok());
}

TEST_F(LasagnaTest, StatsExcludeLogFromData) {
  auto file = CreateFile("a");
  ASSERT_TRUE(file->Write(0, std::string(1000, 'x')).ok());
  os::FsStats stats = fs_.stats();
  EXPECT_EQ(stats.bytes_data, 1000u);
  EXPECT_GT(lower_.BytesUnder("/.pass"), 0u);
}

// ---- Crash recovery ---------------------------------------------------------

TEST_F(LasagnaTest, CleanRecoveryFindsEverythingConsistent) {
  auto file = CreateFile("a");
  for (int i = 0; i < 5; ++i) {
    core::Bundle bundle = OneRecordBundle(
        core::ObjectRef{file->pnode(), 0},
        core::Record::Input(core::ObjectRef{100u + i, 0}));
    ASSERT_TRUE(
        file->PassWrite(i * 10, std::string(10, 'a' + i), bundle).ok());
  }
  auto report = RunRecovery(&lower_);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->orphaned_txns, 0u);
  EXPECT_EQ(report->inconsistent_extents, 0u);
  EXPECT_GT(report->complete_txns, 0u);
  EXPECT_GT(report->recovered_entries.size(), 0u);
}

TEST_F(LasagnaTest, CrashSweepNeverLeavesUndetectedInconsistency) {
  // Run a write workload, then simulate a power failure after every prefix
  // of the disk's mutation trace and run recovery. Invariants:
  //   (1) recovery never errors,
  //   (2) any file whose on-disk extent differs from what its latest logged
  //       transaction promised is flagged inconsistent,
  //   (3) a consistent verdict implies the bytes really match.
  auto file_a = CreateFile("a");
  auto file_b = CreateFile("b");
  for (int round = 0; round < 4; ++round) {
    core::Bundle bundle_a = OneRecordBundle(
        core::ObjectRef{file_a->pnode(), 0},
        core::Record::Name("round" + std::to_string(round)));
    ASSERT_TRUE(file_a
                    ->PassWrite(round * 64,
                                std::string(64, 'A' + round), bundle_a)
                    .ok());
    core::Bundle bundle_b = OneRecordBundle(
        core::ObjectRef{file_b->pnode(), 0},
        core::Record::Input(core::ObjectRef{file_a->pnode(), 0}));
    ASSERT_TRUE(file_b
                    ->PassWrite(round * 32,
                                std::string(32, 'a' + round), bundle_b)
                    .ok());
  }

  const auto& trace = lower_.trace();
  for (size_t prefix = 0; prefix <= trace.size(); ++prefix) {
    fs::MemFs crashed(&env_, nullptr, {}, {}, {},
                      fs::MemFsOptions{.charge_disk = false});
    ASSERT_TRUE(lower_.ReplayInto(&crashed, prefix).ok());
    auto report = RunRecovery(&crashed);
    ASSERT_TRUE(report.ok()) << "prefix=" << prefix;

    // Re-verify every verdict by hand.
    for (const std::string& path : report->inconsistent_paths) {
      EXPECT_TRUE(path == "/a" || path == "/b") << path;
    }
    // Recovered entries must decode as sane records.
    for (const LogEntry& entry : report->recovered_entries) {
      EXPECT_NE(entry.subject.pnode, core::kInvalidPnode);
    }
  }
}

TEST_F(LasagnaTest, CrashBetweenLogAndDataIsFlagged) {
  auto file = CreateFile("a");
  ASSERT_TRUE(file->PassWrite(0, "stable", core::Bundle()).ok());
  size_t stable_prefix = lower_.trace().size();
  ASSERT_TRUE(file->PassWrite(0, "NEWDATA-THAT-DIES", core::Bundle()).ok());

  // Find the prefix that includes the second txn's log frames but not its
  // data write.
  const auto& trace = lower_.trace();
  size_t cut = stable_prefix;
  for (size_t i = stable_prefix; i < trace.size(); ++i) {
    if (trace[i].kind == fs::FsOp::Kind::kWrite &&
        trace[i].path.find("/.pass/") == 0) {
      cut = i + 1;
    }
  }
  fs::MemFs crashed(&env_, nullptr, {}, {}, {},
                    fs::MemFsOptions{.charge_disk = false});
  ASSERT_TRUE(lower_.ReplayInto(&crashed, cut).ok());
  auto report = RunRecovery(&crashed);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->inconsistent_extents, 1u);
  ASSERT_EQ(report->inconsistent_paths.size(), 1u);
  EXPECT_EQ(report->inconsistent_paths[0], "/a");
}

TEST_F(LasagnaTest, InconsistentPathReportedOnceAcrossFailingExtents) {
  // Two complete data transactions for the same path at disjoint extents,
  // neither of whose data ever reached the disk (a crafted worst-case log):
  // both extents are verified and fail, but the path is reported once.
  std::string log;
  core::ObjectRef subject{5, 0};
  auto append_txn = [&](uint64_t txn_id, uint64_t offset) {
    EncodeLogEntry(&log, LogEntry{subject, core::Record::Of(
                                               core::Attr::kBeginTxn,
                                               static_cast<int64_t>(txn_id))});
    EncodeLogEntry(&log, LogEntry{subject, core::Record::Name("/f")});
    TxnDescriptor descriptor;
    descriptor.txn_id = txn_id;
    descriptor.data_md5 = Md5::Hash("lost");
    descriptor.path = "/f";
    descriptor.offset = offset;
    descriptor.length = 4;
    EncodeLogEntry(&log, LogEntry{subject, core::Record::Of(
                                               core::Attr::kEndTxn,
                                               EncodeTxnDescriptor(descriptor))});
  };
  append_txn(1, 0);
  append_txn(2, 100);  // disjoint from [0, 4): stays independently verifiable
  ASSERT_TRUE(lower_.SeedFile("/.pass/log.0", log).ok());

  auto report = RunRecovery(&lower_);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->complete_txns, 2u);
  EXPECT_EQ(report->inconsistent_extents, 2u);
  ASSERT_EQ(report->inconsistent_paths.size(), 1u);
  EXPECT_EQ(report->inconsistent_paths[0], "/f");
  // Neither failing transaction's provenance is recovered.
  EXPECT_TRUE(report->recovered_entries.empty());
}

TEST_F(LasagnaTest, DisjointExtentsOfOnePathVerifyIndependently) {
  // Two writes to different regions of one file: under ordered writes both
  // data extents are durable, and recovery now verifies each on its own
  // instead of assuming the earlier one consistent.
  auto file = CreateFile("a");
  ASSERT_TRUE(file->PassWrite(0, "headhead", core::Bundle()).ok());
  ASSERT_TRUE(file->PassWrite(8, "tailtail", core::Bundle()).ok());
  auto report = RunRecovery(&lower_);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->consistent_extents, 2u);
  EXPECT_EQ(report->inconsistent_extents, 0u);
  EXPECT_TRUE(report->inconsistent_paths.empty());
}

// ---- Malformed logs ------------------------------------------------------------
// A frame carries only a CRC, which anyone who rewrites the log can
// recompute (the auditor's kFlipByteFixCrc tamper), so every frame below
// is CRC-valid and recovery sees exactly the values written.

// One hand-built transaction on pnode 5: BEGINTXN carrying `begin`, a NAME
// record, ENDTXN carrying `end`.
void AppendTxn(std::string* log, core::Value begin, core::Value end) {
  core::ObjectRef subject{5, 0};
  EncodeLogEntry(log, LogEntry{subject, core::Record::Of(core::Attr::kBeginTxn,
                                                         std::move(begin))});
  EncodeLogEntry(log, LogEntry{subject, core::Record::Name("/f")});
  EncodeLogEntry(log, LogEntry{subject, core::Record::Of(core::Attr::kEndTxn,
                                                         std::move(end))});
}

std::string Descriptor(uint64_t txn_id, uint64_t offset, uint64_t length) {
  TxnDescriptor descriptor;
  descriptor.txn_id = txn_id;
  descriptor.data_md5 = Md5::Hash("lost");
  descriptor.path = "/f";
  descriptor.offset = offset;
  descriptor.length = length;
  return EncodeTxnDescriptor(descriptor);
}

TEST_F(LasagnaTest, RecoveryRejectsBeginTxnWithoutTxnId) {
  std::string log;
  AppendTxn(&log, std::string("not an id"), Descriptor(1, 0, 4));
  ASSERT_TRUE(lower_.SeedFile("/.pass/log.0", log).ok());
  auto report = RunRecovery(&lower_);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), Code::kCorrupt);
}

TEST_F(LasagnaTest, RecoveryRejectsEndTxnWithoutDescriptor) {
  std::string log;
  AppendTxn(&log, int64_t{1}, int64_t{1});
  ASSERT_TRUE(lower_.SeedFile("/.pass/log.0", log).ok());
  auto report = RunRecovery(&lower_);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), Code::kCorrupt);
}

TEST_F(LasagnaTest, WrappingExtentIsInconsistent) {
  // offset + length wraps to 4, inside the 10-byte file; the extent really
  // ends past it.
  std::string log;
  AppendTxn(&log, int64_t{1}, Descriptor(1, ~uint64_t{0} - 5, 10));
  ASSERT_TRUE(lower_.SeedFile("/.pass/log.0", log).ok());
  ASSERT_TRUE(lower_.SeedFile("/f", "0123456789").ok());
  auto report = RunRecovery(&lower_);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->complete_txns, 1u);
  EXPECT_EQ(report->inconsistent_extents, 1u);
  EXPECT_EQ(report->consistent_extents, 0u);
  ASSERT_EQ(report->inconsistent_paths.size(), 1u);
  EXPECT_EQ(report->inconsistent_paths[0], "/f");
}

TEST_F(LasagnaTest, WrappingExtentStillSupersedesWhatItCovers) {
  // The second extent, [2, 2 + (2^64 - 1)), covers the first, [5, 6), but
  // its end wraps to 1. It supersedes the first write, which counts as
  // consistent; it cannot be verified itself.
  std::string log;
  AppendTxn(&log, int64_t{1}, Descriptor(1, 5, 1));
  AppendTxn(&log, int64_t{2}, Descriptor(2, 2, ~uint64_t{0}));
  ASSERT_TRUE(lower_.SeedFile("/.pass/log.0", log).ok());
  ASSERT_TRUE(lower_.SeedFile("/f", "0123456789").ok());
  auto report = RunRecovery(&lower_);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->complete_txns, 2u);
  EXPECT_EQ(report->consistent_extents, 1u);
  EXPECT_EQ(report->inconsistent_extents, 1u);
  EXPECT_EQ(report->recovered_entries.size(), 1u);
}

}  // namespace
}  // namespace pass::lasagna
