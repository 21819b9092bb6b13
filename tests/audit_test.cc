// Tamper-evidence tests: the fig5-style *tampering* sweep. Where the crash
// sweep enumerates every crash site and expects recovery to repair each
// one, this sweep enumerates every byte-addressable mutation an adversary
// could apply to a sealed journal or log (TamperFs) and expects the auditor
// to name the exact site and class of each injection — with zero findings
// on clean images.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/cluster/auditor.h"
#include "src/cluster/cluster.h"
#include "src/cluster/tamper.h"

namespace pass::cluster {
namespace {

ClusterOptions SmallCluster(int shards) {
  ClusterOptions options;
  options.shards = shards;
  options.ingest_batch_records = 8;
  return options;
}

// Workload leaving rich durable state: cross-shard lineage (journal holds
// REPL_BATCH / REPL_APPLIED records), one migration (MIGRATE_* + the
// EPOCH_BUMP custody record), and an unsynced log on shard 0.
void BuildAuditedCluster(ClusterCoordinator* cluster) {
  auto a = cluster->WriteWithLineage(0, "/a", "alpha", {});
  ASSERT_TRUE(a.ok());
  auto b = cluster->WriteWithLineage(1, "/b", "beta", {*a});
  ASSERT_TRUE(b.ok());
  auto c = cluster->WriteWithLineage(0, "/c", "gamma", {*b});
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(cluster->Sync().ok());
  auto moved = cluster->MigrateRange({a->pnode, a->pnode + 1}, 1);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  // Fresh provenance left *unsynced*: its rotated log stays on disk for the
  // file sweep (Sync would consume and remove it).
  ASSERT_TRUE(cluster->WriteWithLineage(0, "/d", "delta", {*c}).ok());
  ASSERT_TRUE(cluster->machine(0).volume()->ForceRotate().ok());
}

TamperClass ExpectedClass(TamperKind kind) {
  switch (kind) {
    case TamperKind::kFlipByte:
    case TamperKind::kFlipByteFixCrc:
      return TamperClass::kRowEdit;
    case TamperKind::kDeleteFrame:
    case TamperKind::kTruncateAtFrame:
    case TamperKind::kTruncateMidFrame:
      return TamperClass::kTruncation;
    case TamperKind::kSwapFrames:
      return TamperClass::kReordering;
  }
  return TamperClass::kNone;
}

TEST(AuditTest, CleanClusterSealsAndAuditsClean) {
  ClusterCoordinator cluster(SmallCluster(2));
  BuildAuditedCluster(&cluster);
  Auditor auditor(&cluster, /*seed=*/7);
  AuditReport sealed = auditor.Seal();
  EXPECT_TRUE(sealed.clean()) << sealed.findings[0].detail;
  EXPECT_GT(sealed.files_verified, 0u);
  EXPECT_GT(sealed.frames_verified, 0u);

  AuditReport audit = auditor.AuditAll();
  EXPECT_TRUE(audit.clean()) << audit.findings[0].detail;
  EXPECT_EQ(audit.files_verified, sealed.files_verified);
  EXPECT_GT(audit.bytes_hashed, 0u);
  EXPECT_GT(audit.custody_records_verified, 0u);  // the migration's bump
  EXPECT_GT(audit.ranges_verified, 0u);
  EXPECT_GT(audit.audit_seconds, 0.0);  // verification is charged time

  AuditReport challenges = auditor.Challenge(20);
  EXPECT_TRUE(challenges.clean());
  EXPECT_EQ(challenges.challenges, 20u);
}

// The auditor charges MD5 verification at the rate the cluster's volumes
// were built with: at 4.0 ns/byte the same bytes cost twice the sim time
// they cost at 2.0 ns/byte. A 0.0 ns/byte cluster measures what the audit
// spends besides hashing, the same in all three.
TEST(AuditTest, HashingChargedAtTheVolumesMd5Rate) {
  struct Audited {
    uint64_t bytes_hashed = 0;
    sim::Nanos elapsed = 0;
  };
  auto audit_at = [](double ns_per_byte) {
    ClusterOptions options = SmallCluster(2);
    options.lasagna_options.md5_ns_per_byte = ns_per_byte;
    ClusterCoordinator cluster(options);
    BuildAuditedCluster(&cluster);
    Auditor auditor(&cluster, /*seed=*/7);
    EXPECT_TRUE(auditor.Seal().clean());
    sim::Nanos start = cluster.env().clock().now();
    AuditReport report = auditor.AuditAll();
    EXPECT_TRUE(report.clean());
    return Audited{report.bytes_hashed, cluster.env().clock().now() - start};
  };
  Audited free = audit_at(0.0);
  Audited base = audit_at(2.0);
  Audited doubled = audit_at(4.0);
  ASSERT_GT(base.bytes_hashed, 0u);
  EXPECT_EQ(free.bytes_hashed, base.bytes_hashed);
  EXPECT_EQ(doubled.bytes_hashed, base.bytes_hashed);
  sim::Nanos base_charge = base.elapsed - free.elapsed;
  EXPECT_EQ(base_charge,
            static_cast<sim::Nanos>(2 * base.bytes_hashed));
  EXPECT_EQ(doubled.elapsed - free.elapsed, 2 * base_charge);
}

TEST(AuditTest, EnumerationCoversEveryTamperKind) {
  ClusterCoordinator cluster(SmallCluster(2));
  BuildAuditedCluster(&cluster);
  TamperFs tamper(cluster.machine(0).volume()->lower());
  std::vector<TamperSite> sites =
      tamper.EnumerateSites(cluster.journal(0).path());
  ASSERT_GT(sites.size(), 6u);
  std::set<TamperKind> kinds;
  std::set<std::string> labels;
  for (const TamperSite& site : sites) {
    kinds.insert(site.kind);
    EXPECT_TRUE(labels.insert(site.description).second)
        << "duplicate site " << site.description;
  }
  EXPECT_EQ(kinds.size(), 6u);
}

// The tentpole acceptance sweep: inject every enumerated tampering into
// every sealed file, one at a time, and require the auditor to (a) detect
// it, (b) name the file, (c) name the first damaged frame, and (d) assign
// the right class — then come back clean once the image is restored.
TEST(AuditTest, TamperSweepNamesExactSiteAndClass) {
  ClusterCoordinator cluster(SmallCluster(2));
  BuildAuditedCluster(&cluster);
  Auditor auditor(&cluster, /*seed=*/7);
  ASSERT_TRUE(auditor.Seal().clean());
  // Files only: database + custody audits are exercised separately, and a
  // file injection must be pinned to its file, not echoed by other planes.
  AuditOptions files_only{.files = true, .db = false, .custody = false};

  std::vector<std::pair<int, std::string>> targets;
  for (int shard = 0; shard < cluster.shard_count(); ++shard) {
    fs::MemFs* lower = cluster.machine(shard).volume()->lower();
    if (lower->ExistsRaw(cluster.journal(shard).path())) {
      targets.push_back({shard, cluster.journal(shard).path()});
    }
    for (const auto& [path, chain] :
         cluster.machine(shard).volume()->log_chains()) {
      targets.push_back({shard, path});
    }
  }
  ASSERT_GT(targets.size(), 2u);  // journals + at least one live log

  size_t injections = 0;
  for (const auto& [shard, path] : targets) {
    TamperFs tamper(cluster.machine(shard).volume()->lower());
    auto snapshot = tamper.Snapshot(path);
    ASSERT_TRUE(snapshot.ok());
    for (const TamperSite& site : tamper.EnumerateSites(path)) {
      ASSERT_TRUE(tamper.Inject(path, site).ok()) << site.description;
      AuditReport report = auditor.AuditAll(files_only);
      ASSERT_FALSE(report.clean())
          << "undetected: " << site.description << " in " << path;
      const AuditFinding& finding = report.findings[0];
      EXPECT_EQ(finding.file, path) << site.description;
      EXPECT_EQ(finding.shard, shard) << site.description;
      EXPECT_EQ(TamperClassName(finding.klass),
                std::string(TamperClassName(ExpectedClass(site.kind))))
          << site.description << " in " << path << ": " << finding.detail;
      EXPECT_EQ(finding.frame, site.frame)
          << site.description << " in " << path << ": " << finding.detail;
      ASSERT_TRUE(tamper.Restore(path, *snapshot).ok());
      AuditReport clean = auditor.AuditAll(files_only);
      EXPECT_TRUE(clean.clean())
          << "restore after " << site.description << " left "
          << clean.findings[0].detail;
      ++injections;
    }
  }
  // The sweep must actually have swept: every kind, many sites.
  EXPECT_GT(injections, 50u);
}

// A database row edit is invisible to the file chains (the db is derived
// state) but caught by the sealed range fingerprints — and pinpointed to
// the pnode by a lineage challenge.
TEST(AuditTest, DatabaseRowEditCaughtByRangeAndLineageAudit) {
  ClusterCoordinator cluster(SmallCluster(2));
  BuildAuditedCluster(&cluster);
  Auditor auditor(&cluster, /*seed=*/7);
  ASSERT_TRUE(auditor.Seal().clean());

  auto c = cluster.RefOfPath(0, "/c");
  ASSERT_TRUE(c.ok());
  int owner = cluster.OwnerOf(c->pnode);
  // Forge a record on the owning shard: re-type the object in place.
  cluster.shard_db(owner).Insert(
      lasagna::LogEntry{*c, core::Record::Type("forged")});

  AuditReport report =
      auditor.AuditAll(AuditOptions{.files = false, .db = true,
                                    .custody = false});
  ASSERT_FALSE(report.clean());
  EXPECT_EQ(report.findings[0].klass, TamperClass::kRowEdit);
  EXPECT_EQ(report.findings[0].shard, owner);

  AuditReport lineage = auditor.ChallengeLineage(*c);
  ASSERT_FALSE(lineage.clean());
  EXPECT_NE(lineage.findings[0].detail.find(std::to_string(c->pnode)),
            std::string::npos)
      << lineage.findings[0].detail;
}

// The custody audit survives a checkpoint (a *legitimate* journal rewrite):
// EPOCH_BUMP payloads are re-emitted verbatim, so their sealed hashes still
// verify — and an attacker who edits the custody digest bytes afterwards,
// even fixing the CRC, is caught.
TEST(AuditTest, CustodyAuditSurvivesCheckpointAndCatchesDigestEdit) {
  ClusterCoordinator cluster(SmallCluster(2));
  BuildAuditedCluster(&cluster);
  Auditor auditor(&cluster, /*seed=*/7);
  ASSERT_TRUE(auditor.Seal().clean());

  // Recover() checkpoints every journal: file seals are stale now (their
  // images were legitimately rewritten), custody seals must not be.
  ASSERT_TRUE(cluster.Recover().ok());
  AuditOptions custody_only{.files = false, .db = false, .custody = true};
  AuditReport after = auditor.AuditAll(custody_only);
  EXPECT_TRUE(after.clean()) << after.findings[0].detail;
  EXPECT_GT(after.custody_records_verified, 0u);

  // Find the shard whose journal holds the bump and flip the last payload
  // byte — the tail of the sealed range digest — with the CRC re-fixed.
  int bump_shard = -1;
  for (int shard = 0; shard < cluster.shard_count(); ++shard) {
    auto state = cluster.journal(shard).Scan();
    ASSERT_TRUE(state.ok());
    if (!state->epoch_bumps.empty()) {
      ASSERT_TRUE(state->epoch_bumps[0].has_digests);
      bump_shard = shard;
      break;
    }
  }
  ASSERT_GE(bump_shard, 0);
  const std::string& path = cluster.journal(bump_shard).path();
  fs::MemFs* lower = cluster.machine(bump_shard).volume()->lower();
  auto image = lower->ReadFileRaw(path);
  ASSERT_TRUE(image.ok());
  lasagna::FrameMap map = lasagna::MapFrames(*image);
  // Checkpoint writes epoch bumps first: frame 0 is the bump.
  ASSERT_FALSE(map.frames.empty());
  TamperFs tamper(lower);
  TamperSite site{TamperKind::kFlipByteFixCrc, 0,
                  8 + map.frames[0].length - 1, "flip_custody_digest"};
  ASSERT_TRUE(tamper.Inject(path, site).ok());

  AuditReport caught = auditor.AuditAll(custody_only);
  ASSERT_FALSE(caught.clean());
  EXPECT_EQ(caught.findings[0].klass, TamperClass::kRowEdit);
  EXPECT_EQ(caught.findings[0].shard, bump_shard);
  EXPECT_NE(caught.findings[0].detail.find("custody"), std::string::npos);
}

// Epoch digests: two identical clusters agree on the root; any tampering
// that survives into state moves a shard digest and therefore the root.
TEST(AuditTest, EpochDigestIsDeterministicAndTamperSensitive) {
  ClusterCoordinator a(SmallCluster(2));
  ClusterCoordinator b(SmallCluster(2));
  BuildAuditedCluster(&a);
  BuildAuditedCluster(&b);
  EpochDigest da = a.ComputeEpochDigest();
  EpochDigest db = b.ComputeEpochDigest();
  EXPECT_EQ(da.epoch, db.epoch);
  EXPECT_EQ(da.root, db.root);
  ASSERT_EQ(da.shards.size(), 2u);
  EXPECT_NE(da.shards[0].digest, da.shards[1].digest);

  // Recomputing without mutation is stable.
  EXPECT_EQ(a.ComputeEpochDigest().root, da.root);

  // A forged database row moves the owner's ranges digest and the root.
  auto c = a.RefOfPath(0, "/c");
  ASSERT_TRUE(c.ok());
  a.shard_db(a.OwnerOf(c->pnode))
      .Insert(lasagna::LogEntry{*c, core::Record::Type("forged")});
  EXPECT_NE(a.ComputeEpochDigest().root, da.root);
}

}  // namespace
}  // namespace pass::cluster
