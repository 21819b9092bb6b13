#include "src/cluster/auditor.h"

#include <algorithm>
#include <set>

#include "src/util/logging.h"
#include "src/util/strings.h"

namespace pass::cluster {

using lasagna::FrameMap;
using lasagna::FrameMapEntry;

const char* TamperClassName(TamperClass klass) {
  switch (klass) {
    case TamperClass::kNone:
      return "none";
    case TamperClass::kTruncation:
      return "truncation";
    case TamperClass::kReordering:
      return "reordering";
    case TamperClass::kRowEdit:
      return "row_edit";
    case TamperClass::kTornTailCrash:
      return "torn_tail_crash";
  }
  return "unknown";
}

void AuditReport::Merge(const AuditReport& other) {
  files_verified += other.files_verified;
  frames_verified += other.frames_verified;
  bytes_hashed += other.bytes_hashed;
  ranges_verified += other.ranges_verified;
  custody_records_verified += other.custody_records_verified;
  challenges += other.challenges;
  benign_torn_tails += other.benign_torn_tails;
  audit_seconds += other.audit_seconds;
  findings.insert(findings.end(), other.findings.begin(),
                  other.findings.end());
}

namespace {

std::string RangeLabel(core::PnodeRange range) {
  return StrFormat("[%llu,%llu)", static_cast<unsigned long long>(range.begin),
                   static_cast<unsigned long long>(range.end));
}

}  // namespace

Auditor::Auditor(ClusterCoordinator* cluster, uint64_t seed)
    : cluster_(cluster), rng_(seed) {}

fs::MemFs* Auditor::LowerOf(int shard) {
  return cluster_->machine(shard).volume()->lower();
}

void Auditor::ChargeHashing(AuditReport* report, uint64_t bytes) {
  report->bytes_hashed += bytes;
  // The auditor pays for verification at the MD5 rate the cluster's
  // volumes charge their writers for the ENDTXN checksum.
  double ns_per_byte = cluster_->options().lasagna_options.md5_ns_per_byte;
  cluster_->env().ChargeCpu(
      static_cast<sim::Nanos>(static_cast<double>(bytes) * ns_per_byte));
  cluster_->env().obs().metrics().GetCounter("audit.bytes_hashed").Add(bytes);
}

void Auditor::RecordFinding(AuditReport* report, AuditFinding finding) {
  cluster_->env().obs().metrics().GetCounter("audit.findings").Add();
  report->findings.push_back(std::move(finding));
}

AuditReport Auditor::Seal() {
  AuditReport report;
  sim::Nanos start = cluster_->env().clock().now();
  // Quiesces, then commits to journal heads + owned-range content hashes.
  sealed_digest_ = cluster_->ComputeEpochDigest();
  file_seals_.clear();
  range_seals_.clear();
  custody_seals_.clear();
  pnode_seals_.clear();

  for (int shard = 0; shard < cluster_->shard_count(); ++shard) {
    fs::MemFs* lower = LowerOf(shard);
    // The journal, verified against the writer-maintained chain.
    const ClusterJournal& journal = cluster_->journal(shard);
    std::vector<std::pair<std::string, lasagna::LogChainState>> files;
    if (lower->ExistsRaw(journal.path())) {
      files.push_back({journal.path(),
                       lasagna::LogChainState{journal.chain_head(),
                                              journal.chain_frames()}});
    }
    // Every live log, verified against its flush-time chain.
    for (const auto& [path, chain] :
         cluster_->machine(shard).volume()->log_chains()) {
      files.push_back({path, chain});
    }
    for (const auto& [path, chain] : files) {
      auto image = lower->ReadFileRaw(path);
      if (!image.ok()) {
        continue;
      }
      FileSeal seal;
      seal.shard = shard;
      seal.path = path;
      seal.map = lasagna::MapFrames(*image);
      seal.writer_head = chain.head;
      seal.writer_frames = chain.frames;
      seal.bytes = image->size();
      ChargeHashing(&report, image->size());
      ++report.files_verified;
      report.frames_verified += seal.map.frames.size();
      // Seal-time verification: a disk image that already disagrees with
      // its writer was compromised before the seal — flag it now rather
      // than silently trusting it.
      if (seal.map.frames.size() != seal.writer_frames ||
          seal.map.torn_tail) {
        RecordFinding(
            &report,
            AuditFinding{shard, path, TamperClass::kTruncation,
                         seal.map.frames.size(),
                         seal.map.torn_tail ? seal.map.torn_at : seal.bytes,
                         StrFormat("seal: disk holds %llu frames, writer "
                                   "chained %llu",
                                   static_cast<unsigned long long>(
                                       seal.map.frames.size()),
                                   static_cast<unsigned long long>(
                                       seal.writer_frames))});
      } else if (seal.map.chain_head != seal.writer_head) {
        RecordFinding(&report,
                      AuditFinding{shard, path, TamperClass::kRowEdit, 0, 0,
                                   "seal: disk chain head diverges from "
                                   "writer chain head"});
      }
      file_seals_.push_back(std::move(seal));
    }

    // Custody records: every journaled EPOCH_BUMP payload, by epoch.
    auto state = journal.Scan();
    if (state.ok()) {
      for (const JournalEpochBump& bump : state->epoch_bumps) {
        custody_seals_[shard][bump.epoch] = Md5::Hash(bump.raw_payload);
        ChargeHashing(&report, bump.raw_payload.size());
      }
    }

    // Per-pnode content hashes (lineage challenges pinpoint forged rows).
    const waldo::ProvDb* db = cluster_->machine(shard).db();
    for (core::PnodeId pnode : db->AllPnodes()) {
      uint64_t bytes = 0;
      pnode_seals_[shard][pnode] =
          db->ContentHashOfRange(pnode, pnode + 1, &bytes);
      ChargeHashing(&report, bytes);
    }
  }

  // Owned-range content hashes, from the epoch digest's own partition.
  for (const auto& [range, owner] : cluster_->shard_map().Assignments()) {
    uint64_t bytes = 0;
    Md5Digest digest = cluster_->machine(owner).db()->ContentHashOfRange(
        range.begin, range.end, &bytes);
    ChargeHashing(&report, bytes);
    range_seals_.push_back(RangeSeal{owner, range, digest});
  }
  sealed_ = true;
  report.audit_seconds =
      static_cast<double>(cluster_->env().clock().now() - start) / 1e9;
  return report;
}

void Auditor::VerifyFile(const FileSeal& seal, AuditReport* report) {
  ++report->files_verified;
  fs::MemFs* lower = LowerOf(seal.shard);
  auto image = lower->ReadFileRaw(seal.path);
  if (!image.ok()) {
    RecordFinding(report, AuditFinding{seal.shard, seal.path,
                                       TamperClass::kTruncation, 0, 0,
                                       "sealed file missing"});
    return;
  }
  FrameMap disk = lasagna::MapFrames(*image);
  ChargeHashing(report, image->size());
  report->frames_verified += disk.frames.size();
  const std::vector<FrameMapEntry>& sealed = seal.map.frames;

  // Find the first sealed frame the disk no longer reproduces.
  size_t diverge = sealed.size();
  for (size_t i = 0; i < sealed.size(); ++i) {
    if (i >= disk.frames.size() || !disk.frames[i].crc_ok ||
        disk.frames[i].payload_md5 != sealed[i].payload_md5) {
      diverge = i;
      break;
    }
  }

  if (diverge == sealed.size()) {
    // Sealed prefix fully intact. Damage beyond it — frames appended since
    // the seal that tore, or a ragged tail — is exactly what a crash
    // leaves: the one benign classification.
    bool beyond_damage = disk.torn_tail;
    for (size_t i = sealed.size(); i < disk.frames.size(); ++i) {
      beyond_damage = beyond_damage || !disk.frames[i].crc_ok;
    }
    if (beyond_damage) {
      ++report->benign_torn_tails;
      cluster_->env().obs().metrics()
          .GetCounter("audit.benign_torn_tails")
          .Add();
    }
    return;
  }

  AuditFinding finding;
  finding.shard = seal.shard;
  finding.file = seal.path;
  finding.frame = diverge;
  finding.position = diverge < disk.frames.size()
                         ? disk.frames[diverge].offset
                         : (disk.torn_tail ? disk.torn_at : image->size());
  if (diverge >= disk.frames.size()) {
    // The sealed frame (and everything after) is simply gone.
    finding.klass = TamperClass::kTruncation;
    finding.detail = StrFormat(
        "sealed frame %llu missing: disk ends after %llu of %llu frames",
        static_cast<unsigned long long>(diverge),
        static_cast<unsigned long long>(disk.frames.size()),
        static_cast<unsigned long long>(sealed.size()));
  } else if (!disk.frames[diverge].crc_ok) {
    // Damaged in place: CRC broken where the seal had a valid frame.
    finding.klass = TamperClass::kRowEdit;
    finding.detail = StrFormat("frame %llu corrupt in place (CRC mismatch)",
                               static_cast<unsigned long long>(diverge));
  } else {
    // Valid frame, wrong payload: reordering, splice, or rewrite.
    bool same_multiset = disk.frames.size() >= sealed.size();
    if (same_multiset) {
      std::multiset<Md5Digest> want, have;
      for (size_t i = 0; i < sealed.size(); ++i) {
        want.insert(sealed[i].payload_md5);
        have.insert(disk.frames[i].payload_md5);
      }
      same_multiset = want == have;
    }
    if (same_multiset) {
      finding.klass = TamperClass::kReordering;
      finding.detail = StrFormat(
          "frames permuted starting at %llu (payload set unchanged)",
          static_cast<unsigned long long>(diverge));
    } else if (diverge + 1 < sealed.size() &&
               disk.frames[diverge].payload_md5 ==
                   sealed[diverge + 1].payload_md5) {
      finding.klass = TamperClass::kTruncation;
      finding.detail =
          StrFormat("sealed frame %llu spliced out of the middle",
                    static_cast<unsigned long long>(diverge));
    } else {
      finding.klass = TamperClass::kRowEdit;
      finding.detail = StrFormat(
          "frame %llu rewritten (CRC consistent, chain diverges)",
          static_cast<unsigned long long>(diverge));
    }
  }
  RecordFinding(report, std::move(finding));
}

void Auditor::VerifyRange(const RangeSeal& seal, AuditReport* report) {
  ++report->ranges_verified;
  uint64_t bytes = 0;
  Md5Digest now = cluster_->machine(seal.shard)
                      .db()
                      ->ContentHashOfRange(seal.range.begin, seal.range.end,
                                           &bytes);
  ChargeHashing(report, bytes);
  if (now != seal.digest) {
    RecordFinding(
        report,
        AuditFinding{seal.shard, StrFormat("db:shard%d", seal.shard),
                     TamperClass::kRowEdit, 0, 0,
                     StrFormat("range %s rows diverge from sealed "
                               "fingerprint",
                               RangeLabel(seal.range).c_str())});
  }
}

void Auditor::VerifyCustody(int shard, AuditReport* report) {
  auto it = custody_seals_.find(shard);
  if (it == custody_seals_.end()) {
    return;
  }
  auto state = cluster_->journal(shard).Scan();
  std::map<uint64_t, Md5Digest> fresh;
  if (state.ok()) {
    for (const JournalEpochBump& bump : state->epoch_bumps) {
      fresh[bump.epoch] = Md5::Hash(bump.raw_payload);
      ChargeHashing(report, bump.raw_payload.size());
    }
  }
  std::string file = StrFormat("custody:shard%d", shard);
  for (const auto& [epoch, sealed_md5] : it->second) {
    ++report->custody_records_verified;
    auto now = fresh.find(epoch);
    if (now == fresh.end()) {
      RecordFinding(
          report,
          AuditFinding{shard, file, TamperClass::kTruncation, 0, 0,
                       StrFormat("custody record for epoch %llu missing "
                                 "from the journal",
                                 static_cast<unsigned long long>(epoch))});
    } else if (now->second != sealed_md5) {
      RecordFinding(
          report,
          AuditFinding{shard, file, TamperClass::kRowEdit, 0, 0,
                       StrFormat("custody record for epoch %llu rewritten",
                                 static_cast<unsigned long long>(epoch))});
    }
  }
}

bool Auditor::VerifyPnode(int shard, core::PnodeId pnode,
                          AuditReport* report) {
  auto shard_it = pnode_seals_.find(shard);
  if (shard_it == pnode_seals_.end()) {
    return true;
  }
  auto it = shard_it->second.find(pnode);
  if (it == shard_it->second.end()) {
    return true;  // appeared after the seal: nothing attested
  }
  uint64_t bytes = 0;
  Md5Digest now = cluster_->machine(shard).db()->ContentHashOfRange(
      pnode, pnode + 1, &bytes);
  ChargeHashing(report, bytes);
  if (now == it->second) {
    return true;
  }
  RecordFinding(
      report,
      AuditFinding{shard, StrFormat("db:shard%d", shard),
                   TamperClass::kRowEdit, 0, 0,
                   StrFormat("pnode %llu rows diverge from sealed hash",
                             static_cast<unsigned long long>(pnode))});
  return false;
}

AuditReport Auditor::AuditAll(const AuditOptions& options) {
  PASS_CHECK(sealed_);
  AuditReport report;
  sim::Nanos start = cluster_->env().clock().now();
  if (options.files) {
    for (const FileSeal& seal : file_seals_) {
      VerifyFile(seal, &report);
    }
  }
  if (options.custody) {
    for (int shard = 0; shard < cluster_->shard_count(); ++shard) {
      VerifyCustody(shard, &report);
    }
  }
  if (options.db) {
    for (const RangeSeal& seal : range_seals_) {
      VerifyRange(seal, &report);
    }
  }
  sim::Nanos elapsed = cluster_->env().clock().now() - start;
  report.audit_seconds = static_cast<double>(elapsed) / 1e9;
  obs::MetricRegistry& metrics = cluster_->env().obs().metrics();
  metrics.GetCounter("audit.frames_verified").Add(report.frames_verified);
  metrics.GetHistogram("audit.verify_ns").Record(elapsed);
  return report;
}

AuditReport Auditor::Challenge(size_t n) {
  PASS_CHECK(sealed_);
  AuditReport report;
  sim::Nanos start = cluster_->env().clock().now();
  obs::MetricRegistry& metrics = cluster_->env().obs().metrics();
  for (size_t i = 0; i < n; ++i) {
    ++report.challenges;
    metrics.GetCounter("audit.challenges").Add();
    bool pick_file = !file_seals_.empty() &&
                     (range_seals_.empty() || rng_.NextBelow(2) == 0);
    if (pick_file) {
      // "Prove frame k under head h": the prover must reproduce the sealed
      // payload at k and re-fold the whole prefix to the sealed head —
      // which is exactly a full verification of that file.
      const FileSeal& seal =
          file_seals_[rng_.NextBelow(file_seals_.size())];
      VerifyFile(seal, &report);
    } else if (!range_seals_.empty()) {
      // "Prove range R hashes to its sealed fingerprint."
      VerifyRange(range_seals_[rng_.NextBelow(range_seals_.size())],
                  &report);
    }
  }
  sim::Nanos elapsed = cluster_->env().clock().now() - start;
  report.audit_seconds = static_cast<double>(elapsed) / 1e9;
  metrics.GetHistogram("audit.verify_ns").Record(elapsed);
  return report;
}

AuditReport Auditor::ChallengeLineage(const core::ObjectRef& ref) {
  PASS_CHECK(sealed_);
  AuditReport report;
  sim::Nanos start = cluster_->env().clock().now();
  std::set<core::PnodeId> visited;
  std::vector<core::ObjectRef> stack{ref};
  while (!stack.empty()) {
    core::ObjectRef at = stack.back();
    stack.pop_back();
    if (!visited.insert(at.pnode).second) {
      continue;
    }
    int owner = cluster_->OwnerOf(at.pnode);
    if (owner < 0) {
      continue;
    }
    ++report.challenges;
    cluster_->env().obs().metrics().GetCounter("audit.challenges").Add();
    VerifyPnode(owner, at.pnode, &report);
    const waldo::ProvDb* db = cluster_->machine(owner).db();
    for (core::Version version : db->VersionsOf(at.pnode)) {
      for (const core::ObjectRef& ancestor :
           db->Inputs(core::ObjectRef{at.pnode, version})) {
        stack.push_back(ancestor);
      }
    }
  }
  sim::Nanos elapsed = cluster_->env().clock().now() - start;
  report.audit_seconds = static_cast<double>(elapsed) / 1e9;
  cluster_->env().obs().metrics().GetHistogram("audit.verify_ns")
      .Record(elapsed);
  return report;
}

}  // namespace pass::cluster
