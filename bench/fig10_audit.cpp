// Figure 10 (this repo's extension): tamper-evident provenance — the
// injected-tampering audit sweep.
//
// Where fig5 enumerates every crash site and expects recovery to repair
// each one, this bench enumerates every byte-addressable *adversarial*
// mutation of the sealed journals and logs (TamperFs) across a sweep of
// log size x shard count, and gates that the auditor:
//
//   (a) detects 100% of injected sites, naming the exact file, frame, and
//       tampering class (truncation / reordering / row edit);
//   (b) reports zero findings on clean runs (every plane: file chains,
//       range fingerprints, custody records) and on crash-only runs — a
//       torn post-seal group-commit tail counts as a benign crash, and a
//       crash + Recover() leaves the checkpoint-surviving custody audit
//       clean;
//   (c) keeps federated == merged query answers on every untampered run;
//
// and reports what verification costs as the logs grow (bytes hashed,
// frames verified, virtual seconds of MD5 work).
//
// Usage: fig10_audit [files] [seed]   (default 48 1; CI runs small scales
//                                      and a 3-seed matrix)
//
// Machine-readable output: lines beginning with "csv," form three tables —
//   csv,audit_cost,files,shards,files_verified,frames_verified,
//       bytes_hashed,ranges_verified,custody_records,audit_s,match
//   csv,crash_only,files,shards,mode,benign_torn_tails,findings
//   csv,tamper_sweep,files,shards,kind,sites,detected,class_correct,
//       frame_exact
//   csv,audit_summary,files,seed,sites_injected,detected,class_correct,
//       false_positives,match

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/cluster/auditor.h"
#include "src/cluster/cluster.h"
#include "src/cluster/tamper.h"
#include "src/util/logging.h"

namespace {

using pass::cluster::AuditOptions;
using pass::cluster::AuditReport;
using pass::cluster::Auditor;
using pass::cluster::ClusterCoordinator;
using pass::cluster::ClusterOptions;
using pass::cluster::TamperClass;
using pass::cluster::TamperClassName;
using pass::cluster::TamperFs;
using pass::cluster::TamperKind;
using pass::cluster::TamperKindName;
using pass::cluster::TamperSite;

ClusterOptions Options(int shards, uint64_t seed) {
  ClusterOptions options;
  options.shards = shards;
  options.seed = seed;
  options.ingest_batch_records = 8;
  return options;
}

// Cross-shard lineage chain between shards 0 and 1, one migration to the
// last shard (journals the EPOCH_BUMP custody record), and — unless the
// caller will Sync() again after sealing, which would consume it — one
// unsynced rotated log on shard 0 so the sweep covers Lasagna logs, not
// just journals.
void BuildWorkload(ClusterCoordinator* cluster, int files,
                   bool with_unsynced_log = true) {
  std::vector<pass::core::ObjectRef> refs;
  for (int i = 0; i < files; ++i) {
    std::vector<pass::core::ObjectRef> sources;
    if (i > 0) {
      sources.push_back(refs.back());
    }
    auto ref = cluster->WriteWithLineage(i % 2, "/f" + std::to_string(i),
                                         std::string(128, 'd'), sources);
    PASS_CHECK(ref.ok());
    refs.push_back(*ref);
  }
  PASS_CHECK(cluster->Sync().ok());
  pass::core::PnodeRange range{
      pass::core::ShardSpace(0).begin,
      pass::core::ShardSpace(0).begin + 4};
  PASS_CHECK(cluster->MigrateRange(range, cluster->shard_count() - 1).ok());
  if (with_unsynced_log) {
    PASS_CHECK(
        cluster->WriteWithLineage(0, "/tail", "unsynced", {refs.back()})
            .ok());
    PASS_CHECK(cluster->machine(0).volume()->ForceRotate().ok());
  }
}

bool FederatedMatchesMerged(ClusterCoordinator* cluster, int files) {
  const std::string query =
      "select Ancestor from Provenance.file as F F.input* as Ancestor "
      "where F.name = \"/f" + std::to_string(files - 1) + "\"";
  return pass::bench::MatchesNonEmpty(*cluster, query);
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

// Every sealed on-disk file of the cluster: per-shard journals + live logs.
std::vector<std::pair<int, std::string>> SealedFiles(
    ClusterCoordinator* cluster) {
  std::vector<std::pair<int, std::string>> targets;
  for (int shard = 0; shard < cluster->shard_count(); ++shard) {
    pass::fs::MemFs* lower = cluster->machine(shard).volume()->lower();
    if (lower->ExistsRaw(cluster->journal(shard).path())) {
      targets.push_back({shard, cluster->journal(shard).path()});
    }
    for (const auto& [path, chain] :
         cluster->machine(shard).volume()->log_chains()) {
      targets.push_back({shard, path});
    }
  }
  return targets;
}

struct KindTally {
  uint64_t sites = 0;
  uint64_t detected = 0;
  uint64_t class_correct = 0;
  uint64_t frame_exact = 0;
};

}  // namespace

int main(int argc, char** argv) {
  int files = argc > 1 ? std::atoi(argv[1]) : 48;
  uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1;
  PASS_CHECK(files >= 8);

  std::printf("Figure 10: tamper-evident provenance — hash-chained "
              "journals, epoch digests,\nand the injected-tampering audit "
              "sweep (base %d files, seed %llu)\n\n",
              files, (unsigned long long)seed);

  bool all_match = true;
  uint64_t false_positives = 0;

  // ---- Phase A: verification cost vs log size (clean audits) ----------------
  std::printf("audit cost vs log size (2..3 shards, clean clusters):\n");
  for (int shards : {2, 3}) {
    for (int size : {files / 4, files / 2, files}) {
      int n = std::max(8, size);
      ClusterCoordinator cluster(Options(shards, seed));
      BuildWorkload(&cluster, n);
      Auditor auditor(&cluster, seed);
      AuditReport sealed = auditor.Seal();
      PASS_CHECK(sealed.clean());  // gate: zero findings at seal time
      AuditReport audit = auditor.AuditAll();
      PASS_CHECK(audit.clean());  // gate: zero findings on a clean run
      false_positives += audit.findings.size();
      bool match = FederatedMatchesMerged(&cluster, n);
      PASS_CHECK(match);  // gate: federated == merged, untampered
      all_match = all_match && match;
      std::printf("  %3d files x %d shards: %llu files, %llu frames, "
                  "%llu bytes hashed, %llu ranges, %llu custody, %.6f s\n",
                  n, shards, (unsigned long long)audit.files_verified,
                  (unsigned long long)audit.frames_verified,
                  (unsigned long long)audit.bytes_hashed,
                  (unsigned long long)audit.ranges_verified,
                  (unsigned long long)audit.custody_records_verified,
                  audit.audit_seconds);
      std::printf("csv,audit_cost,%d,%d,%llu,%llu,%llu,%llu,%llu,%.6f,%s\n",
                  n, shards, (unsigned long long)audit.files_verified,
                  (unsigned long long)audit.frames_verified,
                  (unsigned long long)audit.bytes_hashed,
                  (unsigned long long)audit.ranges_verified,
                  (unsigned long long)audit.custody_records_verified,
                  audit.audit_seconds, match ? "yes" : "no");
    }
  }

  // ---- Phase B: crash-only runs must stay clean -----------------------------
  // Mode torn_tail: the coalesced post-seal append tears mid-frame — every
  // sealed frame is intact, so the file audit counts a benign torn tail and
  // reports nothing. Mode crash_recover: a real mid-sync crash + Recover();
  // the checkpoint legitimately rewrites the journals (file seals are
  // retired by design), and the custody audit — the post-recovery check —
  // stays clean.
  std::printf("\ncrash-only runs (no tampering):\n");
  for (int shards : {2, 3}) {
    {
      // Journals only at seal time: the post-seal Sync() would consume a
      // rotated log, legitimately retiring its seal.
      ClusterCoordinator cluster(Options(shards, seed));
      BuildWorkload(&cluster, files, /*with_unsynced_log=*/false);
      Auditor auditor(&cluster, seed);
      PASS_CHECK(auditor.Seal().clean());
      std::vector<uint64_t> sealed_frames(shards);
      for (int shard = 0; shard < shards; ++shard) {
        sealed_frames[shard] = cluster.journal(shard).chain_frames();
      }
      auto a = cluster.WriteWithLineage(0, "/post-seal-a", "x", {});
      PASS_CHECK(a.ok());
      PASS_CHECK(cluster.WriteWithLineage(1, "/post-seal-b", "y", {*a}).ok());
      PASS_CHECK(cluster.Sync().ok());
      int grown = -1;
      for (int shard = 0; shard < shards; ++shard) {
        if (cluster.journal(shard).chain_frames() > sealed_frames[shard]) {
          grown = shard;
          break;
        }
      }
      PASS_CHECK(grown >= 0);
      pass::fs::MemFs* lower = cluster.machine(grown).volume()->lower();
      const std::string& path = cluster.journal(grown).path();
      auto image = lower->ReadFileRaw(path);
      PASS_CHECK(image.ok());
      PASS_CHECK(lower
                     ->WriteFileRaw(path, std::string_view(*image).substr(
                                              0, image->size() - 3))
                     .ok());
      AuditReport report = auditor.AuditAll(
          AuditOptions{.files = true, .db = false, .custody = false});
      PASS_CHECK(report.clean());  // gate: torn tail is benign, not tampering
      PASS_CHECK(report.benign_torn_tails >= 1);
      false_positives += report.findings.size();
      std::printf("  torn_tail     x %d shards: %llu benign torn tails, "
                  "%zu findings\n",
                  shards, (unsigned long long)report.benign_torn_tails,
                  report.findings.size());
      std::printf("csv,crash_only,%d,%d,torn_tail,%llu,%zu\n", files, shards,
                  (unsigned long long)report.benign_torn_tails,
                  report.findings.size());
    }
    {
      ClusterCoordinator cluster(Options(shards, seed));
      BuildWorkload(&cluster, files);
      Auditor auditor(&cluster, seed);
      PASS_CHECK(auditor.Seal().clean());
      auto extra = cluster.WriteWithLineage(0, "/pre-crash", "z", {});
      PASS_CHECK(extra.ok());
      cluster.env().CrashAfterOps(2);
      PASS_CHECK(!cluster.Sync().ok());  // the crash fired
      PASS_CHECK(cluster.Recover().ok());
      AuditReport report = auditor.AuditAll(
          AuditOptions{.files = false, .db = false, .custody = true});
      PASS_CHECK(report.clean());  // gate: crash + recovery is not tampering
      PASS_CHECK(report.custody_records_verified > 0);
      false_positives += report.findings.size();
      bool match = FederatedMatchesMerged(&cluster, files);
      PASS_CHECK(match);
      all_match = all_match && match;
      std::printf("  crash_recover x %d shards: %llu custody records "
                  "verified, %zu findings\n",
                  shards, (unsigned long long)report.custody_records_verified,
                  report.findings.size());
      std::printf("csv,crash_only,%d,%d,crash_recover,0,%zu\n", files, shards,
                  report.findings.size());
    }
  }

  // ---- Phase C: the injected-tampering sweep --------------------------------
  // Every enumerated site in every sealed file, one at a time: inject,
  // audit, gate detection + file + frame + class, restore, gate clean.
  std::printf("\ninjected-tampering sweep:\n");
  uint64_t sites_injected = 0;
  uint64_t detected = 0;
  uint64_t class_correct = 0;
  const AuditOptions files_only{.files = true, .db = false, .custody = false};
  for (int shards : {2, 3}) {
    ClusterCoordinator cluster(Options(shards, seed));
    BuildWorkload(&cluster, files);
    Auditor auditor(&cluster, seed);
    PASS_CHECK(auditor.Seal().clean());
    std::map<TamperKind, KindTally> tallies;
    for (const auto& [shard, path] : SealedFiles(&cluster)) {
      TamperFs tamper(cluster.machine(shard).volume()->lower());
      auto snapshot = tamper.Snapshot(path);
      PASS_CHECK(snapshot.ok());
      for (const TamperSite& site : tamper.EnumerateSites(path)) {
        PASS_CHECK(tamper.Inject(path, site).ok());
        AuditReport report = auditor.AuditAll(files_only);
        KindTally& tally = tallies[site.kind];
        ++tally.sites;
        ++sites_injected;
        // Gate: 100% detection with the exact site and class named.
        PASS_CHECK(!report.clean());
        const pass::cluster::AuditFinding& finding = report.findings[0];
        PASS_CHECK(finding.file == path);
        PASS_CHECK(finding.shard == shard);
        PASS_CHECK(finding.klass == ExpectedClass(site.kind));
        PASS_CHECK(finding.frame == site.frame);
        ++tally.detected;
        ++detected;
        ++tally.class_correct;
        ++class_correct;
        ++tally.frame_exact;
        PASS_CHECK(tamper.Restore(path, *snapshot).ok());
        AuditReport clean = auditor.AuditAll(files_only);
        PASS_CHECK(clean.clean());  // gate: restore leaves no residue
        false_positives += clean.findings.size();
      }
    }
    for (const auto& [kind, tally] : tallies) {
      std::printf("  %d shards %-18s: %llu sites, %llu detected, "
                  "%llu class-correct, %llu frame-exact\n",
                  shards, TamperKindName(kind),
                  (unsigned long long)tally.sites,
                  (unsigned long long)tally.detected,
                  (unsigned long long)tally.class_correct,
                  (unsigned long long)tally.frame_exact);
      std::printf("csv,tamper_sweep,%d,%d,%s,%llu,%llu,%llu,%llu\n", files,
                  shards, TamperKindName(kind),
                  (unsigned long long)tally.sites,
                  (unsigned long long)tally.detected,
                  (unsigned long long)tally.class_correct,
                  (unsigned long long)tally.frame_exact);
    }
  }

  PASS_CHECK(detected == sites_injected);  // 100% detection
  PASS_CHECK(class_correct == sites_injected);
  PASS_CHECK(false_positives == 0);
  PASS_CHECK(all_match);

  std::printf("\nsummary: %llu sites injected, %llu detected, %llu "
              "class-correct, %llu false positives, federated==merged %s\n",
              (unsigned long long)sites_injected,
              (unsigned long long)detected,
              (unsigned long long)class_correct,
              (unsigned long long)false_positives,
              all_match ? "yes" : "NO");
  std::printf("csv,audit_summary,%d,%llu,%llu,%llu,%llu,%llu,%s\n", files,
              (unsigned long long)seed, (unsigned long long)sites_injected,
              (unsigned long long)detected, (unsigned long long)class_correct,
              (unsigned long long)false_positives, all_match ? "yes" : "no");
  return 0;
}
