// mixed: writes beside reads, plus maintenance.
//
// A pass is one episode of the canonical scenario on a fresh 4-shard
// cluster: 3 standing queries (taint descendants, taint ancestry,
// F.taint = 1) and 2 portal sessions with 1 MiB caches, which hold the
// working set, then kRounds rounds of
//
//   a generator round at 2 chains per shard + Sync; standing Refresh;
//   2 kFresh ancestry queries on the newest outputs of two shards;
//
// with maintenance at fixed rounds: shard 0's range migrates to shard 2 at
// round 8 and back at round 16; round 20 arms a seeded crash point before
// its Sync and always calls Recover; the last round seals and audits the
// cluster. Each round, maintenance included, is one timed operation. The
// episode stays short so Refresh stays well below its binding-set limit.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cluster_util.h"
#include "generator.h"
#include "harness.h"
#include "src/cluster/auditor.h"
#include "src/cluster/portal.h"
#include "src/cluster/standing.h"
#include "workload.h"

namespace e2e {
namespace {

using pass::cluster::ClusterCoordinator;
using pass::cluster::PortalHandle;
using pass::cluster::StandingQueryTier;

constexpr int kChains = 2;
constexpr int kRounds = 24;
constexpr int kMigrateAway = 8;
constexpr int kMigrateBack = 16;
constexpr int kCrashRound = 20;
constexpr int kSessions = 2;
constexpr size_t kSessionCache = 1u << 20;

class MixedWorkload : public Workload {
 public:
  PassResult RunPass(uint64_t seed, const PassMode& mode) override {
    PassResult r;
    Tracer* tracer = mode.tracer;
    WallNs start = Now();
    std::unique_ptr<ClusterCoordinator> cluster = NewCluster(seed, tracer);
    AuditGen gen(cluster.get(), MixSeed(seed, 2), tracer);
    if (!gen.Seed().ok()) {
      r.Fail("seeding the cluster failed");
      DestroyCluster(&cluster, tracer);
      return r;
    }
    const std::vector<std::string> standing_texts = {
        kTaintDescendantQuery, kCrossTaintQuery, kTaintFileQuery};
    {
      auto standing = std::make_unique<StandingQueryTier>(cluster.get());
      std::vector<uint64_t> ids;
      for (const std::string& text : standing_texts) {
        Span span(tracer, "standing.register");
        auto id = standing->Register(text);
        if (!id.ok()) {
          r.Fail("standing registration failed: " + text);
          break;
        }
        ids.push_back(*id);
      }
      {
        Span span(tracer, "standing.refresh");  // the seed evaluation
        if (!standing->Refresh().ok()) {
          r.Fail("standing seed evaluation failed");
        }
      }
      pass::cluster::PortalTier portal(cluster.get());
      std::vector<PortalHandle> sessions = OpenSessions(
          portal, kSessions, kSessionCache, /*tenants=*/1, tracer, &r);
      r.setups.push_back(Now() - start);
      if (!r.error.empty()) {
        sessions.clear();
        standing.reset();
        DestroyCluster(&cluster, tracer);
        return r;
      }

      std::vector<pass::cluster::FederatedStats> before =
          FederatedSnapshot(sessions);
      Episode(*cluster, gen, *standing, sessions, tracer, &r);
      FederatedCounts(before, sessions, &r.counts);
      FinishQueryCounts(&r);
      AddStandingCounts(standing->stats(), &r);
      for (uint64_t id : ids) {
        auto kept = standing->ResultOf(id);
        r.digest = Fold(r.digest, kept.ok() ? Canonical(*kept) : "error");
      }
      // Before the checks, whose federated reads charge the sim network.
      FinishClusterPass(*cluster, gen, &r);

      if (mode.check) {
        CheckStanding(*cluster, *standing, ids, standing_texts, &r);
        std::vector<std::string> texts = standing_texts;
        for (int shard = 0; shard < cluster->shard_count(); ++shard) {
          if (const OutputFile* newest = gen.NewestOn(shard)) {
            texts.push_back(AncestryQuery(newest->path));
          }
        }
        std::string error = CheckFederatedEqualsMerged(*cluster, texts);
        if (!error.empty()) {
          r.Fail(error);
        }
      }
      Span span(tracer, "standing.close");
      sessions.clear();
      standing.reset();
    }
    DestroyCluster(&cluster, tracer);
    return r;
  }

 private:
  static void Episode(ClusterCoordinator& cluster, AuditGen& gen,
                      StandingQueryTier& standing,
                      std::vector<PortalHandle>& sessions, Tracer* tracer,
                      PassResult* r) {
    pass::core::PnodeRange moved{0, 0};
    uint64_t crash_points = 1;
    pass::pql::QueryOptions fresh;
    fresh.consistency = pass::pql::Consistency::kFresh;
    for (int round = 1; round <= kRounds; ++round) {
      WallNs begin = Now();
      bool round_ok = true;  // a round with any non-OK call counts as failed
      pass::Status status = gen.Chains(kChains);
      bool crash_round = round == kCrashRound;
      if (crash_round) {
        cluster.env().CrashAfterOps(gen.gen().Below(crash_points));
      }
      uint64_t points_before = cluster.env().crash_points_passed();
      if (status.ok()) {
        status = gen.Sync();
        r->Sample("cluster.sync_ms", Ms(gen.last_sync_ns()));
      }
      crash_points =
          std::max<uint64_t>(1, cluster.env().crash_points_passed() -
                                    points_before);
      r->Sample("ingest.round_ms", Ms(Now() - begin));
      if (crash_round) {
        // The deliberately crashed Sync is not a failure; Recover is timed.
        WallNs ns = 0;
        auto report = Timed(tracer, "cluster.recover", &ns,
                            [&] { return cluster.Recover(); });
        r->Sample("cluster.recover_ms", Ms(ns));
        round_ok = round_ok && report.ok();
        if (report.ok()) {
          r->counts["recover.journal_records_scanned"] +=
              static_cast<double>(report->journal_records_scanned);
          r->counts["recover.batches_redelivered"] +=
              static_cast<double>(report->batches_redelivered);
          r->counts["recover.entries_reapplied"] +=
              static_cast<double>(report->entries_reapplied);
        }
      } else {
        round_ok = round_ok && status.ok();
      }

      WallNs refresh_ns = 0;
      auto refreshed = Timed(tracer, "standing.refresh", &refresh_ns,
                             [&] { return standing.Refresh(); });
      r->Sample("standing.refresh_ms", Ms(refresh_ns));
      round_ok = round_ok && refreshed.ok();

      const int shards = cluster.shard_count();
      int first = static_cast<int>(gen.gen().Below(shards));
      for (size_t q = 0; q < sessions.size(); ++q) {
        const OutputFile* newest =
            gen.NewestOn((first + static_cast<int>(q)) % shards);
        WallNs ns = 0;
        auto answer = RunPortalQuery(cluster, *sessions[q],
                                     AncestryQuery(newest->path), fresh,
                                     tracer, r, &ns);
        round_ok = round_ok && answer.ok();
      }

      if (round == kMigrateAway || round == kMigrateBack) {
        if (round == kMigrateAway) {
          moved = pass::core::PnodeRange{
              pass::core::ShardSpace(0).begin,
              cluster.machine(0).allocator().peek_next()};
        }
        WallNs ns = 0;
        auto report = Timed(tracer, "cluster.migrate_range", &ns, [&] {
          return cluster.MigrateRange(moved, round == kMigrateAway ? 2 : 0);
        });
        r->Sample("cluster.migrate_ms", Ms(ns));
        round_ok = round_ok && report.ok();
        if (report.ok()) {
          r->counts["migrate.entries_shipped"] +=
              static_cast<double>(report->entries_shipped);
          r->counts["migrate.entries_skipped"] +=
              static_cast<double>(report->entries_skipped);
          r->counts["migrate.bytes"] += static_cast<double>(report->bytes);
        }
      }
      if (round == kRounds) {
        Audit(cluster, gen.gen().Next(), tracer, r);
      }
      r->ops.push_back(Now() - begin);
      if (!round_ok) {
        ++r->failed;
      }
    }
  }

  // Seal, then audit everything sealed: one timed audit, which must be
  // clean on this untampered cluster.
  static void Audit(ClusterCoordinator& cluster, uint64_t seed,
                    Tracer* tracer, PassResult* r) {
    WallNs start = Now();
    pass::cluster::Auditor auditor(&cluster, seed);
    pass::cluster::AuditReport sealed;
    {
      Span span(tracer, "auditor.seal");
      sealed = auditor.Seal();
    }
    pass::cluster::AuditReport report;
    {
      Span span(tracer, "auditor.audit_all");
      report = auditor.AuditAll();
    }
    WallNs ns = Now() - start;
    r->Sample("auditor.audit_ms", Ms(ns));
    r->sums["audit.ns"] += static_cast<double>(ns);
    r->sums["audit.bytes_hashed"] +=
        static_cast<double>(sealed.bytes_hashed + report.bytes_hashed);
    r->counts["audit.bytes_hashed"] +=
        static_cast<double>(sealed.bytes_hashed + report.bytes_hashed);
    r->counts["audit.frames_verified"] +=
        static_cast<double>(sealed.frames_verified + report.frames_verified);
    if (!sealed.clean() || !report.clean()) {
      r->Fail("audit of an untampered cluster reported findings");
    }
  }

  static void AddStandingCounts(const pass::cluster::StandingStats& s,
                                PassResult* r) {
    auto& c = r->counts;
    c["standing.frontier_entries"] = static_cast<double>(s.frontier_entries);
    c["standing.affected_roots"] = static_cast<double>(s.affected_roots);
    c["standing.affected_roots_per_frontier_entry"] =
        s.frontier_entries == 0
            ? 0
            : static_cast<double>(s.affected_roots) /
                  static_cast<double>(s.frontier_entries);
    c["standing.rows_touched"] = static_cast<double>(s.rows_touched);
    c["standing.eval_rpcs"] = static_cast<double>(s.eval_rpcs);
    c["standing.frontier_rpcs"] = static_cast<double>(s.frontier_rpcs);
    c["standing.full_evals"] = static_cast<double>(s.full_evals);
    c["standing.walk_overflows"] = static_cast<double>(s.walk_overflows);
  }

  // Off the clock: every standing result equals a from-scratch evaluation
  // over a fresh federated source (after the episode's crash + Recover).
  static void CheckStanding(ClusterCoordinator& cluster,
                            const StandingQueryTier& standing,
                            const std::vector<uint64_t>& ids,
                            const std::vector<std::string>& texts,
                            PassResult* r) {
    pass::cluster::FederatedSource scratch = cluster.Source();
    pass::pql::Engine engine(&scratch);
    for (size_t i = 0; i < ids.size(); ++i) {
      auto kept = standing.ResultOf(ids[i]);
      auto full = engine.Run(texts[i]);
      if (!kept.ok() || !full.ok() || Canonical(*kept) != Canonical(*full)) {
        r->Fail("standing != from-scratch: " + texts[i]);
      }
    }
  }
};

}  // namespace

std::unique_ptr<Workload> MakeMixed() {
  return std::make_unique<MixedWorkload>();
}

}  // namespace e2e
