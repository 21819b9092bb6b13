// Figure 9 (this repo's extension): the multi-tenant portal tier under
// concurrent sessions and steady foreign-shard ingest.
//
// Phase 1 sweeps sessions x churn rate x per-session cache budget over a
// fixed cross-shard lineage chain. Every session is an epoch-pinned
// PortalSession opened through a PortalTier whose byte budget exactly covers
// the fleet; between query rounds the churn shard (which hosts no chain
// data) absorbs fresh provenance rows. Reported per cell: p50/p99 simulated
// query latency, cache hit ratio, per-entry invalidations, and the miss
// count of a whole-cache-flush baseline portal answering the same rounds —
// the pre-fingerprint behavior. Gated: every session's answer equals the
// merged database every round, and on churn cells with a real cache budget
// the baseline pays at least kChurnMissReductionGate x the misses.
//
// Phase 2 pins two sessions, migrates a range they have cached mid-flight,
// and gates that both answer from their pinned snapshot (source-side delete
// deferred) until RePin, and correctly after.
//
// Phase 3 exercises tier admission: tenant quota rejection, budget
// queueing, queue-full rejection, and FIFO admit-on-close, gating the
// PortalAdmissionStats ledger.
//
// Usage: fig9_portal_churn [rounds]   (default 6; ASan CI uses 3)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/cluster/cluster.h"
#include "src/cluster/portal.h"
#include "src/core/libpass.h"
#include "src/util/logging.h"

namespace {

using pass::cluster::ClusterCoordinator;
using pass::cluster::ClusterOptions;
using pass::cluster::PortalHandle;
using pass::cluster::PortalSession;
using pass::cluster::PortalSessionOptions;
using pass::cluster::PortalTier;
using pass::cluster::PortalTierOptions;

// On churn cells with the full cache budget, the whole-cache-flush baseline
// must pay at least this factor more cache misses than the fingerprinted
// sessions.
constexpr double kChurnMissReductionGate = 5.0;

constexpr int kShards = 4;       // chain on 0..2, shard 3 is the churn sink
constexpr int kChainDepth = 36;

// A 4-shard cluster whose lineage chain stripes shards 0..2 only; shard 3
// holds a single /churn file that TouchChurn mutates with fresh annotation
// rows (unique, so ingest's InsertUnique replay-dedup cannot drop them).
struct Fixture {
  Fixture() {
    ClusterOptions options;
    options.shards = kShards;
    cluster = std::make_unique<ClusterCoordinator>(options);
    for (int i = 0; i < kChainDepth; ++i) {
      std::vector<pass::core::ObjectRef> sources;
      if (i > 0) {
        sources.push_back(refs.back());
      }
      auto ref = cluster->WriteWithLineage(
          i % (kShards - 1), "/f" + std::to_string(i), std::string(256, 'd'),
          sources);
      PASS_CHECK(ref.ok());
      refs.push_back(*ref);
    }
    auto churn = cluster->WriteWithLineage(kShards - 1, "/churn",
                                           std::string(64, 'c'), {});
    PASS_CHECK(churn.ok());
    churn_ref = *churn;
    PASS_CHECK(cluster->Sync().ok());
    query =
        "select Ancestor from Provenance.file as F F.input* as Ancestor "
        "where F.name = \"/f" +
        std::to_string(kChainDepth - 1) + "\"";
    auto merged = pass::cluster::MergedRows(*cluster, query);
    PASS_CHECK(merged.ok());
    want = *merged;
  }

  void TouchChurn(int writes) {
    if (writes == 0) {
      return;
    }
    if (!churn_lib) {
      pass::workloads::Machine& m = *&cluster->machine(kShards - 1);
      churn_lib.emplace(m.Lib(m.Spawn("churner")));
    }
    for (int w = 0; w < writes; ++w) {
      PASS_CHECK(churn_lib
                     ->WriteRef(churn_ref,
                                {pass::core::Record::Annotation(
                                    "churn", static_cast<int64_t>(next_id++))})
                     .ok());
    }
    PASS_CHECK(cluster->Sync().ok());
  }

  std::unique_ptr<ClusterCoordinator> cluster;
  std::vector<pass::core::ObjectRef> refs;
  pass::core::ObjectRef churn_ref;
  std::optional<pass::core::LibPass> churn_lib;
  int64_t next_id = 0;
  std::string query;
  std::vector<std::string> want;
};

uint64_t Percentile(std::vector<uint64_t> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

struct CellResult {
  uint64_t fine_hits = 0;  // summed over all sessions, post-warm rounds only
  uint64_t fine_misses = 0;
  uint64_t fine_invalidated = 0;
  uint64_t fine_evictions = 0;
  uint64_t flush_misses = 0;
  uint64_t flush_full = 0;
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
  int sessions = 1;
  bool matches = true;
  double hit_rate() const {
    uint64_t total = fine_hits + fine_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(fine_hits) /
                            static_cast<double>(total);
  }
  // The flush baseline is one portal; fine_misses sums the whole fleet.
  // Compare per session: how many misses the average fingerprinted session
  // pays against the same cadence answered with whole-cache flushing.
  double miss_ratio() const {
    double per_session = static_cast<double>(fine_misses) /
                         static_cast<double>(sessions);
    return static_cast<double>(flush_misses) /
           (per_session < 1.0 ? 1.0 : per_session);
  }
};

// One sweep cell: `sessions` concurrent portal sessions (two tenants,
// alternating) under a tier budget that exactly covers them, `churn_writes`
// rows of foreign ingest per round, and a whole-cache-flush baseline portal
// answering the same cadence for comparison.
CellResult RunCell(int sessions, int churn_writes, size_t cache_bytes,
                   int rounds) {
  Fixture fixture;
  PortalTierOptions tier_options;
  tier_options.total_cache_bytes = sessions * cache_bytes;
  PortalTier tier(fixture.cluster.get(), tier_options);
  std::vector<PortalHandle> handles;
  std::vector<PortalSession*> fleet;
  for (int i = 0; i < sessions; ++i) {
    PortalSessionOptions options;
    options.tenant = "tenant" + std::to_string(i % 2);
    options.cache_bytes = cache_bytes;
    auto session = tier.Open(options);
    PASS_CHECK(session.ok());
    handles.push_back(std::move(*session));
    fleet.push_back(handles.back().get());
  }
  pass::bench::FlushBaseline flush(fixture.cluster.get(), cache_bytes);

  // Warm every cache, then zero the counters: the cell measures the
  // steady-state rounds, not the cold fill.
  for (PortalSession* session : fleet) {
    auto warm = session->Run(fixture.query);
    PASS_CHECK(warm.ok());
    PASS_CHECK(warm->SortedRows() == fixture.want);
    session->source().ResetStats();
  }
  PASS_CHECK(flush.Run(fixture.query).ok());
  flush.ResetStats();

  CellResult out;
  out.sessions = sessions;
  std::vector<uint64_t> latencies;
  latencies.reserve(static_cast<size_t>(sessions) * rounds);
  pass::sim::Env& env = fixture.cluster->env();
  for (int round = 0; round < rounds; ++round) {
    fixture.TouchChurn(churn_writes);
    for (PortalSession* session : fleet) {
      pass::sim::Nanos start = env.clock().now();
      auto result = session->Run(fixture.query);
      latencies.push_back(
          static_cast<uint64_t>(env.clock().now() - start));
      PASS_CHECK(result.ok());
      out.matches = out.matches && result->SortedRows() == fixture.want;
    }
    auto flush_result = flush.Run(fixture.query);
    PASS_CHECK(flush_result.ok());
    out.matches = out.matches && flush_result->SortedRows() == fixture.want;
  }
  for (PortalSession* session : fleet) {
    const auto& stats = session->source().stats();
    out.fine_hits += stats.cache_hits;
    out.fine_misses += stats.cache_misses;
    out.fine_invalidated += stats.cache_entries_invalidated;
    out.fine_evictions += stats.cache_evictions;
  }
  out.flush_misses = flush.misses();
  out.flush_full = flush.full_flushes();
  out.p50_ns = Percentile(latencies, 0.50);
  out.p99_ns = Percentile(latencies, 0.99);
  return out;
}

// Phase 2: two pinned sessions answer across a live migration of a range
// they have cached. The coordinator defers the source-side delete while the
// pins hold (sessions keep routing to the old owner), and RePin releases it.
void RunMigrationPhase(std::string* csv) {
  Fixture fixture;
  PortalTier tier(fixture.cluster.get());
  PortalSessionOptions options;
  options.cache_bytes = 1u << 20;
  options.tenant = "pinned-a";
  auto a = tier.Open(options);
  options.tenant = "pinned-b";
  auto b = tier.Open(options);
  PASS_CHECK(a.ok() && b.ok());
  for (PortalSession* session : {a->get(), b->get()}) {
    auto warm = session->Run(fixture.query);
    PASS_CHECK(warm.ok());
    PASS_CHECK(warm->SortedRows() == fixture.want);
    session->source().ResetStats();
  }

  uint64_t epoch_before = (*a)->pinned_epoch();
  // refs[5] lives on shard 5 % 3 == 2 — remote to portal shard 0, so both
  // sessions hold cache entries for it.
  pass::core::PnodeRange range{fixture.refs[5].pnode,
                               fixture.refs[5].pnode + 1};
  PASS_CHECK(fixture.cluster->MigrateRange(range, kShards - 1).ok());
  size_t deferred_during = fixture.cluster->deferred_retirements();
  PASS_CHECK(deferred_during > 0);

  // Mid-migration: pinned snapshots still route the range to the old owner,
  // whose rows the deferral kept alive — answers must equal merged.
  for (PortalSession* session : {a->get(), b->get()}) {
    auto during = session->Run(fixture.query);
    PASS_CHECK(during.ok());
    PASS_CHECK(during->SortedRows() == fixture.want);
  }

  uint64_t invalidated = 0;
  for (PortalSession* session : {a->get(), b->get()}) {
    session->RePin();
    auto after = session->Run(fixture.query);
    PASS_CHECK(after.ok());
    PASS_CHECK(after->SortedRows() == fixture.want);
    invalidated += session->source().stats().cache_entries_invalidated;
  }
  PASS_CHECK(fixture.cluster->deferred_retirements() == 0);
  uint64_t epoch_after = (*a)->pinned_epoch();
  PASS_CHECK(epoch_after > epoch_before);
  PASS_CHECK(invalidated > 0);

  std::printf("\nmigration: epoch %llu -> %llu, %zu deferred retirement(s) "
              "held for pinned sessions, %llu cache entries dropped on "
              "re-pin, answers == merged throughout\n",
              (unsigned long long)epoch_before,
              (unsigned long long)epoch_after, deferred_during,
              (unsigned long long)invalidated);
  char line[160];
  std::snprintf(line, sizeof(line), "csv,fig9pin,%llu,%llu,%zu,%llu,yes\n",
                (unsigned long long)epoch_before,
                (unsigned long long)epoch_after, deferred_during,
                (unsigned long long)invalidated);
  *csv += line;
}

// Phase 3: admission control. Budget 4 MB, queue depth 2, alice capped at
// 1 MB. Every decision lands in the PortalAdmissionStats ledger.
void RunAdmissionPhase(std::string* csv) {
  Fixture fixture;
  PortalTierOptions options;
  options.total_cache_bytes = 4u << 20;
  options.max_queued = 2;
  PortalTier tier(fixture.cluster.get(), options);
  tier.SetTenantQuota("alice", 1u << 20);

  auto open = [&tier](const std::string& tenant, size_t mb) {
    PortalSessionOptions s;
    s.tenant = tenant;
    s.cache_bytes = mb << 20;
    return tier.Open(s);
  };
  auto alice = open("alice", 1);
  PASS_CHECK(alice.ok());
  PASS_CHECK(open("alice", 1).status().code() == pass::Code::kNoSpace);  // quota
  auto bob = open("bob", 2);
  PASS_CHECK(bob.ok());
  PASS_CHECK(open("carol", 2).status().code() == pass::Code::kUnavailable);  // queued
  PASS_CHECK(open("dave", 2).status().code() == pass::Code::kUnavailable);   // queued
  PASS_CHECK(open("erin", 2).status().code() == pass::Code::kNoSpace);  // queue full
  PASS_CHECK(tier.queued() == 2);

  // bob leaves: carol (queue head) fits and is admitted; dave still waits.
  PASS_CHECK(tier.Close((*bob)->id()).ok());
  PASS_CHECK(tier.open_sessions() == 2);
  PASS_CHECK(tier.queued() == 1);
  PASS_CHECK(tier.tenant_bytes_reserved("carol") == 2u << 20);

  const pass::cluster::PortalAdmissionStats& stats = tier.admission_stats();
  PASS_CHECK(stats.admitted == 3);
  PASS_CHECK(stats.rejected_quota == 1);
  PASS_CHECK(stats.rejected_budget == 1);
  PASS_CHECK(stats.queued == 2);
  PASS_CHECK(stats.admitted_from_queue == 1);

  std::printf("admission: admitted=%llu rejected_quota=%llu "
              "rejected_budget=%llu queued=%llu admitted_from_queue=%llu\n",
              (unsigned long long)stats.admitted,
              (unsigned long long)stats.rejected_quota,
              (unsigned long long)stats.rejected_budget,
              (unsigned long long)stats.queued,
              (unsigned long long)stats.admitted_from_queue);
  char line[120];
  std::snprintf(line, sizeof(line), "csv,fig9admission,%llu,%llu,%llu,%llu,%llu\n",
                (unsigned long long)stats.admitted,
                (unsigned long long)stats.rejected_quota,
                (unsigned long long)stats.rejected_budget,
                (unsigned long long)stats.queued,
                (unsigned long long)stats.admitted_from_queue);
  *csv += line;
}

}  // namespace

int main(int argc, char** argv) {
  int rounds = argc > 1 ? std::atoi(argv[1]) : 6;
  PASS_CHECK(rounds >= 1);

  std::printf("Figure 9: portal tier under concurrent sessions x ingest "
              "churn (%d-deep chain on %d shards, %d rounds)\n",
              kChainDepth, kShards, rounds);
  std::printf("(flush-miss = same rounds answered by a whole-cache-flush "
              "portal — the pre-fingerprint baseline)\n\n");
  std::printf("%8s %6s %9s | %9s %9s %7s %7s %7s | %10s %6s\n", "sessions",
              "churn", "cache-KB", "p50-us", "p99-us", "hit%", "inval",
              "evict", "flush-miss", "ratio");

  std::string csv =
      "csv,fig9,sessions,churn_writes,cache_kb,rounds,p50_us,p99_us,"
      "fine_hits,fine_misses,fine_invalidated,"
      "fine_evictions,flush_misses,flush_full_flushes,hit_rate,miss_ratio,"
      "match\n"
      "csv,fig9pin,epoch_before,epoch_after,deferred_during,"
      "entries_invalidated,match\n"
      "csv,fig9admission,admitted,rejected_quota,rejected_budget,queued,"
      "admitted_from_queue\n";

  const int kSessionCounts[] = {1, 4, 8};
  const int kChurnWrites[] = {0, 8};
  const size_t kCacheBytes[] = {1u << 10, 256u << 10};
  for (int sessions : kSessionCounts) {
    for (int churn : kChurnWrites) {
      for (size_t cache_bytes : kCacheBytes) {
        CellResult cell = RunCell(sessions, churn, cache_bytes, rounds);
        PASS_CHECK(cell.matches);
        if (churn > 0) {
          PASS_CHECK(cell.flush_full > 0);
          if (cache_bytes >= 256u << 10) {
            // The tentpole gate: under steady foreign ingest, per-range
            // invalidation keeps >= 5x more of the cache working than
            // flush-everything.
            PASS_CHECK(cell.miss_ratio() >= kChurnMissReductionGate);
            PASS_CHECK(cell.fine_invalidated <
                       cell.fine_hits + cell.fine_misses);
          }
        }
        std::printf("%8d %6d %9.0f | %9.1f %9.1f %6.1f%% %7llu %7llu | "
                    "%10llu %5.1fx\n",
                    sessions, churn, cache_bytes / 1024.0,
                    cell.p50_ns / 1000.0, cell.p99_ns / 1000.0,
                    100 * cell.hit_rate(),
                    (unsigned long long)cell.fine_invalidated,
                    (unsigned long long)cell.fine_evictions,
                    (unsigned long long)cell.flush_misses,
                    cell.miss_ratio());
        char line[320];
        std::snprintf(
            line, sizeof(line),
            "csv,fig9,%d,%d,%.0f,%d,%.1f,%.1f,%llu,%llu,%llu,%llu,%llu,"
            "%llu,%.3f,%.2f,%s\n",
            sessions, churn, cache_bytes / 1024.0, rounds,
            cell.p50_ns / 1000.0, cell.p99_ns / 1000.0,
            (unsigned long long)cell.fine_hits,
            (unsigned long long)cell.fine_misses,
            (unsigned long long)cell.fine_invalidated,
            (unsigned long long)cell.fine_evictions,
            (unsigned long long)cell.flush_misses,
            (unsigned long long)cell.flush_full, cell.hit_rate(),
            cell.miss_ratio(), cell.matches ? "yes" : "no");
        csv += line;
      }
    }
  }

  RunMigrationPhase(&csv);
  RunAdmissionPhase(&csv);

  std::printf("\n%s", csv.c_str());
  return 0;
}
