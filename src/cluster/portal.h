#ifndef SRC_CLUSTER_PORTAL_H_
#define SRC_CLUSTER_PORTAL_H_

// PortalTier: the multi-tenant query tier over one cluster.
//
// One FederatedSource is a single caller's portal. This layer makes the
// query side look like something many users hit at once: a tier owns N
// concurrent PortalSessions over one ClusterCoordinator, each with its own
// result cache carved out of a shared byte budget.
//
//   * Epoch-pinned sessions. A session captures a ShardMap snapshot and the
//     per-shard journal horizons (records appended) when it opens, pins
//     that epoch at the coordinator, and answers every query through the
//     snapshot — so a migration or rebalance mid-session never changes
//     where the session routes. The coordinator keeps the source shard of
//     a migrated range answering for pinned sessions by deferring the
//     source-side delete until the last pre-bump pin releases (see
//     ClusterCoordinator::PinEpoch), so a pinned session's answers still
//     equal the merged database. RePin() re-captures the live map, releases
//     the old pin, and lets deferred retirements run. Pinning freezes
//     routing, not time: for ranges whose owner is unchanged since the
//     pin, new data still reaches the session (its cache revalidates
//     per-range fingerprints against the live shard databases like any
//     portal). Ingest into a range migrated *after* the pin, however,
//     lands on the new owner while the session keeps reading the deferred
//     source copy — so session == merged database holds only absent ingest
//     into ranges migrated while the pin is held; RePin() catches the
//     session up.
//
//   * Per-tenant budgets + admission control. The tier has a total cache
//     byte budget; each tenant can be capped by a quota. Opening a session
//     reserves its cache bytes: a tenant over quota is rejected outright,
//     a request over the tier budget is queued (FIFO, bounded) and admitted
//     when a session closes, or rejected when the queue is full. One hot
//     tenant can therefore never evict another tenant's cache — sessions
//     own disjoint reservations. PortalAdmissionStats accounts every
//     decision.
//
// Limitation: pins do not survive a coordinator crash — Recover() forgets
// them and rolls deferred deletes forward, so sessions opened before a
// crash must be re-opened (their snapshots may route to shards that no
// longer hold their ranges).

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/federated_source.h"
#include "src/cluster/shard_map.h"
#include "src/pql/eval.h"
#include "src/util/result.h"

namespace pass::cluster {

struct PortalSessionOptions {
  std::string tenant = "default";
  size_t cache_bytes = 1u << 20;  // reserved against tier budget + quota
  int portal_shard = 0;
};

class PortalSession {
 public:
  // Opens pinned to the coordinator's current epoch. Sessions are normally
  // opened through PortalTier::Open (which enforces budgets); constructing
  // one directly is an unmetered session.
  PortalSession(ClusterCoordinator* cluster, uint64_t id,
                PortalSessionOptions options);
  ~PortalSession();

  // The pinned ShardMap snapshot lives in this object and the session's
  // FederatedSource points at it, so sessions never move.
  PortalSession(const PortalSession&) = delete;
  PortalSession& operator=(const PortalSession&) = delete;

  // Run one PQL query through the epoch-pinned source. Takes the cluster
  // Quiesce() barrier first (like ClusterCoordinator::Source) and records
  // the query's sim-time latency into "portal.query_ns"{tenant=...}.
  // QueryOptions are honored in full: limits bound the evaluation,
  // Consistency::kFresh re-pins to the live ShardMap first
  // (read-your-writes across migrations; kDefault/kPinnedEpoch answer from
  // the session's pinned snapshot), and a non-empty trace_label is added
  // to the latency histogram's labels.
  Result<pql::QueryResult> Run(std::string_view query,
                               const pql::QueryOptions& options = {});

  // Re-capture the live ShardMap + journal horizons and move the epoch pin
  // forward, releasing any migration retirements the old pin blocked. The
  // cache survives: entries in ranges the epoch history reassigned are
  // dropped by the source's own validation, the rest stay warm.
  void RePin();

  uint64_t id() const { return id_; }
  const std::string& tenant() const { return options_.tenant; }
  size_t cache_bytes() const { return options_.cache_bytes; }
  uint64_t pinned_epoch() const { return pinned_epoch_; }
  // ClusterJournal::records_appended() per shard at the last (re-)pin: the
  // durable horizon this session's snapshot corresponds to.
  const std::vector<uint64_t>& journal_horizons() const { return horizons_; }
  FederatedSource& source() { return *source_; }
  const FederatedSource& source() const { return *source_; }

 private:
  ClusterCoordinator* cluster_;
  uint64_t id_;
  PortalSessionOptions options_;
  ShardMap pinned_map_;  // snapshot; source_ routes through this
  std::vector<uint64_t> horizons_;
  uint64_t pinned_epoch_ = 0;
  std::optional<FederatedSource> source_;  // built after pinned_map_
};

class PortalTier;

// RAII handle to a tier-owned session: Close() (or destruction) releases
// the session's cache reservation and admits queued requests, exactly once
// — the double-Close footgun the raw-pointer surface had is structurally
// gone. Move-only; the tier still owns the PortalSession storage.
class PortalHandle {
 public:
  PortalHandle() = default;
  PortalHandle(PortalTier* tier, uint64_t id) : tier_(tier), id_(id) {}
  ~PortalHandle() { Close(); }

  PortalHandle(PortalHandle&& other) noexcept { *this = std::move(other); }
  PortalHandle& operator=(PortalHandle&& other) noexcept {
    if (this != &other) {
      Close();
      tier_ = other.tier_;
      id_ = other.id_;
      other.tier_ = nullptr;
      other.id_ = 0;
    }
    return *this;
  }
  PortalHandle(const PortalHandle&) = delete;
  PortalHandle& operator=(const PortalHandle&) = delete;

  // Close the session now (idempotent; the destructor calls this).
  void Close();

  // The underlying session; null after Close (or on a default handle).
  PortalSession* get() const;
  PortalSession* operator->() const { return get(); }
  PortalSession& operator*() const { return *get(); }
  explicit operator bool() const { return get() != nullptr; }

  uint64_t id() const { return id_; }

 private:
  PortalTier* tier_ = nullptr;
  uint64_t id_ = 0;
};

struct PortalTierOptions {
  size_t total_cache_bytes = 8u << 20;  // shared across all sessions
  size_t max_queued = 8;                // admission queue depth (0: reject)
};

struct PortalAdmissionStats {
  uint64_t admitted = 0;             // sessions opened (either path)
  uint64_t rejected_quota = 0;       // tenant quota would be exceeded
  uint64_t rejected_budget = 0;      // tier budget exhausted, queue full
  uint64_t queued = 0;               // parked awaiting a close
  uint64_t admitted_from_queue = 0;  // of `admitted`, via the queue
};

class PortalTier {
 public:
  explicit PortalTier(ClusterCoordinator* cluster,
                      PortalTierOptions options = PortalTierOptions());

  // Cap `tenant`'s total reserved cache bytes (default: the tier budget).
  void SetTenantQuota(const std::string& tenant, size_t bytes);

  // Admit a session, reserving options.cache_bytes. Over tenant quota:
  // NoSpace (queueing cannot help — the tenant itself holds the bytes).
  // Over tier budget: Unavailable and the request parks in the FIFO queue
  // (admitted automatically by Close), or NoSpace when the queue is full.
  // The session storage stays owned by the tier; the returned handle closes
  // it on destruction (sessions admitted later *from the queue* have no
  // handle holder yet — they are reachable through session()/sessions()).
  Result<PortalHandle> Open(PortalSessionOptions options =
                                PortalSessionOptions());

  // Close (and destroy) a session, release its reservation, and admit
  // queued requests that now fit.
  Status Close(uint64_t session_id);

  PortalSession* session(uint64_t id);
  std::vector<PortalSession*> sessions();
  size_t open_sessions() const { return sessions_.size(); }
  size_t queued() const { return queue_.size(); }
  size_t bytes_reserved() const { return reserved_; }
  size_t tenant_bytes_reserved(const std::string& tenant) const;
  const PortalAdmissionStats& admission_stats() const { return stats_; }

 private:
  size_t QuotaOf(const std::string& tenant) const;
  PortalSession* Admit(PortalSessionOptions options);

  ClusterCoordinator* cluster_;
  PortalTierOptions options_;
  uint64_t next_id_ = 1;
  std::map<uint64_t, std::unique_ptr<PortalSession>> sessions_;
  std::map<std::string, size_t> quotas_;
  std::map<std::string, size_t> reserved_by_tenant_;
  size_t reserved_ = 0;
  std::deque<PortalSessionOptions> queue_;
  PortalAdmissionStats stats_;
};

}  // namespace pass::cluster

#endif  // SRC_CLUSTER_PORTAL_H_
