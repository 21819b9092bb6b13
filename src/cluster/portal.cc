#include "src/cluster/portal.h"

#include <utility>

#include "src/obs/trace.h"

namespace pass::cluster {

// ---- PortalSession ----------------------------------------------------------

PortalSession::PortalSession(ClusterCoordinator* cluster, uint64_t id,
                             PortalSessionOptions options)
    : cluster_(cluster),
      id_(id),
      options_(std::move(options)),
      pinned_map_(cluster->shard_map()) {
  pinned_epoch_ = pinned_map_.epoch();
  cluster_->PinEpoch(pinned_epoch_);
  source_.emplace(cluster_->shard_dbs(), &cluster_->network(), &pinned_map_,
                  options_.portal_shard, options_.cache_bytes,
                  &cluster_->env().obs());
}

PortalSession::~PortalSession() {
  // Releasing the pin may retire migrations this session was holding open.
  cluster_->UnpinEpoch(pinned_epoch_);
}

Result<pql::QueryResult> PortalSession::Run(std::string_view query,
                                            const pql::QueryOptions& options) {
  if (options.consistency == pql::Consistency::kFresh) {
    // Read-your-writes: catch the snapshot up to the live ShardMap before
    // answering, so ingest into ranges migrated since the pin is visible.
    RePin();
  }
  cluster_->Quiesce();
  obs::ScopedSpan span(&cluster_->env().obs().trace(), "portal.query",
                       options_.portal_shard);
  sim::Nanos start = cluster_->env().clock().now();
  pql::Engine engine(&*source_, options);
  Result<pql::QueryResult> result = engine.Run(query, options);
  obs::Labels labels{{"tenant", options_.tenant}};
  if (!options.trace_label.empty()) {
    labels.emplace_back("label", options.trace_label);
  }
  cluster_->env()
      .obs()
      .metrics()
      .GetHistogram("portal.query_ns", labels)
      .Record(cluster_->env().clock().now() - start);
  return result;
}

void PortalSession::RePin() {
  uint64_t old_epoch = pinned_epoch_;
  // The source keeps routing through pinned_map_, so its cache sees the new
  // owners on the next probe and keeps every entry whose owner is unchanged.
  pinned_map_ = cluster_->shard_map();
  pinned_epoch_ = pinned_map_.epoch();
  cluster_->PinEpoch(pinned_epoch_);
  // Unpin last: the new pin is already in place, so the coordinator never
  // sees this session unpinned (no retirement window races past it).
  cluster_->UnpinEpoch(old_epoch);
  cluster_->env().obs().metrics().GetCounter("portal.repins").Add();
}

// ---- PortalHandle -----------------------------------------------------------

void PortalHandle::Close() {
  if (tier_ == nullptr) {
    return;
  }
  // The session may already be gone (tier torn down first, or closed by id
  // through the tier); Close(id) returning NotFound is harmless here.
  (void)tier_->Close(id_);
  tier_ = nullptr;
  id_ = 0;
}

PortalSession* PortalHandle::get() const {
  return tier_ == nullptr ? nullptr : tier_->session(id_);
}

// ---- PortalTier -------------------------------------------------------------

PortalTier::PortalTier(ClusterCoordinator* cluster, PortalTierOptions options)
    : cluster_(cluster), options_(options) {}

void PortalTier::SetTenantQuota(const std::string& tenant, size_t bytes) {
  quotas_[tenant] = bytes;
}

size_t PortalTier::QuotaOf(const std::string& tenant) const {
  auto it = quotas_.find(tenant);
  return it == quotas_.end() ? options_.total_cache_bytes : it->second;
}

PortalSession* PortalTier::Admit(PortalSessionOptions options) {
  reserved_ += options.cache_bytes;
  reserved_by_tenant_[options.tenant] += options.cache_bytes;
  uint64_t id = next_id_++;
  auto session =
      std::make_unique<PortalSession>(cluster_, id, std::move(options));
  PortalSession* raw = session.get();
  sessions_.emplace(id, std::move(session));
  ++stats_.admitted;
  return raw;
}

Result<PortalHandle> PortalTier::Open(PortalSessionOptions options) {
  if (tenant_bytes_reserved(options.tenant) + options.cache_bytes >
      QuotaOf(options.tenant)) {
    ++stats_.rejected_quota;
    return NoSpace("tenant '" + options.tenant + "' over cache quota");
  }
  if (reserved_ + options.cache_bytes > options_.total_cache_bytes) {
    if (queue_.size() < options_.max_queued) {
      ++stats_.queued;
      queue_.push_back(std::move(options));
      return Unavailable("portal budget exhausted: request queued");
    }
    ++stats_.rejected_budget;
    return NoSpace("portal budget exhausted and queue full");
  }
  return PortalHandle(this, Admit(std::move(options))->id());
}

Status PortalTier::Close(uint64_t session_id) {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return NotFound("no such portal session");
  }
  reserved_ -= it->second->cache_bytes();
  // Two 0-byte sessions of one tenant: closing the first erases the entry
  // at zero, so the second close finds nothing left to release.
  auto tenant_it = reserved_by_tenant_.find(it->second->tenant());
  if (tenant_it != reserved_by_tenant_.end()) {
    tenant_it->second -= it->second->cache_bytes();
    if (tenant_it->second == 0) {
      reserved_by_tenant_.erase(tenant_it);
    }
  }
  sessions_.erase(it);  // dtor unpins; may trigger deferred retirements

  // Drain the queue FIFO, admitting whatever now fits. Quotas are
  // re-checked at admit time (the tenant's picture may have changed while
  // the request waited); a request its quota now forbids is dropped as
  // rejected rather than parked forever at the head of the line.
  while (!queue_.empty()) {
    PortalSessionOptions& head = queue_.front();
    if (reserved_ + head.cache_bytes > options_.total_cache_bytes) {
      break;
    }
    if (tenant_bytes_reserved(head.tenant) + head.cache_bytes >
        QuotaOf(head.tenant)) {
      ++stats_.rejected_quota;
      queue_.pop_front();
      continue;
    }
    Admit(std::move(head));
    queue_.pop_front();
    ++stats_.admitted_from_queue;
  }
  return Status::Ok();
}

PortalSession* PortalTier::session(uint64_t id) {
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

std::vector<PortalSession*> PortalTier::sessions() {
  std::vector<PortalSession*> out;
  out.reserve(sessions_.size());
  for (auto& [id, session] : sessions_) {
    out.push_back(session.get());
  }
  return out;
}

size_t PortalTier::tenant_bytes_reserved(const std::string& tenant) const {
  auto it = reserved_by_tenant_.find(tenant);
  return it == reserved_by_tenant_.end() ? 0 : it->second;
}

}  // namespace pass::cluster
