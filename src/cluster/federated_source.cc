#include "src/cluster/federated_source.h"

#include <cctype>

#include "src/core/object.h"
#include "src/pql/provdb_source.h"
#include "src/util/strings.h"

namespace pass::cluster {
namespace {

// Nominal RPC sizes. A batched lookup ships one header plus one object ref
// per frontier node; responses carry ~16 bytes per result row (edge or
// value) plus a per-node count. Single-node exchanges degenerate to the
// header plus one ref.
constexpr uint64_t kRpcHeaderBytes = 48;
constexpr uint64_t kPerNodeRequestBytes = 16;
constexpr uint64_t kPerRowResponseBytes = 16;

std::string Lower(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

// Wire size of one attribute value (strings dominate).
uint64_t ValueBytes(const pql::Value& value) {
  return kPerRowResponseBytes +
         (value.is_string() ? value.AsString().size() : 0);
}

uint64_t ValueSetBytes(const pql::ValueSet& values) {
  uint64_t bytes = 0;
  for (const pql::Value& value : values) {
    bytes += ValueBytes(value);
  }
  return bytes;
}

}  // namespace

FederatedSource::FederatedSource(std::vector<const waldo::ProvDb*> shards,
                                 sim::Network* net, const ShardMap* map,
                                 int portal_shard, size_t cache_bytes,
                                 obs::Observability* obs)
    : shards_(std::move(shards)),
      net_(net),
      map_(map),
      portal_shard_(portal_shard),
      cache_capacity_(cache_bytes),
      obs_(obs) {
  obs::MetricRegistry& metrics = obs_->metrics();
  root_set_hop_ns_ =
      &metrics.GetHistogram("query.hop_ns", {{"op", "root_set"}});
  follow_hop_ns_ = &metrics.GetHistogram("query.hop_ns", {{"op", "follow"}});
  attribute_hop_ns_ =
      &metrics.GetHistogram("query.hop_ns", {{"op", "attribute"}});
  frontier_nodes_ = &metrics.GetHistogram("query.frontier_nodes");
}

void FederatedSource::RecordHop(obs::Histogram* hop_ns,
                                sim::Nanos start_ns) const {
  hop_ns->Record(obs_->clock()->now() - start_ns);
}

void FederatedSource::ChargeExchange(int shard, uint64_t request_bytes,
                                     uint64_t response_bytes) const {
  if (shard == portal_shard_) {
    ++stats_.local_ops;
    stats_.local_bytes += request_bytes + response_bytes;
  } else {
    ++stats_.remote_ops;
    stats_.remote_request_bytes += request_bytes;
    stats_.remote_response_bytes += response_bytes;
    net_->RoundTrip(request_bytes, response_bytes);
  }
}

const waldo::ProvDb* FederatedSource::Route(core::PnodeId pnode,
                                            uint64_t request_bytes,
                                            uint64_t response_bytes) const {
  int shard = map_->OwnerOf(pnode);
  if (shard < 0 || static_cast<size_t>(shard) >= shards_.size()) {
    return nullptr;
  }
  ChargeExchange(shard, request_bytes, response_bytes);
  return shards_[shard];
}

pql::Node FederatedSource::Latest(const waldo::ProvDb& db,
                                  core::PnodeId pnode) const {
  return pql::Node{pnode, db.LatestVersionOf(pnode)};
}

// ---- Portal result cache ----------------------------------------------------

void FederatedSource::EraseEntry(
    std::map<CacheKey, CacheEntry>::iterator it) const {
  cache_bytes_ -= it->second.bytes;
  lru_.erase(it->second.lru);
  cache_.erase(it);
}

uint32_t FederatedSource::InternAttr(const std::string& attr) const {
  auto [it, inserted] =
      attr_ids_.try_emplace(attr, static_cast<uint32_t>(attr_ids_.size()) + 1);
  return it->second;
}

const FederatedSource::CacheEntry* FederatedSource::CacheLookup(
    const CacheKey& key, int owner) const {
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    return nullptr;
  }
  // The one staleness rule: the entry must come from the pnode's current
  // owner, and the owner's rows in the entry's bucket must not have moved.
  const CacheEntry& entry = it->second;
  if (entry.shard != owner ||
      shards_[owner]->range_mutation_count(key.pnode) != entry.fingerprint) {
    EraseEntry(it);
    ++stats_.cache_entries_invalidated;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru);
  ++stats_.cache_hits;
  return &it->second;
}

void FederatedSource::CacheInsert(CacheKey key, CacheEntry entry,
                                  int shard) const {
  entry.shard = shard;
  entry.fingerprint = shards_[shard]->range_mutation_count(key.pnode);
  entry.bytes = kPerNodeRequestBytes + sizeof(key.attr_id) +
                kPerRowResponseBytes * entry.nodes.size() +
                ValueSetBytes(entry.values);
  if (entry.bytes > cache_capacity_) {
    return;  // would evict everything else without ever fitting
  }
  auto [it, inserted] = cache_.try_emplace(key);
  if (!inserted) {  // same node fetched twice in one frontier
    cache_bytes_ -= it->second.bytes;
    lru_.erase(it->second.lru);
  }
  lru_.push_front(key);
  entry.lru = lru_.begin();
  cache_bytes_ += entry.bytes;
  it->second = std::move(entry);
  while (cache_bytes_ > cache_capacity_) {
    auto victim = cache_.find(lru_.back());
    cache_bytes_ -= victim->second.bytes;
    cache_.erase(victim);
    lru_.pop_back();
    ++stats_.cache_evictions;
  }
}

// ---- GraphSource surface ----------------------------------------------------

std::vector<pql::Node> FederatedSource::RootSet(const std::string& name) const {
  sim::Nanos hop_start = obs_->clock()->now();
  obs::ScopedSpan hop_span(Tracer(), "query.root_set");
  // Scatter-gather: ask every shard for its locally owned members of the
  // root set. Replicated foreign entries are skipped on the replica — the
  // owner reports them — so each object appears exactly once.
  std::string type = name == "object" ? "" : pql::RootSetTypeName(name);
  std::map<core::PnodeId, pql::Node> gathered;  // sorted by pnode
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    obs::ScopedSpan rpc_span(Tracer(), "rpc.root_set",
                             static_cast<int>(shard));
    const waldo::ProvDb* db = shards_[shard];
    std::vector<core::PnodeId> pnodes =
        name == "object" ? db->AllPnodes() : db->PnodesByType(type);
    uint64_t rows = 0;
    for (core::PnodeId pnode : pnodes) {
      // Report only pnodes this shard currently owns: replicated copies are
      // reported by the owner, and rows left by an out-migrated range are
      // reported by the range's new owner.
      if (map_->OwnerOf(pnode) != static_cast<int>(shard)) {
        continue;
      }
      gathered.emplace(pnode, Latest(*db, pnode));
      ++rows;
    }
    ChargeExchange(static_cast<int>(shard), kRpcHeaderBytes,
                   kPerRowResponseBytes * (rows + 1));
  }
  hop_span.End();
  RecordHop(root_set_hop_ns_, hop_start);
  std::vector<pql::Node> out;
  out.reserve(gathered.size());
  for (const auto& [pnode, node] : gathered) {
    out.push_back(node);
  }
  return out;
}

std::vector<pql::ValueSet> FederatedSource::AttributeMany(
    const std::vector<pql::Node>& nodes, const std::string& attr) const {
  std::vector<pql::ValueSet> out(nodes.size());
  sim::Nanos hop_start = obs_->clock()->now();
  obs::ScopedSpan hop_span(Tracer(), "query.attr_hop");
  std::string want = Lower(attr);
  uint32_t attr_id = InternAttr(want);  // once per hop, never per node
  // Virtual and portal-local attributes answer immediately; cached remote
  // ones fill from the cache; the rest group by owning shard.
  std::map<int, std::vector<size_t>> by_shard;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (want == "pnode") {
      out[i].push_back(pql::Value(static_cast<int64_t>(nodes[i].pnode)));
      continue;
    }
    if (want == "version") {
      out[i].push_back(pql::Value(static_cast<int64_t>(nodes[i].version)));
      continue;
    }
    int shard = map_->OwnerOf(nodes[i].pnode);
    if (shard < 0 || static_cast<size_t>(shard) >= shards_.size()) {
      continue;  // no owner: empty attribute set
    }
    if (const CacheEntry* entry = CacheLookup(
            CacheKey{nodes[i].pnode, 0, false, attr_id}, shard)) {
      out[i] = entry->values;
      continue;
    }
    by_shard[shard].push_back(i);
  }
  for (const auto& [shard, indexes] : by_shard) {
    obs::ScopedSpan rpc_span(Tracer(), "rpc.attribute", shard);
    const waldo::ProvDb* db = shards_[shard];
    std::vector<core::PnodeId> pnodes;
    pnodes.reserve(indexes.size());
    for (size_t i : indexes) {
      pnodes.push_back(nodes[i].pnode);
    }
    // One bulk RPC per shard: the owner filters to the requested attribute
    // and returns one value set per node. The serve span parents to this
    // rpc span through the propagated context, the trace-level record of
    // the request crossing the simulated shard boundary.
    obs::TraceCollector* tracer = Tracer();
    obs::ScopedSpan serve_span(tracer, tracer->CurrentContext(),
                               "shard.serve_attribute", shard);
    auto records = db->RecordsOfAllVersionsMany(pnodes);
    serve_span.End();
    uint64_t response_bytes = kPerRowResponseBytes * indexes.size();
    for (size_t j = 0; j < indexes.size(); ++j) {
      pql::ValueSet values;
      for (const core::Record& record : records[j]) {
        if (Lower(pql::AttrQueryName(record)) == want) {
          values.push_back(pql::Value::FromRecordValue(record.value));
        }
      }
      pql::Normalize(&values);
      response_bytes += ValueSetBytes(values);
      if (shard != portal_shard_) {
        ++stats_.cache_misses;
        CacheInsert(CacheKey{pnodes[j], 0, false, attr_id},
                    CacheEntry{{}, values, 0, 0, 0, {}}, shard);
      }
      out[indexes[j]] = std::move(values);
    }
    ChargeExchange(shard,
                   kRpcHeaderBytes + kPerNodeRequestBytes * indexes.size(),
                   response_bytes);
  }
  hop_span.End();
  RecordHop(attribute_hop_ns_, hop_start);
  return out;
}

std::vector<std::vector<pql::Node>> FederatedSource::FollowMany(
    const std::vector<pql::Node>& nodes, const std::string& link,
    bool inverse) const {
  std::vector<std::vector<pql::Node>> out(nodes.size());
  if (link != "input") {
    return out;
  }
  sim::Nanos hop_start = obs_->clock()->now();
  obs::ScopedSpan hop_span(Tracer(), "query.follow_hop");
  frontier_nodes_->Record(nodes.size());
  // Forward edges live with the subject's owner; reverse edges live with
  // the ancestor's owner (the ingest queue replicated them there). Either
  // way the node's own shard has the answer, so the frontier partitions
  // cleanly by owner: one RPC per shard per hop.
  std::map<int, std::vector<size_t>> by_shard;
  for (size_t i = 0; i < nodes.size(); ++i) {
    int shard = map_->OwnerOf(nodes[i].pnode);
    if (shard < 0 || static_cast<size_t>(shard) >= shards_.size()) {
      continue;  // no owner: no edges
    }
    if (const CacheEntry* entry = CacheLookup(
            CacheKey{nodes[i].pnode, nodes[i].version, inverse, 0}, shard)) {
      out[i] = entry->nodes;
      continue;
    }
    by_shard[shard].push_back(i);
  }
  for (const auto& [shard, indexes] : by_shard) {
    obs::ScopedSpan rpc_span(Tracer(), "rpc.follow", shard);
    const waldo::ProvDb* db = shards_[shard];
    std::vector<core::ObjectRef> refs;
    refs.reserve(indexes.size());
    for (size_t i : indexes) {
      refs.push_back(nodes[i]);
    }
    // Context propagated with the frontier RPC: the owning shard's serve
    // span links under this hop even across the simulated boundary.
    obs::TraceCollector* tracer = Tracer();
    obs::ScopedSpan serve_span(tracer, tracer->CurrentContext(),
                               "shard.serve_follow", shard);
    auto results = inverse ? db->OutputsMany(refs) : db->InputsMany(refs);
    serve_span.End();
    uint64_t rows = 0;
    for (size_t j = 0; j < indexes.size(); ++j) {
      rows += results[j].size();
      if (shard != portal_shard_) {
        ++stats_.cache_misses;
        CacheInsert(
            CacheKey{refs[j].pnode, refs[j].version, inverse, 0},
            CacheEntry{results[j], {}, 0, 0, 0, {}}, shard);
      }
      out[indexes[j]] = std::move(results[j]);
    }
    ChargeExchange(shard,
                   kRpcHeaderBytes + kPerNodeRequestBytes * indexes.size(),
                   kPerRowResponseBytes * (rows + indexes.size()));
  }
  hop_span.End();
  RecordHop(follow_hop_ns_, hop_start);
  return out;
}

bool FederatedSource::IsLink(const std::string& name) const {
  return name == "input";
}

std::string FederatedSource::NodeLabel(const pql::Node& node) const {
  // One routed lookup: the owner answers name and (fallback) type in the
  // same RPC, so an unnamed remote node does not cost a second round trip.
  const waldo::ProvDb* db =
      Route(node.pnode, kRpcHeaderBytes, 4 * kPerRowResponseBytes);
  std::string name = db == nullptr ? std::string() : db->NameOf(node.pnode);
  if (name.empty() && db != nullptr) {
    for (const core::Record& record : db->RecordsOfAllVersions(node.pnode)) {
      if (record.attr == core::Attr::kType) {
        name = pql::Value::FromRecordValue(record.value).ToString();
        break;
      }
    }
  }
  if (name.empty()) {
    name = "?";
  }
  return StrFormat("%s [%s]", name.c_str(), node.ToString().c_str());
}

}  // namespace pass::cluster
