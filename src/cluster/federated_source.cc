#include "src/cluster/federated_source.h"

#include <algorithm>
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

// ---- Portal result cache ----------------------------------------------------

size_t FederatedSource::CacheKeyHash::operator()(const CacheKey& key) const {
  constexpr uint64_t kMix = 0x9e3779b97f4a7c15ull;  // 2^64 / golden ratio
  uint64_t h = key.pnode * kMix + key.version;
  h = h * kMix + ((uint64_t{key.attr_id} << 1) | (key.inverse ? 1 : 0));
  return static_cast<size_t>(h ^ (h >> 32));
}

void FederatedSource::Unlink(CacheSlot* slot) const {
  CacheEntry& entry = slot->second;
  (entry.newer != nullptr ? entry.newer->second.older : newest_) = entry.older;
  (entry.older != nullptr ? entry.older->second.newer : oldest_) = entry.newer;
  entry.newer = nullptr;
  entry.older = nullptr;
  cache_bytes_ -= entry.bytes;
}

void FederatedSource::LinkNewest(CacheSlot* slot) const {
  CacheEntry& entry = slot->second;
  entry.newer = nullptr;
  entry.older = newest_;
  (newest_ != nullptr ? newest_->second.newer : oldest_) = slot;
  newest_ = slot;
  cache_bytes_ += entry.bytes;
}

uint32_t FederatedSource::InternAttr(const std::string& attr) const {
  auto lowered = [&](const std::string& lower) {
    return std::equal(lower.begin(), lower.end(), attr.begin(), attr.end(),
                      [](char l, char a) {
                        return l == static_cast<char>(std::tolower(
                                        static_cast<unsigned char>(a)));
                      });
  };
  auto it = std::find_if(attr_names_.begin(), attr_names_.end(), lowered);
  if (it == attr_names_.end()) {
    it = attr_names_.insert(it, Lower(attr));
  }
  return static_cast<uint32_t>(it - attr_names_.begin()) + 1;
}

const FederatedSource::CacheEntry* FederatedSource::CacheLookup(
    const CacheKey& key, int owner) const {
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    return nullptr;
  }
  // The one staleness rule: the entry must come from the pnode's current
  // owner, and no row keyed by the pnode may have changed there since.
  CacheSlot* slot = &*it;
  Unlink(slot);
  const CacheEntry& entry = slot->second;
  if (entry.shard != owner ||
      shards_[owner]->StampOf(key.pnode) != entry.stamp) {
    cache_.erase(it);
    ++stats_.cache_entries_invalidated;
    return nullptr;
  }
  LinkNewest(slot);
  ++stats_.cache_hits;
  return &entry;
}

namespace {

// `*to` = `from`, reusing `to`'s storage; an empty `from` releases it (an
// entry holds edges or values, never both).
template <typename T>
void Refill(std::vector<T>* to, const std::vector<T>& from) {
  if (from.empty()) {
    std::vector<T>().swap(*to);
  } else {
    *to = from;
  }
}

}  // namespace

void FederatedSource::CacheInsert(const CacheKey& key,
                                  const std::vector<pql::Node>& nodes,
                                  const pql::ValueSet& values,
                                  int shard) const {
  uint64_t bytes = kPerNodeRequestBytes + sizeof(key.attr_id) +
                   kPerRowResponseBytes * nodes.size() + ValueSetBytes(values);
  if (bytes > cache_capacity_) {
    return;  // would evict everything else without ever fitting
  }
  CacheSlot* slot = nullptr;
  if (auto it = cache_.find(key); it != cache_.end()) {
    slot = &*it;  // same node fetched twice in one frontier
    Unlink(slot);
  }
  // Victims leave from the least recently used end; the last one's table
  // node takes the new key.
  decltype(cache_)::node_type spare;
  while (cache_bytes_ + bytes > cache_capacity_) {
    CacheSlot* victim = oldest_;
    Unlink(victim);
    spare = cache_.extract(victim->first);
    ++stats_.cache_evictions;
  }
  if (slot == nullptr && spare) {
    spare.key() = key;
    slot = &*cache_.insert(std::move(spare)).position;
  } else if (slot == nullptr) {
    slot = &*cache_.try_emplace(key).first;
  }
  CacheEntry& entry = slot->second;
  Refill(&entry.nodes, nodes);
  Refill(&entry.values, values);
  entry.bytes = bytes;
  entry.shard = shard;
  entry.stamp = shards_[shard]->StampOf(key.pnode);
  LinkNewest(slot);
}

// ---- GraphSource surface ----------------------------------------------------

std::vector<pql::Node> FederatedSource::RootSet(const std::string& name) const {
  sim::Nanos hop_start = obs_->clock()->now();
  obs::ScopedSpan hop_span(Tracer(), "query.root_set");
  // Scatter-gather: ask every shard for its locally owned members of the
  // root set. Replicated foreign entries are skipped on the replica — the
  // owner reports them — so each object appears exactly once.
  std::vector<pql::Node> out;
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    obs::ScopedSpan rpc_span(Tracer(), "rpc.root_set",
                             static_cast<int>(shard));
    uint64_t rows = 0;
    for (const pql::Node& node : pql::RootMembers(*shards_[shard], name)) {
      // Report only pnodes this shard currently owns: replicated copies are
      // reported by the owner, and rows left by an out-migrated range are
      // reported by the range's new owner.
      if (map_->OwnerOf(node.pnode) != static_cast<int>(shard)) {
        continue;
      }
      out.push_back(node);
      ++rows;
    }
    ChargeExchange(static_cast<int>(shard), kRpcHeaderBytes,
                   kPerRowResponseBytes * (rows + 1));
  }
  hop_span.End();
  RecordHop(root_set_hop_ns_, hop_start);
  // One owner per pnode, so the shards' ascending runs hold no duplicate.
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<pql::ValueSet> FederatedSource::AttributeMany(
    const std::vector<pql::Node>& nodes, const std::string& attr) const {
  std::vector<pql::ValueSet> out(nodes.size());
  sim::Nanos hop_start = obs_->clock()->now();
  obs::ScopedSpan hop_span(Tracer(), "query.attr_hop");
  uint32_t attr_id = InternAttr(attr);  // once per hop, never per node
  const std::string& want = attr_names_[attr_id - 1];  // lowercase
  bool virtual_pnode = want == "pnode";
  bool virtual_version = want == "version";
  // Virtual attributes answer immediately; cached remote ones fill from the
  // cache; the rest group by owning shard.
  std::vector<std::vector<size_t>> by_shard(shards_.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (virtual_pnode || virtual_version) {
      out[i].push_back(pql::Value(static_cast<int64_t>(
          virtual_pnode ? nodes[i].pnode : nodes[i].version)));
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
  for (int shard = 0; shard < static_cast<int>(by_shard.size()); ++shard) {
    const std::vector<size_t>& indexes = by_shard[shard];
    if (indexes.empty()) {
      continue;
    }
    obs::ScopedSpan rpc_span(Tracer(), "rpc.attribute", shard);
    std::vector<pql::Node> asked;
    asked.reserve(indexes.size());
    for (size_t i : indexes) {
      asked.push_back(nodes[i]);
    }
    // One bulk RPC per shard: the owner reads only the requested
    // attribute's rows and returns one value set per node. The serve span
    // parents to this rpc span through the propagated context, the
    // trace-level record of the request crossing the simulated shard
    // boundary.
    obs::TraceCollector* tracer = Tracer();
    obs::ScopedSpan serve_span(tracer, tracer->CurrentContext(),
                               "shard.serve_attribute", shard);
    std::vector<pql::ValueSet> values =
        pql::AttributeSets(*shards_[shard], asked, want);
    serve_span.End();
    uint64_t response_bytes = kPerRowResponseBytes * indexes.size();
    for (size_t j = 0; j < indexes.size(); ++j) {
      response_bytes += ValueSetBytes(values[j]);
      if (shard != portal_shard_) {
        ++stats_.cache_misses;
        CacheInsert(CacheKey{asked[j].pnode, 0, false, attr_id}, {},
                    values[j], shard);
      }
      out[indexes[j]] = std::move(values[j]);
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
  std::vector<std::vector<size_t>> by_shard(shards_.size());
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
  for (int shard = 0; shard < static_cast<int>(by_shard.size()); ++shard) {
    const std::vector<size_t>& indexes = by_shard[shard];
    if (indexes.empty()) {
      continue;
    }
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
        CacheInsert(CacheKey{refs[j].pnode, refs[j].version, inverse, 0},
                    results[j], {}, shard);
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
  if (db == nullptr) {
    return StrFormat("? [%s]", node.ToString().c_str());
  }
  return pql::NodeLabelOf(*db, node);
}

}  // namespace pass::cluster
