#ifndef SRC_CLUSTER_FEDERATED_SOURCE_H_
#define SRC_CLUSTER_FEDERATED_SOURCE_H_

// FederatedSource: a pql::GraphSource over a sharded cluster.
//
// The query portal runs on one shard. Every graph operation is routed to
// the shard owning the pnode it touches, resolved through the borrowed
// *live* ShardMap — so a source created before a range migration keeps
// routing correctly after it. Operations against a remote shard charge
// sim::Network round trips, so PQL queries spanning shards accumulate
// realistic network cost. Root-set construction is a scatter-gather over
// every shard: each reports the members it owns, and the portal sorts them
// into one vector in pnode order. A node's attributes are read on its owner
// through ProvDb::AttributeValuesMany, which keeps only the asked
// attribute's rows, by the one rule pql::ProvDbSource reads with too.
//
// Two mechanisms keep a closure query from paying one round trip per node:
//
//   * Frontier shipping: the evaluator traverses level-synchronously and
//     hands whole frontiers to FollowMany/AttributeMany; the portal groups
//     each frontier by owning shard and ships ONE RPC per shard per hop,
//     answered by ProvDb's bulk lookups.
//
//   * A portal result cache: a byte-bounded LRU over per-node edge lists
//     and attribute sets, so overlapping traversals fetch each node once.
//     It is one hash table keyed by (pnode, version, direction, attribute);
//     each entry carries its own links in the LRU order, and an eviction's
//     table node is reused for the entry that caused it. Each entry
//     remembers the shard it was filled from and that shard's
//     change stamp for the entry's pnode (ProvDb::StampOf). One rule decides
//     staleness, on lookup: an entry is served only if its shard is still
//     the pnode's owner under the map and the pnode's stamp there is
//     unchanged; otherwise it is dropped. A node's answer is read only from
//     its owner's rows keyed by that pnode, so a served entry equals a fresh
//     read after any migration, migrate-back, deferred delete or Recover()
//     rebuild of the map. Ingest keyed by other pnodes, on shard 3 or right
//     beside a cached pnode, evicts nothing, and a migration drops only the
//     entries whose owner changed.
//
// Provided the cross-shard ingest queue has replicated foreign-subject
// records and foreign-ancestor edges (see src/cluster/ingest.h), a query
// evaluated here returns exactly what it would over a single ProvDb holding
// every shard's entries.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/cluster/shard_map.h"
#include "src/obs/obs.h"
#include "src/pql/graph.h"
#include "src/sim/net.h"
#include "src/waldo/provdb.h"

namespace pass::cluster {

struct FederatedStats {
  uint64_t local_ops = 0;   // lookups served by the portal shard
  uint64_t remote_ops = 0;  // RPCs sent over the network (one RTT each)
  // Byte accounting, local vs remote: remote bytes are what Route() charges
  // the network; local bytes are the same payloads served portal-side for
  // free (no RTT, no wire time).
  uint64_t remote_request_bytes = 0;
  uint64_t remote_response_bytes = 0;
  uint64_t local_bytes = 0;
  // Portal result cache counters. A "hit" answers one node's lookup with no
  // shard traffic at all.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  // Entries a lookup found stale and dropped: their pnode changed owner or
  // its stamp moved on the owner.
  uint64_t cache_entries_invalidated = 0;
};

class FederatedSource : public pql::GraphSource {
 public:
  static constexpr size_t kDefaultCacheBytes = 1u << 20;

  // `cache_bytes` bounds the portal result cache (0 disables caching).
  // `obs` (borrowed, non-null) records query spans and hop latency
  // histograms; every caller wires the cluster Env's plane.
  FederatedSource(std::vector<const waldo::ProvDb*> shards, sim::Network* net,
                  const ShardMap* map, int portal_shard, size_t cache_bytes,
                  obs::Observability* obs);

  // Movable but not copyable: cache entries link to each other by pointers
  // to cache_'s elements, which a move hands over in place (an
  // unordered_map's move keeps its nodes), but a copy's links would point
  // into the original.
  FederatedSource(FederatedSource&&) = default;
  FederatedSource& operator=(FederatedSource&&) = default;
  FederatedSource(const FederatedSource&) = delete;
  FederatedSource& operator=(const FederatedSource&) = delete;

  std::vector<pql::Node> RootSet(const std::string& name) const override;
  // Single-node Follow/Attribute come from GraphSource's defaulted wrappers
  // (a frontier of one through the batched core below).
  std::vector<std::vector<pql::Node>> FollowMany(
      const std::vector<pql::Node>& nodes, const std::string& link,
      bool inverse) const override;
  std::vector<pql::ValueSet> AttributeMany(
      const std::vector<pql::Node>& nodes,
      const std::string& attr) const override;
  bool IsLink(const std::string& name) const override;
  std::string NodeLabel(const pql::Node& node) const override;

  const FederatedStats& stats() const { return stats_; }
  // Zero the counters so benches can measure phases (the cache itself is
  // untouched — only the counters reset, so a warm-cache phase reports
  // pure-hit numbers).
  void ResetStats() { stats_ = FederatedStats(); }
  size_t cache_bytes_used() const { return cache_bytes_; }

 private:
  friend class FederatedSourceTestPeer;  // zero-alloc probe assertions

  // One cached lookup result: the edge list of (pnode, version, direction)
  // or the attribute set of (pnode, attr). Attribute names are interned to
  // small ids (InternAttr) so building a probe key on the lookup hot path
  // never allocates.
  struct CacheKey {
    core::PnodeId pnode = 0;
    core::Version version = 0;  // 0 for attribute entries (object-level)
    bool inverse = false;
    uint32_t attr_id = 0;  // 0 for edge entries; interned attr otherwise
    bool operator==(const CacheKey&) const = default;
  };
  struct CacheKeyHash {
    size_t operator()(const CacheKey& key) const;
  };
  struct CacheEntry;
  // One element of the cache table: an entry under its key.
  using CacheSlot = std::pair<const CacheKey, CacheEntry>;
  struct CacheEntry {
    std::vector<pql::Node> nodes;
    pql::ValueSet values;
    uint64_t bytes = 0;
    // Provenance of the entry itself: the shard it was fetched from and
    // the pnode's stamp there at fill time. A lookup compares the shard
    // with the pnode's current owner and re-reads the stamp — cheap,
    // allocation-free, and local to the entry's own pnode.
    int shard = 0;
    uint64_t stamp = 0;
    // Neighbours in the LRU order: `newer` was used more recently.
    CacheSlot* newer = nullptr;
    CacheSlot* older = nullptr;
  };

  // Database owning `pnode` per the ShardMap, charging a round trip when
  // remote; null when the pnode maps to no cluster member.
  const waldo::ProvDb* Route(core::PnodeId pnode, uint64_t request_bytes,
                             uint64_t response_bytes) const;
  // Account one request/response exchange with `shard` (network-charged
  // when remote, free when it is the portal).
  void ChargeExchange(int shard, uint64_t request_bytes,
                      uint64_t response_bytes) const;

  obs::TraceCollector* Tracer() const { return &obs_->trace(); }
  // Record one hop's sim-clock latency into its "query.hop_ns"{op=...}
  // series.
  void RecordHop(obs::Histogram* hop_ns, sim::Nanos start_ns) const;

  // Small-id intern table for attribute names, matched ignoring ASCII
  // case; ids count from 1 in first-seen order. Allocation happens only the
  // first time a name is seen, never on a probe.
  uint32_t InternAttr(const std::string& attr) const;
  // The cached entry for `key` if it was filled from `owner` (the pnode's
  // current owner under the map) and the pnode's stamp on `owner` has not
  // moved since; otherwise drops any entry and returns null.
  const CacheEntry* CacheLookup(const CacheKey& key, int owner) const;
  // Caches `nodes` (an edge entry) or `values` (an attribute entry) for
  // `key`, as read from `shard`: replaces any entry for `key`, then evicts
  // from the least recently used end until the new entry fits.
  void CacheInsert(const CacheKey& key, const std::vector<pql::Node>& nodes,
                   const pql::ValueSet& values, int shard) const;
  // Take `slot` out of / put it at the most recently used end of the LRU
  // order; cache_bytes_ counts exactly the linked entries.
  void Unlink(CacheSlot* slot) const;
  void LinkNewest(CacheSlot* slot) const;

  std::vector<const waldo::ProvDb*> shards_;
  sim::Network* net_;
  const ShardMap* map_;
  int portal_shard_;
  size_t cache_capacity_;
  obs::Observability* obs_ = nullptr;
  // Registry series, resolved once at construction.
  obs::Histogram* root_set_hop_ns_ = nullptr;
  obs::Histogram* follow_hop_ns_ = nullptr;
  obs::Histogram* attribute_hop_ns_ = nullptr;
  obs::Histogram* frontier_nodes_ = nullptr;
  mutable FederatedStats stats_;
  mutable std::unordered_map<CacheKey, CacheEntry, CacheKeyHash> cache_;
  // The ends of the LRU order (null when the cache is empty).
  mutable CacheSlot* newest_ = nullptr;
  mutable CacheSlot* oldest_ = nullptr;
  // Interned attribute names, lowercase: id i names attr_names_[i - 1].
  mutable std::vector<std::string> attr_names_;
  mutable size_t cache_bytes_ = 0;
};

}  // namespace pass::cluster

#endif  // SRC_CLUSTER_FEDERATED_SOURCE_H_
