#ifndef SRC_CLUSTER_SHARD_MAP_H_
#define SRC_CLUSTER_SHARD_MAP_H_

// ShardMap: the cluster's single pnode → shard routing authority.
//
// The allocator stamps a pnode's minting shard into its top 16 bits; that
// stays the *home* hint. On top of it the ShardMap keeps a versioned table
// of range overrides, so ownership of any [begin, end) slice of a home
// shard's space can be reassigned to another machine (live migration,
// rebalancing) without renumbering a single pnode.
//
// Every ownership decision in the cluster layer — replication routing in
// IngestQueue, query routing in FederatedSource, merge dedup in
// ClusterCoordinator — resolves through OwnerOf() here; nothing else
// decodes the shard bits. The epoch counter bumps on every reassignment;
// portal sessions pin it, and recovery checks its journal replay against it.

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/core/object.h"
#include "src/util/result.h"

namespace pass::cluster {

class ShardMap {
 public:
  explicit ShardMap(int shards) : shards_(shards) {}

  int shard_count() const { return shards_; }

  // Bumped on every successful Assign and restarted by Reset. Portal
  // sessions pin it (ClusterCoordinator::PinEpoch), and recovery checks its
  // journal replay against it. Cached query results do not key off it: the
  // portal cache checks each entry's owner through OwnerOf() on lookup.
  uint64_t epoch() const { return epoch_; }

  // Shard owning `pnode`: an override range if one covers it, the allocator
  // home otherwise; -1 when the pnode lies outside every member's space.
  int OwnerOf(core::PnodeId pnode) const;

  // Allocator home of `pnode` (-1 outside the cluster) — the default owner
  // absent overrides, and where the object physically lives.
  int HomeOf(core::PnodeId pnode) const;

  // Owner of the whole range when uniform; -1 when the range is empty, out
  // of bounds, or split between owners.
  int OwnerOfRange(core::PnodeRange range) const;

  // Reassign `range` to `to_shard`, splitting or absorbing any overlapping
  // overrides, and bump the epoch. The range must be non-empty, lie within
  // a single home shard's space, and name a member shard.
  Status Assign(core::PnodeRange range, int to_shard);

  // Forget every override and restart the epoch at zero. Cluster recovery
  // rebuilds the map of a restarted coordinator by replaying the journaled
  // EPOCH_BUMP history in epoch order (each replayed Assign re-bumps the
  // epoch, so the rebuilt map lands on the journaled epoch exactly).
  void Reset() {
    overrides_.clear();
    epoch_ = 0;
  }

  // Current non-home assignments, begin-ordered, coalesced.
  std::vector<std::pair<core::PnodeRange, int>> Overrides() const;

  // The complete ownership partition: begin-ordered (range, owner) pairs
  // covering every member shard's home space exactly once.
  std::vector<std::pair<core::PnodeRange, int>> Assignments() const;

 private:
  int shards_;
  uint64_t epoch_ = 0;
  // begin -> (end, shard). Invariants: non-overlapping, each range within
  // one home space, shard != home (assigning back home erases the entry).
  std::map<core::PnodeId, std::pair<core::PnodeId, int>> overrides_;
};

}  // namespace pass::cluster

#endif  // SRC_CLUSTER_SHARD_MAP_H_
