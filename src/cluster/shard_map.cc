#include "src/cluster/shard_map.h"

namespace pass::cluster {

int ShardMap::HomeOf(core::PnodeId pnode) const {
  auto home = static_cast<int>(core::PnodeShard(pnode));
  return home < shards_ ? home : -1;
}

int ShardMap::OwnerOf(core::PnodeId pnode) const {
  int home = HomeOf(pnode);
  if (home < 0) {
    return -1;
  }
  auto it = overrides_.upper_bound(pnode);
  if (it != overrides_.begin()) {
    --it;
    if (pnode < it->second.first) {
      return it->second.second;
    }
  }
  return home;
}

int ShardMap::OwnerOfRange(core::PnodeRange range) const {
  if (range.empty()) {
    return -1;
  }
  // Walk the range one ownership segment at a time: ownership can only
  // change at an override begin, an override end, or a home-space boundary.
  int owner = -1;
  core::PnodeId cursor = range.begin;
  while (cursor < range.end) {
    int segment_owner = OwnerOf(cursor);
    if (segment_owner < 0 || (owner >= 0 && segment_owner != owner)) {
      return -1;
    }
    owner = segment_owner;
    core::PnodeId next = core::ShardSpace(core::PnodeShard(cursor)).end;
    auto it = overrides_.upper_bound(cursor);
    if (it != overrides_.begin()) {
      auto covering = std::prev(it);
      if (cursor < covering->second.first && covering->second.first < next) {
        next = covering->second.first;
      }
    }
    if (it != overrides_.end() && it->first < next) {
      next = it->first;
    }
    if (next <= cursor) {
      break;  // top home space: ShardSpace end wrapped around
    }
    cursor = next;
  }
  return owner;
}

Status ShardMap::Assign(core::PnodeRange range, int to_shard) {
  if (range.empty()) {
    return InvalidArgument("shard_map: empty range");
  }
  if (to_shard < 0 || to_shard >= shards_) {
    return InvalidArgument("shard_map: destination is not a cluster member");
  }
  int home = HomeOf(range.begin);
  if (home < 0 || core::PnodeShard(range.begin) != core::PnodeShard(range.end - 1)) {
    return InvalidArgument("shard_map: range must lie in one home space");
  }

  // Splice the range out of any overlapping overrides. An override starting
  // before the range and reaching into it is trimmed (and its tail past the
  // range re-added); overrides starting inside the range are consumed.
  auto it = overrides_.lower_bound(range.begin);
  if (it != overrides_.begin()) {
    auto prev = std::prev(it);
    if (prev->second.first > range.begin) {
      core::PnodeId prev_end = prev->second.first;
      int prev_shard = prev->second.second;
      prev->second.first = range.begin;
      if (prev_end > range.end) {
        overrides_.emplace(range.end, std::make_pair(prev_end, prev_shard));
      }
    }
  }
  it = overrides_.lower_bound(range.begin);
  while (it != overrides_.end() && it->first < range.end) {
    core::PnodeId end = it->second.first;
    int shard = it->second.second;
    it = overrides_.erase(it);
    if (end > range.end) {
      overrides_.emplace(range.end, std::make_pair(end, shard));
      break;
    }
  }

  if (to_shard != home) {
    auto inserted =
        overrides_.emplace(range.begin, std::make_pair(range.end, to_shard))
            .first;
    // Coalesce with adjacent overrides to the same shard.
    auto next = std::next(inserted);
    if (next != overrides_.end() && next->first == inserted->second.first &&
        next->second.second == to_shard &&
        core::PnodeShard(next->first) == core::PnodeShard(range.begin)) {
      inserted->second.first = next->second.first;
      overrides_.erase(next);
    }
    if (inserted != overrides_.begin()) {
      auto prev = std::prev(inserted);
      if (prev->second.first == inserted->first &&
          prev->second.second == to_shard &&
          core::PnodeShard(prev->first) == core::PnodeShard(range.begin)) {
        prev->second.first = inserted->second.first;
        overrides_.erase(inserted);
      }
    }
  }
  ++epoch_;
  return Status::Ok();
}

std::vector<std::pair<core::PnodeRange, int>> ShardMap::Overrides() const {
  std::vector<std::pair<core::PnodeRange, int>> out;
  out.reserve(overrides_.size());
  for (const auto& [begin, entry] : overrides_) {
    out.push_back({core::PnodeRange{begin, entry.first}, entry.second});
  }
  return out;
}

std::vector<std::pair<core::PnodeRange, int>> ShardMap::Assignments() const {
  std::vector<std::pair<core::PnodeRange, int>> out;
  for (int shard = 0; shard < shards_; ++shard) {
    core::PnodeRange space = core::ShardSpace(static_cast<uint16_t>(shard));
    core::PnodeId cursor = space.begin;
    for (auto it = overrides_.lower_bound(space.begin);
         it != overrides_.end() && it->first < space.end; ++it) {
      if (it->first > cursor) {
        out.push_back({core::PnodeRange{cursor, it->first}, shard});
      }
      out.push_back(
          {core::PnodeRange{it->first, it->second.first}, it->second.second});
      cursor = it->second.first;
    }
    if (cursor < space.end) {
      out.push_back({core::PnodeRange{cursor, space.end}, shard});
    }
  }
  return out;
}

}  // namespace pass::cluster
