#include "src/sim/disk.h"

#include <cmath>

namespace pass::sim {

Nanos Disk::SeekCost(uint64_t from, uint64_t to) const {
  uint64_t distance = from > to ? from - to : to - from;
  if (distance <= params_.near_threshold_bytes) {
    return 0;
  }
  double frac = static_cast<double>(distance) /
                static_cast<double>(params_.capacity_bytes);
  if (frac > 1.0) {
    frac = 1.0;
  }
  // Seek time grows with the square root of distance (arm acceleration).
  double cost = static_cast<double>(params_.full_seek_ns) * std::sqrt(frac);
  return static_cast<Nanos>(cost) + params_.access_overhead_ns;
}

void Disk::Access(uint64_t addr, uint64_t len, bool write) {
  Nanos cost = SeekCost(head_pos_, addr);
  if (cost > 0) {
    ++stats_.seeks;
  }
  cost += static_cast<Nanos>(params_.transfer_ns_per_byte *
                             static_cast<double>(len));
  head_pos_ = addr + len;
  if (write) {
    ++stats_.writes;
    stats_.bytes_written += len;
  } else {
    ++stats_.reads;
  }
  stats_.busy_ns += cost;
  clock_->Advance(cost);
}

void Disk::Sync() {
  stats_.busy_ns += params_.access_overhead_ns;
  clock_->Advance(params_.access_overhead_ns);
}

uint64_t DiskZone::Allocate(uint64_t len) {
  if (size_ == 0) {
    return base_;
  }
  if (next_ + len > size_) {
    next_ = 0;  // wrap: zone reuse
  }
  uint64_t addr = base_ + next_;
  next_ += len;
  return addr;
}

}  // namespace pass::sim
