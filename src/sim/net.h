#ifndef SRC_SIM_NET_H_
#define SRC_SIM_NET_H_

// Network model for PA-NFS: a request/response exchange costs one round-trip
// latency plus serialization time for both payloads. The paper notes (§7)
// that network round trips dominate NFS elapsed time and mask part of the
// provenance overhead; this model reproduces that masking.
//
// RoundTrip charges the caller inline (a blocking RPC). RoundTripAsync
// accounts the same exchange but queues its latency on an AsyncTimeline
// instead of advancing the clock — the pipelined-replication shape, where
// a transfer is in flight while the workload keeps executing and costs
// elapsed time only at a quiesce barrier.

#include <cstdint>

#include "src/sim/clock.h"

namespace pass::sim {

class AsyncTimeline;

struct NetParams {
  Nanos rtt_ns = 200 * kMicro;            // LAN round trip
  double wire_ns_per_byte = 9.0;          // ~1 Gbit/s
};

struct NetStats {
  uint64_t round_trips = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
};

class Network {
 public:
  Network(Clock* clock, NetParams params = NetParams())
      : clock_(clock), params_(params) {}

  // Charge one RPC exchange of `request_bytes` out, `response_bytes` back.
  void RoundTrip(uint64_t request_bytes, uint64_t response_bytes);

  // Account the same exchange, but schedule its latency on `timeline`
  // (bytes and round-trip counters accrue immediately; the clock does not
  // move). Returns the transfer's completion time.
  Nanos RoundTripAsync(AsyncTimeline* timeline, uint64_t request_bytes,
                       uint64_t response_bytes);

  const NetStats& stats() const { return stats_; }

 private:
  Clock* clock_;
  NetParams params_;
  NetStats stats_;
};

}  // namespace pass::sim

#endif  // SRC_SIM_NET_H_
