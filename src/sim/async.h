#ifndef SRC_SIM_ASYNC_H_
#define SRC_SIM_ASYNC_H_

// Async-completion timeline: pending background work that overlaps the
// foreground clock.
//
// The simulation normally charges a cost by advancing the one shared clock,
// which models an operation that blocks its caller. Pipelined replication
// needs the other shape: a transfer that is *in flight* while the workload
// keeps executing, costing elapsed time only where nothing else covers it.
//
// AsyncTimeline models one serialized background channel (a replication
// stream). Schedule(cost) queues work that begins when the channel frees up
// (or now, if idle) and returns its completion time without touching the
// clock. Foreground execution then advances the clock past those completion
// times for free — that is the overlap — and only a quiesce barrier
// (Drain) or a bounded-in-flight backpressure wait (WaitForSlot) advances
// the clock to a completion point, charging exactly the remainder the
// foreground did not cover. After a crash the channel's pending work simply
// vanishes (Reset): like any volatile state, it is the journal's job — not
// the timeline's — to make the lost transfers happen again.

#include <cstddef>
#include <cstdint>
#include <deque>

#include "src/sim/clock.h"

namespace pass::sim {

struct AsyncStats {
  Nanos busy_ns = 0;       // total background channel work scheduled
  Nanos exposed_ns = 0;    // clock actually charged at barriers and waits
  uint64_t drains = 0;     // quiesce barriers taken
  uint64_t waits = 0;      // backpressure waits that had to block

  // Fraction of background work hidden behind foreground execution
  // (1 when the channel never had to be waited for).
  double overlap_fraction() const {
    return busy_ns == 0 ? 1.0
                        : 1.0 - static_cast<double>(exposed_ns) /
                                    static_cast<double>(busy_ns);
  }
};

class AsyncTimeline {
 public:
  explicit AsyncTimeline(Clock* clock) : clock_(clock) {}

  // Queue `cost_ns` of work on the channel: it begins at max(now, channel
  // free) and completes cost_ns later. Returns the completion time; the
  // clock does not move.
  Nanos Schedule(Nanos cost_ns);

  // Completions still in the future — work the foreground clock has not
  // yet covered.
  size_t InFlight() const;

  // Earliest pending completion, or now when nothing is in flight.
  Nanos NextCompletion() const;

  // Backpressure: advance the clock (charging the uncovered wait) until
  // fewer than `max_in_flight` operations are pending. Returns the nanos
  // charged; 0 when a slot was already free.
  Nanos WaitForSlot(size_t max_in_flight);

  // Quiesce barrier: wait for every pending completion, charging only the
  // remainder the foreground has not already covered. Returns the nanos
  // charged.
  Nanos Drain();

  // Forget all pending work without charging: the channel died with a
  // crashed process (durable journals redeliver what was in flight).
  void Reset();

  const AsyncStats& stats() const { return stats_; }

 private:
  void Expire();  // drop completions the clock has already passed

  Clock* clock_;
  Nanos channel_free_ = 0;         // when the serialized channel next idles
  std::deque<Nanos> completions_;  // pending completion times, ascending
  AsyncStats stats_;
};

}  // namespace pass::sim

#endif  // SRC_SIM_ASYNC_H_
