#include "src/sim/async.h"

#include <algorithm>

namespace pass::sim {

Nanos AsyncTimeline::Schedule(Nanos cost_ns) {
  Nanos start = std::max(clock_->now(), channel_free_);
  Nanos completion = start + cost_ns;
  channel_free_ = completion;
  completions_.push_back(completion);
  stats_.busy_ns += cost_ns;
  return completion;
}

void AsyncTimeline::Expire() {
  while (!completions_.empty() && completions_.front() <= clock_->now()) {
    completions_.pop_front();
  }
}

size_t AsyncTimeline::InFlight() const {
  auto first_pending = std::upper_bound(completions_.begin(),
                                        completions_.end(), clock_->now());
  return static_cast<size_t>(completions_.end() - first_pending);
}

Nanos AsyncTimeline::NextCompletion() const {
  auto first_pending = std::upper_bound(completions_.begin(),
                                        completions_.end(), clock_->now());
  return first_pending == completions_.end() ? clock_->now() : *first_pending;
}

Nanos AsyncTimeline::WaitForSlot(size_t max_in_flight) {
  if (max_in_flight == 0) {
    max_in_flight = 1;
  }
  Expire();
  Nanos charged = 0;
  bool waited = false;
  while (InFlight() >= max_in_flight) {
    Nanos wait = NextCompletion() - clock_->now();
    clock_->Advance(wait);
    charged += wait;
    waited = true;
    Expire();
  }
  if (waited) {
    ++stats_.waits;
    stats_.exposed_ns += charged;
  }
  return charged;
}

Nanos AsyncTimeline::Drain() {
  ++stats_.drains;
  Expire();
  if (completions_.empty()) {
    return 0;
  }
  Nanos charged = completions_.back() - clock_->now();
  clock_->Advance(charged);
  stats_.exposed_ns += charged;
  completions_.clear();
  return charged;
}

void AsyncTimeline::Reset() {
  completions_.clear();
  channel_free_ = 0;
}

}  // namespace pass::sim
