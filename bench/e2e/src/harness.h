#ifndef BENCH_E2E_SRC_HARNESS_H_
#define BENCH_E2E_SRC_HARNESS_H_

// Harness primitives for the end-to-end benchmark: host wall-clock time,
// sample sets with percentiles, the benchmark's own seeded generator, and a
// span tracer that times the benchmark's calls into each layer.
//
// Everything here runs outside the library. Spans are recorded around the
// public calls the benchmark makes, never inside src/, so the library is
// measured exactly as users call it.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

using WallNs = int64_t;

inline WallNs Now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double Ms(WallNs ns) { return static_cast<double>(ns) / 1e6; }

// SplitMix64: the benchmark's input generator. Kept out of the library on
// purpose, so a change to src/util/rng cannot change the inputs.
class Gen {
 public:
  explicit Gen(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  uint64_t Below(uint64_t bound) { return bound == 0 ? 0 : Next() % bound; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  bool Chance(double p) { return Unit() < p; }

 private:
  uint64_t state_;
};

// Seed of pass `index` of a run with seed `seed` (and of sub-streams).
uint64_t MixSeed(uint64_t seed, uint64_t index);

// Quantile by linear interpolation between closest ranks; 0 when empty.
double Quantile(std::vector<double> values, double q);

// FNV-1a over a byte string, folded into a running digest.
uint64_t Fold(uint64_t digest, std::string_view bytes);

// Peak resident set of this process, in MB (getrusage).
double PeakRssMb();

// ---- Tracing ----------------------------------------------------------------
//
// Spans carry a name "layer.call", a parent (the innermost open span), and
// wall-clock start/end. Self time (duration minus the children's durations)
// is folded per name as each span closes, so the per-layer table needs no
// span storage. Spans of the first traced pass are also kept, up to a cap,
// and written as Chrome trace-event JSON at exit.

struct SpanTotals {
  uint64_t count = 0;
  WallNs total_ns = 0;
  WallNs self_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(size_t export_cap) : export_cap_(export_cap) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void Begin(const char* name);
  void End();

  // Stop adding spans to the Chrome export (the first pass is in).
  void StopExport() { exporting_ = false; }

  const std::map<std::string, SpanTotals>& totals() const { return totals_; }
  // Sum of root-span durations: the traced total the self times add up to.
  WallNs root_ns() const { return root_ns_; }

  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Open {
    const char* name;
    uint64_t id;
    uint64_t parent;
    WallNs start;
    WallNs child_ns;
    bool exported;
  };
  struct Event {
    bool begin;
    const char* name;
    uint64_t id;
    uint64_t parent;
    WallNs ts;
  };

  size_t export_cap_;
  bool exporting_ = true;
  size_t exported_spans_ = 0;
  uint64_t next_id_ = 1;
  WallNs origin_ = 0;
  WallNs root_ns_ = 0;
  std::vector<Open> open_;
  std::vector<Event> events_;
  std::map<std::string, SpanTotals> totals_;
};

// RAII span; a null tracer makes it a no-op (the untraced runs).
class Span {
 public:
  Span(Tracer* tracer, const char* name) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      tracer_->Begin(name);
    }
  }
  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->End();
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

// Wall time of one call, with a span of the same name when traced.
template <typename F>
auto Timed(Tracer* tracer, const char* name, WallNs* elapsed, F&& fn) {
  Span span(tracer, name);
  WallNs start = Now();
  auto result = fn();
  *elapsed = Now() - start;
  return result;
}

}  // namespace e2e

#endif  // BENCH_E2E_SRC_HARNESS_H_
