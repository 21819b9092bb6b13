#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

// Metric registry: counters and log-bucketed latency histograms, keyed by
// name + labels (e.g. "ingest.flush_ns"{shard=2}).
//
// Everything here is *observation only*: recording a sample never advances
// the sim clock — time is charged exclusively through the existing
// ChargeCpu/disk/net paths, and the histograms merely measure the clock
// deltas those charges produce. All iteration orders are sorted, so the CSV
// exporter is deterministic: same seed, byte-identical dump.
//
// A count that a layer's stats struct already holds is not repeated here:
// the registry keeps the distributions and the few counters no struct has.

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pass::obs {

// Label set identifying one time series of a metric. Order-insensitive:
// {a=1,b=2} and {b=2,a=1} name the same series (keys are sorted into the
// canonical form). Keys and values may contain the rendering's separators.
using Labels = std::vector<std::pair<std::string, std::string>>;

// Canonical "k1=v1;k2=v2" rendering, sorted by key. Empty labels -> "".
// '%', ',', ';' and '=' inside a key or value are percent-escaped ("%2C"),
// so distinct label sets never share a series and a rendering is always
// one CSV field.
std::string CanonicalLabels(Labels labels);

class Counter {
 public:
  void Add(uint64_t delta = 1) { value_ += delta; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

// Log-bucketed histogram over uint64 samples (latency nanos, byte counts).
// Bucket 0 holds exactly the value 0; bucket i >= 1 holds [2^(i-1), 2^i).
// Quantiles interpolate linearly inside a bucket and clamp to the exact
// observed [min, max], so a constant distribution reports that constant.
class Histogram {
 public:
  static constexpr size_t kBuckets = 65;

  void Record(uint64_t value);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  // Interpolated quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;

  // Bucket i covers [BucketLow(i), BucketHigh(i)).
  static uint64_t BucketLow(size_t i);
  static uint64_t BucketHigh(size_t i);
  const std::array<uint64_t, kBuckets>& buckets() const { return buckets_; }

 private:
  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
};

class MetricRegistry {
 public:
  // Lookup-or-create. References stay valid for the registry's lifetime
  // (instrument once, hold the pointer) but callers on cold paths just call
  // these per event — a map walk, no allocation after the first.
  Counter& GetCounter(std::string_view name, Labels labels = {});
  Histogram& GetHistogram(std::string_view name, Labels labels = {});

  // Bench CSV convention, one "csv,metric,..." line per series, sorted by
  // (name, labels):
  //   csv,metric,<kind>,<name>,<labels>,<count>,<sum|value>,<min>,<max>,<p50>,<p90>,<p99>
  // (counters leave the histogram-only columns empty).
  std::string DumpCsv() const;

 private:
  using Key = std::pair<std::string, std::string>;  // (name, canonical labels)
  std::map<Key, Counter> counters_;
  std::map<Key, Histogram> histograms_;
};

}  // namespace pass::obs

#endif  // SRC_OBS_METRICS_H_
