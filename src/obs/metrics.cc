#include "src/obs/metrics.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "src/util/strings.h"

namespace pass::obs {

namespace {

// Append `text` with the rendering's separators (and '%' itself) escaped.
void AppendEscaped(std::string* out, const std::string& text) {
  for (char c : text) {
    if (c == '%' || c == ',' || c == ';' || c == '=') {
      *out += StrFormat("%%%02X", static_cast<unsigned char>(c));
    } else {
      *out += c;
    }
  }
}

}  // namespace

std::string CanonicalLabels(Labels labels) {
  std::sort(labels.begin(), labels.end());
  std::string out;
  for (const auto& [key, value] : labels) {
    if (!out.empty()) {
      out += ';';
    }
    AppendEscaped(&out, key);
    out += '=';
    AppendEscaped(&out, value);
  }
  return out;
}

void Histogram::Record(uint64_t value) {
  ++buckets_[std::bit_width(value)];
  ++count_;
  sum_ += value;
  if (count_ == 1 || value < min_) {
    min_ = value;
  }
  if (value > max_) {
    max_ = value;
  }
}

uint64_t Histogram::BucketLow(size_t i) {
  return i == 0 ? 0 : 1ull << (i - 1);
}

uint64_t Histogram::BucketHigh(size_t i) {
  return i >= 64 ? std::numeric_limits<uint64_t>::max() : 1ull << i;
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  double target = q * static_cast<double>(count_);
  double cumulative = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) {
      continue;
    }
    double next = cumulative + static_cast<double>(buckets_[i]);
    if (target <= next) {
      double fraction = (target - cumulative) / static_cast<double>(buckets_[i]);
      double low = static_cast<double>(BucketLow(i));
      double high = static_cast<double>(BucketHigh(i));
      double value = low + fraction * (high - low);
      return std::clamp(value, static_cast<double>(min()),
                        static_cast<double>(max_));
    }
    cumulative = next;
  }
  return static_cast<double>(max_);
}

Counter& MetricRegistry::GetCounter(std::string_view name, Labels labels) {
  return counters_[Key(std::string(name), CanonicalLabels(std::move(labels)))];
}

Histogram& MetricRegistry::GetHistogram(std::string_view name, Labels labels) {
  return histograms_[Key(std::string(name),
                         CanonicalLabels(std::move(labels)))];
}

std::string MetricRegistry::DumpCsv() const {
  // Merge the two sorted maps into one (name, labels)-sorted listing.
  std::map<Key, std::string> lines;
  for (const auto& [key, counter] : counters_) {
    lines[key] =
        StrFormat("csv,metric,counter,%s,%s,,%llu,,,,,", key.first.c_str(),
                  key.second.c_str(),
                  static_cast<unsigned long long>(counter.value()));
  }
  for (const auto& [key, histogram] : histograms_) {
    lines[key] = StrFormat(
        "csv,metric,histogram,%s,%s,%llu,%llu,%llu,%llu,%.0f,%.0f,%.0f",
        key.first.c_str(), key.second.c_str(),
        static_cast<unsigned long long>(histogram.count()),
        static_cast<unsigned long long>(histogram.sum()),
        static_cast<unsigned long long>(histogram.min()),
        static_cast<unsigned long long>(histogram.max()),
        histogram.Quantile(0.50), histogram.Quantile(0.90),
        histogram.Quantile(0.99));
  }
  std::string out;
  for (const auto& [key, line] : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

}  // namespace pass::obs
