#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace e2e {

uint64_t Gen::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t MixSeed(uint64_t seed, uint64_t index) {
  Gen gen(seed * 0x100000001b3ull + index);
  gen.Next();
  return gen.Next();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  double rank = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

uint64_t Fold(uint64_t digest, std::string_view bytes) {
  for (unsigned char c : bytes) {
    digest = (digest ^ c) * 0x100000001b3ull;
  }
  return (digest ^ 0xff) * 0x100000001b3ull;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Tracer::Begin(const char* name) {
  WallNs now = Now();
  if (origin_ == 0) {
    origin_ = now;
  }
  uint64_t parent = open_.empty() ? 0 : open_.back().id;
  bool parent_exported = open_.empty() || open_.back().exported;
  bool exported =
      exporting_ && parent_exported && exported_spans_ < export_cap_;
  uint64_t id = next_id_++;
  if (exported) {
    ++exported_spans_;
    events_.push_back(Event{true, name, id, parent, now});
  }
  open_.push_back(Open{name, id, parent, now, 0, exported});
}

void Tracer::End() {
  WallNs now = Now();
  Open span = open_.back();
  open_.pop_back();
  WallNs duration = now - span.start;
  SpanTotals& totals = totals_[span.name];
  ++totals.count;
  totals.total_ns += duration;
  totals.self_ns += duration - span.child_ns;
  if (open_.empty()) {
    root_ns_ += duration;
  } else {
    open_.back().child_ns += duration;
  }
  if (span.exported) {
    events_.push_back(Event{false, span.name, span.id, span.parent, now});
  }
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  // ts is in microseconds; three decimals keep every nanosecond.
  auto micros = [this](WallNs ts) {
    WallNs rel = ts - origin_;
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                  static_cast<long long>(rel / 1000),
                  static_cast<long long>(rel % 1000));
    return std::string(buf);
  };
  out << "{\"traceEvents\":[\n";
  for (size_t i = 0; i < events_.size(); ++i) {
    const Event& ev = events_[i];
    out << "{\"name\":\"" << ev.name << "\",\"ph\":\"" << (ev.begin ? 'B' : 'E')
        << "\",\"ts\":" << micros(ev.ts) << ",\"pid\":1,\"tid\":1";
    if (ev.begin) {
      out << ",\"args\":{\"id\":" << ev.id << ",\"parent\":" << ev.parent
          << "}";
    }
    out << (i + 1 < events_.size() ? "},\n" : "}\n");
  }
  out << "],\"displayTimeUnit\":\"ns\"}\n";
  return static_cast<bool>(out);
}

}  // namespace e2e
