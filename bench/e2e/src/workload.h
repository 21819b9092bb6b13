#ifndef BENCH_E2E_SRC_WORKLOAD_H_
#define BENCH_E2E_SRC_WORKLOAD_H_

// One benchmark workload = a sequence of passes. A pass is a fixed amount of
// work with its own set-up, fully determined by its seed: the same seed
// gives the same inputs, the same outputs and the same counts. A run repeats
// passes (seed, 0), (seed, 1), ... until its time is up, so two builds
// compared on one seed do identical work per pass.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace e2e {

struct PassMode {
  Tracer* tracer = nullptr;  // non-null: the traced twin of a pass
  bool check = true;         // run the correctness gates (off the clock)
  bool reference = false;    // extra reference runs for per-layer metrics
};

struct PassResult {
  std::vector<WallNs> setups;  // each set-up done before timing
  std::vector<WallNs> ops;     // each timed operation (end-to-end unit)
  uint64_t failed = 0;         // timed operations that returned non-OK
  // Wall-clock samples per call kind, in the unit the key names.
  std::map<std::string, std::vector<double>> samples;
  // Additive totals (bytes, wall ns, event counts), summed over passes.
  std::map<std::string, double> sums;
  // Deterministic per-pass values (counts, sim-clock outputs): per-layer
  // metrics report the first pass's, which repeat exactly per seed.
  std::map<std::string, double> counts;
  // Digest of the pass's outputs; the traced twin must reproduce it.
  uint64_t digest = 0;
  std::string error;  // first correctness gate that failed

  void Fail(const std::string& what) {
    if (error.empty()) {
      error = what;
    }
  }
  void Sample(const std::string& key, double value) {
    samples[key].push_back(value);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual PassResult RunPass(uint64_t seed, const PassMode& mode) = 0;
};

std::unique_ptr<Workload> MakeRecord();
std::unique_ptr<Workload> MakeIngest();
std::unique_ptr<Workload> MakeQuery();
std::unique_ptr<Workload> MakeMixed();

}  // namespace e2e

#endif  // BENCH_E2E_SRC_WORKLOAD_H_
