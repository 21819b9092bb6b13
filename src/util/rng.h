#ifndef SRC_UTIL_RNG_H_
#define SRC_UTIL_RNG_H_

// Deterministic PRNG (xoshiro256**). All randomness in the simulation —
// workload file sizes, Postmark transaction mix, crash-injection points,
// property-test inputs — flows through a seeded Rng so that every test and
// benchmark run is bit-reproducible.

#include <cstddef>
#include <cstdint>
#include <string>

namespace pass {

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull) { Seed(seed); }

  void Seed(uint64_t seed);

  // Uniform 64-bit value.
  uint64_t Next();

  // Uniform in [0, bound). bound == 0 returns 0.
  uint64_t NextBelow(uint64_t bound);

  // Uniform in [lo, hi] inclusive. Requires lo <= hi.
  uint64_t NextRange(uint64_t lo, uint64_t hi);

  // Uniform double in [0, 1).
  double NextDouble();

  // Bernoulli with probability p.
  bool NextBool(double p = 0.5);

  // Random lowercase-alphanumeric string of length n (workload file names).
  std::string NextName(size_t n);

  // Writes NextName(n)'s characters to out[0, n), consuming the same draws.
  void FillName(char* out, size_t n);

 private:
  uint64_t state_[4];
};

}  // namespace pass

#endif  // SRC_UTIL_RNG_H_
