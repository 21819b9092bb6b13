#include "src/util/rng.h"

#include <algorithm>

namespace pass {
namespace {

uint64_t RotL(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// splitmix64, used only to expand the seed into xoshiro state.
uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// One xoshiro256** step over `s`, returning the output word.
inline uint64_t Step(uint64_t* s) {
  uint64_t result = RotL(s[1] * 5, 7) * 9;
  uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = RotL(s[3], 45);
  return result;
}

}  // namespace

void Rng::Seed(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : state_) {
    word = SplitMix(&sm);
  }
}

uint64_t Rng::Next() { return Step(state_); }

uint64_t Rng::NextBelow(uint64_t bound) {
  if (bound == 0) {
    return 0;
  }
  // Rejection sampling to avoid modulo bias.
  uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

uint64_t Rng::NextRange(uint64_t lo, uint64_t hi) {
  return lo + NextBelow(hi - lo + 1);
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::NextBool(double p) { return NextDouble() < p; }

void Rng::FillName(char* out, size_t n) {
  static constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  // NextBelow(36) per character: the same draws, rejection threshold and
  // final state, with the state held in locals across the loop.
  constexpr uint64_t kThreshold = (0 - uint64_t{36}) % 36;
  uint64_t s[4] = {state_[0], state_[1], state_[2], state_[3]};
  for (size_t i = 0; i < n; ++i) {
    uint64_t r = Step(s);
    while (r < kThreshold) {
      r = Step(s);
    }
    out[i] = kAlphabet[r % 36];
  }
  std::copy(s, s + 4, state_);
}

std::string Rng::NextName(size_t n) {
  std::string out(n, '\0');
  FillName(out.data(), n);
  return out;
}

}  // namespace pass
