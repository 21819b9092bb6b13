#include "src/util/md5.h"

#include <bit>
#include <cstring>

namespace pass {
namespace {

constexpr uint32_t kInit[4] = {0x67452301u, 0xefcdab89u, 0x98badcfeu,
                               0x10325476u};

// RFC 1321's four auxiliary functions, in the forms that need one operation
// fewer: F = (x & y) | (~x & z) and G = (x & z) | (y & ~z).
constexpr uint32_t F(uint32_t x, uint32_t y, uint32_t z) {
  return z ^ (x & (y ^ z));
}
constexpr uint32_t G(uint32_t x, uint32_t y, uint32_t z) {
  return y ^ (z & (x ^ y));
}
constexpr uint32_t H(uint32_t x, uint32_t y, uint32_t z) { return x ^ y ^ z; }
constexpr uint32_t I(uint32_t x, uint32_t y, uint32_t z) {
  return y ^ (x | ~z);
}

// One step: a = b + ((a + fn(b, c, d) + x + t) <<< s). The message word,
// the sine constant t and the rotate count s are fixed at each call site.
template <uint32_t (*Fn)(uint32_t, uint32_t, uint32_t), int S>
inline void Step(uint32_t& a, uint32_t b, uint32_t c, uint32_t d, uint32_t x,
                 uint32_t t) {
  a = b + std::rotl(a + Fn(b, c, d) + x + t, S);
}

}  // namespace

Md5::Md5() : length_bits_(0), buffered_(0) {
  std::memcpy(state_, kInit, sizeof(state_));
}

void Md5::ProcessBlock(const uint8_t* block) {
  uint32_t m[16];
  for (int i = 0; i < 16; ++i) {
    m[i] = static_cast<uint32_t>(block[i * 4]) |
           static_cast<uint32_t>(block[i * 4 + 1]) << 8 |
           static_cast<uint32_t>(block[i * 4 + 2]) << 16 |
           static_cast<uint32_t>(block[i * 4 + 3]) << 24;
  }

  uint32_t a = state_[0];
  uint32_t b = state_[1];
  uint32_t c = state_[2];
  uint32_t d = state_[3];

  // Round 1: message words in order.
  Step<F, 7>(a, b, c, d, m[0], 0xd76aa478);
  Step<F, 12>(d, a, b, c, m[1], 0xe8c7b756);
  Step<F, 17>(c, d, a, b, m[2], 0x242070db);
  Step<F, 22>(b, c, d, a, m[3], 0xc1bdceee);
  Step<F, 7>(a, b, c, d, m[4], 0xf57c0faf);
  Step<F, 12>(d, a, b, c, m[5], 0x4787c62a);
  Step<F, 17>(c, d, a, b, m[6], 0xa8304613);
  Step<F, 22>(b, c, d, a, m[7], 0xfd469501);
  Step<F, 7>(a, b, c, d, m[8], 0x698098d8);
  Step<F, 12>(d, a, b, c, m[9], 0x8b44f7af);
  Step<F, 17>(c, d, a, b, m[10], 0xffff5bb1);
  Step<F, 22>(b, c, d, a, m[11], 0x895cd7be);
  Step<F, 7>(a, b, c, d, m[12], 0x6b901122);
  Step<F, 12>(d, a, b, c, m[13], 0xfd987193);
  Step<F, 17>(c, d, a, b, m[14], 0xa679438e);
  Step<F, 22>(b, c, d, a, m[15], 0x49b40821);

  // Round 2: word (5i + 1) mod 16.
  Step<G, 5>(a, b, c, d, m[1], 0xf61e2562);
  Step<G, 9>(d, a, b, c, m[6], 0xc040b340);
  Step<G, 14>(c, d, a, b, m[11], 0x265e5a51);
  Step<G, 20>(b, c, d, a, m[0], 0xe9b6c7aa);
  Step<G, 5>(a, b, c, d, m[5], 0xd62f105d);
  Step<G, 9>(d, a, b, c, m[10], 0x02441453);
  Step<G, 14>(c, d, a, b, m[15], 0xd8a1e681);
  Step<G, 20>(b, c, d, a, m[4], 0xe7d3fbc8);
  Step<G, 5>(a, b, c, d, m[9], 0x21e1cde6);
  Step<G, 9>(d, a, b, c, m[14], 0xc33707d6);
  Step<G, 14>(c, d, a, b, m[3], 0xf4d50d87);
  Step<G, 20>(b, c, d, a, m[8], 0x455a14ed);
  Step<G, 5>(a, b, c, d, m[13], 0xa9e3e905);
  Step<G, 9>(d, a, b, c, m[2], 0xfcefa3f8);
  Step<G, 14>(c, d, a, b, m[7], 0x676f02d9);
  Step<G, 20>(b, c, d, a, m[12], 0x8d2a4c8a);

  // Round 3: word (3i + 5) mod 16.
  Step<H, 4>(a, b, c, d, m[5], 0xfffa3942);
  Step<H, 11>(d, a, b, c, m[8], 0x8771f681);
  Step<H, 16>(c, d, a, b, m[11], 0x6d9d6122);
  Step<H, 23>(b, c, d, a, m[14], 0xfde5380c);
  Step<H, 4>(a, b, c, d, m[1], 0xa4beea44);
  Step<H, 11>(d, a, b, c, m[4], 0x4bdecfa9);
  Step<H, 16>(c, d, a, b, m[7], 0xf6bb4b60);
  Step<H, 23>(b, c, d, a, m[10], 0xbebfbc70);
  Step<H, 4>(a, b, c, d, m[13], 0x289b7ec6);
  Step<H, 11>(d, a, b, c, m[0], 0xeaa127fa);
  Step<H, 16>(c, d, a, b, m[3], 0xd4ef3085);
  Step<H, 23>(b, c, d, a, m[6], 0x04881d05);
  Step<H, 4>(a, b, c, d, m[9], 0xd9d4d039);
  Step<H, 11>(d, a, b, c, m[12], 0xe6db99e5);
  Step<H, 16>(c, d, a, b, m[15], 0x1fa27cf8);
  Step<H, 23>(b, c, d, a, m[2], 0xc4ac5665);

  // Round 4: word 7i mod 16.
  Step<I, 6>(a, b, c, d, m[0], 0xf4292244);
  Step<I, 10>(d, a, b, c, m[7], 0x432aff97);
  Step<I, 15>(c, d, a, b, m[14], 0xab9423a7);
  Step<I, 21>(b, c, d, a, m[5], 0xfc93a039);
  Step<I, 6>(a, b, c, d, m[12], 0x655b59c3);
  Step<I, 10>(d, a, b, c, m[3], 0x8f0ccc92);
  Step<I, 15>(c, d, a, b, m[10], 0xffeff47d);
  Step<I, 21>(b, c, d, a, m[1], 0x85845dd1);
  Step<I, 6>(a, b, c, d, m[8], 0x6fa87e4f);
  Step<I, 10>(d, a, b, c, m[15], 0xfe2ce6e0);
  Step<I, 15>(c, d, a, b, m[6], 0xa3014314);
  Step<I, 21>(b, c, d, a, m[13], 0x4e0811a1);
  Step<I, 6>(a, b, c, d, m[4], 0xf7537e82);
  Step<I, 10>(d, a, b, c, m[11], 0xbd3af235);
  Step<I, 15>(c, d, a, b, m[2], 0x2ad7d2bb);
  Step<I, 21>(b, c, d, a, m[9], 0xeb86d391);

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
}

void Md5::Update(const void* data, size_t len) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  length_bits_ += static_cast<uint64_t>(len) * 8;

  if (buffered_ > 0) {
    size_t take = 64 - buffered_;
    if (take > len) {
      take = len;
    }
    std::memcpy(buffer_ + buffered_, bytes, take);
    buffered_ += take;
    bytes += take;
    len -= take;
    if (buffered_ == 64) {
      ProcessBlock(buffer_);
      buffered_ = 0;
    }
  }
  while (len >= 64) {
    ProcessBlock(bytes);
    bytes += 64;
    len -= 64;
  }
  if (len > 0) {
    std::memcpy(buffer_, bytes, len);
    buffered_ = len;
  }
}

Md5Digest Md5::Finish() {
  // Padding: 0x80, zeros, then the 64-bit little-endian bit length.
  uint64_t length_bits = length_bits_;
  uint8_t pad[72];
  size_t pad_len = (buffered_ < 56) ? (56 - buffered_) : (120 - buffered_);
  pad[0] = 0x80;
  std::memset(pad + 1, 0, pad_len - 1);
  for (int i = 0; i < 8; ++i) {
    pad[pad_len + i] = static_cast<uint8_t>(length_bits >> (8 * i));
  }
  Update(pad, pad_len + 8);

  Md5Digest out;
  for (int i = 0; i < 4; ++i) {
    out[i * 4] = static_cast<uint8_t>(state_[i]);
    out[i * 4 + 1] = static_cast<uint8_t>(state_[i] >> 8);
    out[i * 4 + 2] = static_cast<uint8_t>(state_[i] >> 16);
    out[i * 4 + 3] = static_cast<uint8_t>(state_[i] >> 24);
  }
  return out;
}

Md5Digest Md5::Hash(std::string_view data) {
  Md5 md5;
  md5.Update(data);
  return md5.Finish();
}

std::string Md5::HexHash(std::string_view data) {
  return Md5ToHex(Hash(data));
}

std::string Md5ToHex(const Md5Digest& digest) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(32);
  for (uint8_t byte : digest) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xf]);
  }
  return out;
}

}  // namespace pass
