// Tests for src/util: status/result, md5, crc32, rng, encode, strings.

#include <gtest/gtest.h>

#include "src/util/crc32.h"
#include "src/util/encode.h"
#include "src/util/md5.h"
#include "src/util/result.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/strings.h"

namespace pass {
namespace {

TEST(StatusTest, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), Code::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = NotFound("/tmp/x");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Code::kNotFound);
  EXPECT_EQ(status.ToString(), "NotFound: /tmp/x");
}

TEST(StatusTest, AllConstructorsMapToDistinctCodes) {
  EXPECT_EQ(Exists("x").code(), Code::kExists);
  EXPECT_EQ(InvalidArgument("x").code(), Code::kInvalidArgument);
  EXPECT_EQ(BadFd("x").code(), Code::kBadFd);
  EXPECT_EQ(IsDir("x").code(), Code::kIsDir);
  EXPECT_EQ(NotDir("x").code(), Code::kNotDir);
  EXPECT_EQ(NotEmpty("x").code(), Code::kNotEmpty);
  EXPECT_EQ(NoSpace("x").code(), Code::kNoSpace);
  EXPECT_EQ(Permission("x").code(), Code::kPermission);
  EXPECT_EQ(IoError("x").code(), Code::kIoError);
  EXPECT_EQ(Stale("x").code(), Code::kStale);
  EXPECT_EQ(Busy("x").code(), Code::kBusy);
  EXPECT_EQ(Corrupt("x").code(), Code::kCorrupt);
  EXPECT_EQ(Unsupported("x").code(), Code::kUnsupported);
  EXPECT_EQ(Unavailable("x").code(), Code::kUnavailable);
  EXPECT_EQ(OutOfRange("x").code(), Code::kOutOfRange);
  EXPECT_EQ(Internal("x").code(), Code::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(result.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> result = NotFound("gone");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Code::kNotFound);
  EXPECT_EQ(result.value_or(7), 7);
}

Result<int> Doubler(Result<int> in) {
  PASS_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_EQ(Doubler(IoError("disk on fire")).status().code(), Code::kIoError);
}

// RFC 1321 test vectors.
TEST(Md5Test, Rfc1321Vectors) {
  EXPECT_EQ(Md5::HexHash(""), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(Md5::HexHash("a"), "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(Md5::HexHash("abc"), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(Md5::HexHash("message digest"),
            "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(Md5::HexHash("abcdefghijklmnopqrstuvwxyz"),
            "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(
      Md5::HexHash("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz012345"
                   "6789"),
      "d174ab98d277d9f5a5611c2c9f419d9f");
  EXPECT_EQ(Md5::HexHash("1234567890123456789012345678901234567890123456789012"
                         "3456789012345678901234567890"),
            "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5Test, IncrementalMatchesOneShot) {
  std::string data(100000, 'x');
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>('a' + (i * 31) % 26);
  }
  Md5 incremental;
  size_t pos = 0;
  size_t chunk = 1;
  while (pos < data.size()) {
    size_t n = std::min(chunk, data.size() - pos);
    incremental.Update(data.data() + pos, n);
    pos += n;
    chunk = chunk * 2 + 1;
  }
  EXPECT_EQ(Md5ToHex(incremental.Finish()), Md5::HexHash(data));
}

// `n` bytes from `rng`, one draw per byte.
std::string RandomBytes(Rng* rng, size_t n) {
  std::string out(n, '\0');
  for (char& ch : out) {
    ch = static_cast<char>(rng->Next());
  }
  return out;
}

// The literals in the next two tests are digests of a known-good MD5 and
// must never change: they pin every round constant, rotate count and
// message index, and the padding at every buffered length.
TEST(Md5Test, DigestsOfEveryShortLengthArePinned) {
  // Lengths 0..130 cover padding that fits the last block (< 56 bytes
  // left), padding that needs another block (>= 56) and exact multiples of
  // 64.
  Rng rng(19);
  std::string digests;
  for (size_t n = 0; n <= 130; ++n) {
    Md5Digest digest = Md5::Hash(RandomBytes(&rng, n));
    digests.append(reinterpret_cast<const char*>(digest.data()),
                   digest.size());
  }
  EXPECT_EQ(Md5::HexHash(digests), "597e9748267be0ca02fdf01004b927c1");
}

TEST(Md5Test, OneMebibyteIsPinned) {
  Rng rng(23);
  EXPECT_EQ(Md5::HexHash(RandomBytes(&rng, 1 << 20)),
            "7926475f5e5838507c015a078554c1d2");
}

TEST(Md5Test, UpdateSplitAtEveryOffsetMatchesOneShot) {
  Rng rng(29);
  std::string data = RandomBytes(&rng, 200);
  Md5Digest whole = Md5::Hash(data);
  for (size_t split = 0; split <= data.size(); ++split) {
    Md5 md5;
    md5.Update(std::string_view(data).substr(0, split));
    md5.Update(std::string_view(data).substr(split));
    EXPECT_EQ(md5.Finish(), whole) << "split at " << split;
  }
}

// Bit-at-a-time CRC-32 (reflected polynomial 0xedb88320): the reference
// the table-driven Crc32 must equal.
uint32_t BitwiseCrc32(std::string_view data, uint32_t seed) {
  uint32_t crc = ~seed;
  for (char ch : data) {
    crc ^= static_cast<uint8_t>(ch);
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ (0xedb88320u & (0u - (crc & 1)));
    }
  }
  return ~crc;
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  Rng rng(31);
  std::string buffer = RandomBytes(&rng, 64 + 8);
  for (size_t align = 0; align < 8; ++align) {
    for (size_t n = 0; n <= 64; ++n) {
      std::string_view data = std::string_view(buffer).substr(align, n);
      uint32_t seed = static_cast<uint32_t>(rng.Next());
      EXPECT_EQ(Crc32(data, seed), BitwiseCrc32(data, seed))
          << "align " << align << " length " << n;
      EXPECT_EQ(Crc32(data), BitwiseCrc32(data, 0));
    }
  }
}

TEST(Crc32Test, SeedContinuesARollingCrc) {
  Rng rng(37);
  std::string a = RandomBytes(&rng, 45);
  std::string b = RandomBytes(&rng, 77);
  EXPECT_EQ(Crc32(b, Crc32(a)), Crc32(a + b));
}

TEST(Crc32Test, KnownVector) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::string data = "write-ahead provenance";
  uint32_t crc = Crc32(data);
  data[5] ^= 1;
  EXPECT_NE(Crc32(data), crc);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
  EXPECT_EQ(rng.NextBelow(0), 0u);
  EXPECT_EQ(rng.NextBelow(1), 0u);
}

TEST(RngTest, NextRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    uint64_t v = rng.NextRange(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, NameHasRequestedLength) {
  Rng rng(13);
  EXPECT_EQ(rng.NextName(12).size(), 12u);
}

// NextName and FillName draw exactly as NextBelow(36) per character does,
// and leave the generator where that loop leaves it.
TEST(RngTest, NamesMatchNextBelowLoop) {
  static const char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  for (size_t n : {0, 1, 63, 64, 65, 1000}) {
    Rng reference(41 + n);
    std::string expected;
    for (size_t i = 0; i < n; ++i) {
      expected.push_back(kAlphabet[reference.NextBelow(36)]);
    }
    uint64_t after = reference.Next();

    Rng named(41 + n);
    EXPECT_EQ(named.NextName(n), expected) << n;
    EXPECT_EQ(named.Next(), after) << n;

    Rng filled(41 + n);
    std::string buffer(n + 1, '#');
    filled.FillName(buffer.data(), n);
    EXPECT_EQ(buffer, expected + "#") << n;
    EXPECT_EQ(filled.Next(), after) << n;
  }
}

TEST(EncodeTest, RoundTripScalars) {
  std::string buf;
  PutU8(&buf, 0xab);
  PutU16(&buf, 0xbeef);
  PutU32(&buf, 0xdeadbeef);
  PutU64(&buf, 0x0123456789abcdefull);
  PutI64(&buf, -42);
  PutF64(&buf, 3.25);
  PutBytes(&buf, "hello");

  Decoder in(buf);
  EXPECT_EQ(*in.U8(), 0xab);
  EXPECT_EQ(*in.U16(), 0xbeef);
  EXPECT_EQ(*in.U32(), 0xdeadbeefu);
  EXPECT_EQ(*in.U64(), 0x0123456789abcdefull);
  EXPECT_EQ(*in.I64(), -42);
  EXPECT_EQ(*in.F64(), 3.25);
  EXPECT_EQ(*in.Bytes(), "hello");
  EXPECT_TRUE(in.done());
}

TEST(EncodeTest, VarintRoundTripAcrossWidths) {
  const uint64_t values[] = {0,    1,    0x7f,  0x80,   0x3fff, 0x4000,
                             1u << 20, 0xdeadbeef, ~0ull};
  std::string buf;
  for (uint64_t v : values) {
    PutVarint(&buf, v);
  }
  EXPECT_EQ(buf.size(), 1 + 1 + 1 + 2 + 2 + 3 + 3 + 5 + 10u);
  Decoder in(buf);
  for (uint64_t v : values) {
    EXPECT_EQ(*in.Varint(), v);
  }
  EXPECT_TRUE(in.done());
}

TEST(EncodeTest, TruncatedVarintIsCorrupt) {
  std::string buf;
  PutVarint(&buf, 0x4000);  // three bytes
  std::string cut = buf.substr(0, 2);
  Decoder in(cut);
  auto v = in.Varint();
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), Code::kCorrupt);
}

TEST(EncodeTest, TruncationIsCorruptNotCrash) {
  std::string buf;
  PutBytes(&buf, "hello world");
  std::string cut = buf.substr(0, 6);
  Decoder in(cut);
  auto bytes = in.Bytes();
  ASSERT_FALSE(bytes.ok());
  EXPECT_EQ(bytes.status().code(), Code::kCorrupt);
}

TEST(StringsTest, SplitJoin) {
  auto parts = Split("a/b//c", '/');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(Join({"x", "y", "z"}, ", "), "x, y, z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("/mnt/nfs/file", "/mnt"));
  EXPECT_FALSE(StartsWith("/mnt", "/mnt/nfs"));
  EXPECT_TRUE(EndsWith("atlas-x.gif", ".gif"));
  EXPECT_FALSE(EndsWith("gif", "atlas.gif"));
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "ok"), "7-ok");
  EXPECT_EQ(StrFormat("%05u", 42u), "00042");
}

TEST(StringsTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(1536), "1.5 KB");
  EXPECT_EQ(HumanBytes(3u << 20), "3.0 MB");
}

TEST(StringsTest, GlobMatch) {
  EXPECT_TRUE(GlobMatch("*.gif", "atlas-x.gif"));
  EXPECT_TRUE(GlobMatch("atlas-?.gif", "atlas-y.gif"));
  EXPECT_FALSE(GlobMatch("atlas-?.gif", "atlas-xy.gif"));
  EXPECT_TRUE(GlobMatch("*", ""));
  EXPECT_TRUE(GlobMatch("a*b*c", "a-xxx-b-yyy-c"));
  EXPECT_FALSE(GlobMatch("a*b*c", "a-xxx-c-yyy-b"));
}

}  // namespace
}  // namespace pass
