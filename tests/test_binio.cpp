// binio tests: the fixed-width little-endian codec under the disk cache.
// The load-bearing properties: every write reads back exactly (doubles as
// raw IEEE-754 bit patterns, including the values text formats mangle),
// truncation throws instead of misreading, and the checksum notices
// single-bit damage, reordered words and truncation in every part of its
// four-lane stripe structure.
#include "src/common/binio.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include "src/common/error.h"

namespace bpvec::common::binio {
namespace {

std::uint64_t bits_of(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

double double_of(std::uint64_t u) {
  double d = 0;
  std::memcpy(&d, &u, sizeof d);
  return d;
}

TEST(BinioTest, IntegersRoundTrip) {
  Writer w;
  w.u8(0);
  w.u8(0xFF);
  w.u32(0);
  w.u32(0xDEADBEEFu);
  w.u64(0);
  w.u64(0xFFFFFFFFFFFFFFFFull);
  w.i64(0);
  w.i64(-1);
  w.i64(std::numeric_limits<std::int64_t>::min());
  w.i64(std::numeric_limits<std::int64_t>::max());

  Reader r(w.bytes().data(), w.size());
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_EQ(r.u8(), 0xFFu);
  EXPECT_EQ(r.u32(), 0u);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_EQ(r.u64(), 0xFFFFFFFFFFFFFFFFull);
  EXPECT_EQ(r.i64(), 0);
  EXPECT_EQ(r.i64(), -1);
  EXPECT_EQ(r.i64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(r.i64(), std::numeric_limits<std::int64_t>::max());
  EXPECT_TRUE(r.done());
}

TEST(BinioTest, EncodingIsLittleEndianByteForByte) {
  Writer w;
  w.u32(0x01020304u);
  w.u64(0x0102030405060708ull);
  const char* b = w.bytes().data();
  EXPECT_EQ(static_cast<unsigned char>(b[0]), 0x04);
  EXPECT_EQ(static_cast<unsigned char>(b[1]), 0x03);
  EXPECT_EQ(static_cast<unsigned char>(b[2]), 0x02);
  EXPECT_EQ(static_cast<unsigned char>(b[3]), 0x01);
  EXPECT_EQ(static_cast<unsigned char>(b[4]), 0x08);
  EXPECT_EQ(static_cast<unsigned char>(b[11]), 0x01);
}

TEST(BinioTest, DoublesRoundTripBitExactly) {
  // The values JSON/printf round-tripping mangles or cannot represent:
  // negative zero, infinities, quiet/signaling NaN payloads, denormals,
  // and a full-precision irrational.
  const std::uint64_t patterns[] = {
      bits_of(0.0),
      bits_of(-0.0),
      bits_of(1.0 / 3.0),
      bits_of(std::numeric_limits<double>::infinity()),
      bits_of(-std::numeric_limits<double>::infinity()),
      bits_of(std::numeric_limits<double>::denorm_min()),
      bits_of(std::numeric_limits<double>::max()),
      0x7FF8000000000001ull,  // quiet NaN, nonzero payload
      0x7FF0DEADBEEF0001ull,  // signaling-NaN-shaped payload
  };
  Writer w;
  for (const std::uint64_t p : patterns) w.f64(double_of(p));
  Reader r(w.bytes().data(), w.size());
  for (const std::uint64_t p : patterns) {
    EXPECT_EQ(bits_of(r.f64()), p);
  }
  EXPECT_TRUE(r.done());
}

TEST(BinioTest, StringsRoundTripIncludingEmbeddedNuls) {
  Writer w;
  w.str("");
  w.str("conv1_7x7");
  w.str(std::string("nul\0inside", 10));
  Reader r(w.bytes().data(), w.size());
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), "conv1_7x7");
  EXPECT_EQ(r.str(), std::string("nul\0inside", 10));
  EXPECT_TRUE(r.done());
}

TEST(BinioTest, ReaderThrowsOnUnderflowWithoutAdvancing) {
  Writer w;
  w.u32(7);
  Reader r(w.bytes().data(), w.size());
  EXPECT_THROW(r.u64(), Error);  // 4 bytes left, 8 wanted
  EXPECT_EQ(r.u32(), 7u);        // the failed read consumed nothing
  EXPECT_TRUE(r.done());
  EXPECT_THROW(r.u8(), Error);
}

TEST(BinioTest, TruncatedStringThrows) {
  Writer w;
  w.str("hello");
  // Length prefix says 5 but only 3 payload bytes survive.
  Reader r(w.bytes().data(), 4 + 3);
  EXPECT_THROW(r.str(), Error);
}

TEST(BinioTest, RemainingTracksConsumption) {
  Writer w;
  w.u64(1);
  w.u8(2);
  Reader r(w.bytes().data(), w.size());
  EXPECT_EQ(r.remaining(), 9u);
  (void)r.u64();
  EXPECT_EQ(r.remaining(), 1u);
  (void)r.u8();
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(r.done());
}

TEST(BinioTest, ChecksumIsStableAndSensitive) {
  const std::string payload = "the quick brown fox jumps over the lazy dog";
  const std::uint64_t base = checksum(payload.data(), payload.size());
  // Deterministic across calls (and across processes — the disk cache
  // verifies checksums written by earlier runs).
  EXPECT_EQ(checksum(payload.data(), payload.size()), base);

  // Any single-bit flip at any position changes the sum.
  for (std::size_t i = 0; i < payload.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string damaged = payload;
      damaged[i] = static_cast<char>(damaged[i] ^ (1 << bit));
      EXPECT_NE(checksum(damaged.data(), damaged.size()), base)
          << "flip at byte " << i << " bit " << bit;
    }
  }
  // Length is mixed in: a truncation that keeps a prefix intact changes
  // the sum, and the empty payload has a well-defined one.
  EXPECT_NE(checksum(payload.data(), payload.size() - 1), base);
  EXPECT_EQ(checksum(payload.data(), 0), checksum(nullptr, 0));
}

/// `n` bytes of a fixed pseudo-random pattern.
std::string pattern(std::size_t n) {
  std::string s(n, '\0');
  std::uint32_t x = 0x9E3779B9u;
  for (char& c : s) {
    x = x * 1664525u + 1013904223u;
    c = static_cast<char>(x >> 24);
  }
  return s;
}

std::uint64_t checksum_of(const std::string& s) {
  return checksum(s.data(), s.size());
}

/// `s` with the 8-byte words at byte offsets `a` and `b` exchanged.
std::string swap_words(std::string s, std::size_t a, std::size_t b) {
  for (std::size_t i = 0; i < 8; ++i) std::swap(s[a + i], s[b + i]);
  return s;
}

constexpr std::size_t kStripe = 8 * kChecksumLanes;

TEST(BinioTest, ChecksumCatchesEveryBitFlipAtEveryLength) {
  // Lengths 0-200 cover empty input, the byte and word tails alone, and
  // one to six whole stripes with every tail shape.
  for (std::size_t n = 0; n <= 200; ++n) {
    std::string payload = pattern(n);
    const std::uint64_t base = checksum_of(payload);
    for (std::size_t i = 0; i < n; ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        payload[i] = static_cast<char>(payload[i] ^ (1 << bit));
        ASSERT_NE(checksum_of(payload), base)
            << "length " << n << " byte " << i << " bit " << bit;
        payload[i] = static_cast<char>(payload[i] ^ (1 << bit));
      }
    }
  }
}

TEST(BinioTest, ChecksumSeesWordsSwappedAcrossLanesOfOneStripe) {
  // A lone stripe is where lanes must differ by seed or by fold order;
  // the longer payload adds earlier, later and tail context.
  for (const std::size_t n : {kStripe, 3 * kStripe + 5}) {
    const std::string payload = pattern(n);
    const std::uint64_t base = checksum_of(payload);
    for (std::size_t at = 0; at + kStripe <= n; at += kStripe) {
      for (std::size_t a = 0; a < kChecksumLanes; ++a) {
        for (std::size_t b = a + 1; b < kChecksumLanes; ++b) {
          EXPECT_NE(checksum_of(swap_words(payload, at + 8 * a, at + 8 * b)),
                    base)
              << "length " << n << " stripe at " << at << " lanes " << a
              << "," << b;
        }
      }
    }
  }
}

TEST(BinioTest, ChecksumSeesWordsSwappedWithinOneLaneAcrossStripes) {
  const std::string payload = pattern(4 * kStripe);
  const std::uint64_t base = checksum_of(payload);
  for (std::size_t lane = 0; lane < kChecksumLanes; ++lane) {
    for (std::size_t s = 0; s < 4; ++s) {
      for (std::size_t t = s + 1; t < 4; ++t) {
        EXPECT_NE(checksum_of(swap_words(payload, s * kStripe + 8 * lane,
                                         t * kStripe + 8 * lane)),
                  base)
            << "lane " << lane << " stripes " << s << "," << t;
      }
    }
  }
}

TEST(BinioTest, ChecksumSeesTruncationAtEveryLaneBoundary) {
  // The byte before every lane boundary is zero, so a word past the last
  // stripe that loses it zero-pads back to the same tail value: only the
  // length folded into the seeds tells those truncations apart.
  std::string payload = pattern(4 * kStripe + 24);
  for (std::size_t i = 7; i < payload.size(); i += 8) payload[i] = '\0';
  for (std::size_t boundary = 8; boundary <= payload.size(); boundary += 8) {
    const std::string whole = payload.substr(0, boundary);
    EXPECT_NE(checksum_of(whole), checksum_of(whole.substr(0, boundary - 1)))
        << "boundary " << boundary;
  }
}

TEST(BinioTest, ChecksumDiffersAcrossPermutations) {
  // Word-order sensitivity: swapping two 8-byte words must change the
  // sum (a plain XOR/add of words would not notice).
  std::string a(16, '\0');
  for (int i = 0; i < 16; ++i) a[static_cast<std::size_t>(i)] = char('a' + i);
  std::string b = a.substr(8, 8) + a.substr(0, 8);
  EXPECT_NE(checksum(a.data(), a.size()), checksum(b.data(), b.size()));
}

}  // namespace
}  // namespace bpvec::common::binio
