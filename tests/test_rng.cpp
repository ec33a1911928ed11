#include "src/common/rng.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/common/error.h"
#include "src/common/hash.h"

namespace bpvec {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformDegenerateRange) {
  Rng rng(7);
  EXPECT_EQ(rng.uniform(3, 3), 3);
  EXPECT_THROW(rng.uniform(4, 3), Error);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

class SignedValueBits : public ::testing::TestWithParam<int> {};

TEST_P(SignedValueBits, StaysInTwosComplementRange) {
  const int bits = GetParam();
  Rng rng(1234 + static_cast<std::uint64_t>(bits));
  const std::int64_t lo = -(std::int64_t{1} << (bits - 1));
  const std::int64_t hi = (std::int64_t{1} << (bits - 1)) - 1;
  bool saw_negative = false;
  for (int i = 0; i < 500; ++i) {
    const std::int32_t v = rng.signed_value(bits);
    EXPECT_GE(v, lo);
    EXPECT_LE(v, hi);
    saw_negative |= (v < 0);
  }
  EXPECT_TRUE(saw_negative) << "range never produced a negative value";
}

INSTANTIATE_TEST_SUITE_P(Bits, SignedValueBits,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 12, 16, 24, 32));

class UnsignedValueBits : public ::testing::TestWithParam<int> {};

TEST_P(UnsignedValueBits, StaysInRange) {
  const int bits = GetParam();
  Rng rng(99 + static_cast<std::uint64_t>(bits));
  const std::int64_t hi = (std::int64_t{1} << bits) - 1;
  for (int i = 0; i < 500; ++i) {
    const std::uint32_t v = rng.unsigned_value(bits);
    EXPECT_LE(static_cast<std::int64_t>(v), hi);
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, UnsignedValueBits,
                         ::testing::Values(1, 2, 4, 8, 16, 31, 32));

TEST(Rng, SignedVectorShapeAndRange) {
  Rng rng(5);
  const auto v = rng.signed_vector(257, 4);
  EXPECT_EQ(v.size(), 257u);
  for (auto x : v) {
    EXPECT_GE(x, -8);
    EXPECT_LE(x, 7);
  }
}

TEST(Rng, RejectsBadBitCounts) {
  Rng rng(5);
  EXPECT_THROW(rng.signed_value(0), Error);
  EXPECT_THROW(rng.signed_value(33), Error);
  EXPECT_THROW(rng.unsigned_value(0), Error);
}

TEST(RngFork, DeterministicInParentAndStream) {
  Rng parent_a(42), parent_b(42);
  Rng child_a = parent_a.fork(3);
  Rng child_b = parent_b.fork(3);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(child_a.next_u64(), child_b.next_u64());
  }
}

TEST(RngFork, StreamsDiverge) {
  Rng parent(42);
  Rng a = parent.fork(0);
  Rng b = parent.fork(1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngFork, ChildDivergesFromParentStream) {
  Rng parent(7);
  Rng child = parent.fork(0);
  Rng parent_copy(7);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (child.next_u64() == parent_copy.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngFork, DoesNotAdvanceParent) {
  Rng a(9), b(9);
  (void)a.fork(1);
  (void)a.fork(2);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngFork, OrderOfConsumptionIrrelevant) {
  // Fork n streams up front, consume them in any order: values per stream
  // depend only on (parent state, stream index) — the property parallel
  // batch execution relies on.
  Rng parent(1234);
  std::vector<std::uint64_t> forward, backward;
  {
    Rng p = parent;
    std::vector<Rng> streams;
    for (std::uint64_t s = 0; s < 8; ++s) streams.push_back(p.fork(s));
    for (auto& r : streams) forward.push_back(r.next_u64());
  }
  {
    Rng p = parent;
    std::vector<Rng> streams;
    for (std::uint64_t s = 0; s < 8; ++s) streams.push_back(p.fork(s));
    for (std::size_t i = streams.size(); i-- > 0;) {
      backward.push_back(streams[i].next_u64());
    }
  }
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(forward[i], backward[7 - i]);
  }
}

// ---- The stream is pinned ----
//
// Digests of 256 draws (300 for signed_vector) per seed, taken from
// uniform's division-based path, which every span once took. A change to
// the stream moves every functional probe's operands and fails here
// first.

TEST(RngStream, SignedValueIsPinnedAtEveryWidth) {
  constexpr std::uint64_t kDigest[32] = {
    0x9C788992C7D454AEull, 0xB0699A4E006830D9ull, 0x3229551751BAC748ull,
    0x4619FE40BD2CDC00ull, 0x05DDE94E69446BFBull, 0x76BFA222EA1C335Cull,
    0xF030A049AF9AFCB8ull, 0x787D41D77B072AE0ull, 0x44E705EE94242FB4ull,
    0xC74AC1AADBF75B8Dull, 0xBBF08C7D715DC33Bull, 0xE83508D5B0EC8260ull,
    0x888732A49E34A2A6ull, 0x0CB5ED3FE5B8F836ull, 0x9777441726EE1F53ull,
    0x708DE0840AE8C392ull, 0x843D759B818781A8ull, 0x6145EB2D1C2E6F28ull,
    0xA0AA883BBDBEB2BCull, 0x41D6667EE728CB59ull, 0x67B7DE04C6FAEC72ull,
    0x8D4909D343709ED5ull, 0xE84D7ED1D5246620ull, 0x2CE54F23C4708113ull,
    0x0A94BD1666686F28ull, 0x41631B0616B6CEA0ull, 0x591E77723C048276ull,
    0x9B62DB0AF5AA4F2Dull, 0x6D879D31C4CCB4D9ull, 0x19A08D5264D747BCull,
    0x8508D9B226632F6Full, 0x227AF6605563BDE4ull,
  };
  for (int bits = 1; bits <= 32; ++bits) {
    Rng rng(1000 + static_cast<std::uint64_t>(bits));
    common::ConfigHash h;
    for (int i = 0; i < 256; ++i) h.i64(rng.signed_value(bits));
    EXPECT_EQ(h.h, kDigest[bits - 1]) << "bits=" << bits;
  }
}

TEST(RngStream, UnsignedValueIsPinnedAtEveryWidth) {
  constexpr std::uint64_t kDigest[32] = {
    0x267CD579D0DE6555ull, 0x8ADE69EFDED66142ull, 0xD3447E0D10C857EDull,
    0xBB7527B60FEB4DD5ull, 0x5D416C7808C59D02ull, 0xFFDFBE4EFED4937Eull,
    0x620DDFEBFD82B970ull, 0x4E0B497B4262A2F6ull, 0x880FA2078F590809ull,
    0x3547BB411195A542ull, 0xB749C51962616C6Eull, 0x28A32087A930CC45ull,
    0x81D926D600FE0D0Aull, 0x7B419DCA431E2894ull, 0x54280A341126DAE6ull,
    0x220522F50203DEACull, 0x681F1F8663AFEDE1ull, 0xA6552EA4DE827BD1ull,
    0x5BD52A1F04195E47ull, 0x1FE9CEAE22E63BA7ull, 0x521E0DEA4CCE1EBEull,
    0x5514F7E2667A2E48ull, 0x39CF5D601F3FED25ull, 0x2C6372196295DAD5ull,
    0x09F6AC967638081Cull, 0x2C71F2FFFBA4DB2Bull, 0xC172FF574A1C2FBFull,
    0x8DCB98FF2E23FE4Full, 0xBC6674EE49FE85DAull, 0xC3DA68ED4804C70Full,
    0xD23A0C608391B8ABull, 0x4D4DFE9F67577F65ull,
  };
  for (int bits = 1; bits <= 32; ++bits) {
    Rng rng(2000 + static_cast<std::uint64_t>(bits));
    common::ConfigHash h;
    for (int i = 0; i < 256; ++i) h.u64(rng.unsigned_value(bits));
    EXPECT_EQ(h.h, kDigest[bits - 1]) << "bits=" << bits;
  }
}

TEST(RngStream, SignedVectorIsPinnedAtEveryWidth) {
  constexpr std::uint64_t kDigest[32] = {
    0x6CB6CE9B0B02370Bull, 0xDB44E180F8FBFFBDull, 0x38CDE12B26807176ull,
    0x57722D9CA802364Bull, 0x77A0D37457768A62ull, 0x73DF4614115B5217ull,
    0xB5905C622C6E27FAull, 0x0439B6587EA27639ull, 0x9CC741FEA463154Cull,
    0x25A46C6007807907ull, 0xDE9F64E5672D61C8ull, 0xF943EF8A11A34FB6ull,
    0xDF73ED63DC771B6Cull, 0x378BA15CC9B41233ull, 0x0865F9AFED76222Bull,
    0xA1D91B83AA49EC8Bull, 0xC9C55967554AA2E4ull, 0x54394352B876D4C5ull,
    0xAE32F29C719D4845ull, 0x81B0E03A297E5E22ull, 0x54C595006A592C6Aull,
    0x6D09119B3B47B64Full, 0x5679AD17EAE02FA7ull, 0x6DDD43E73BDC1416ull,
    0xBC6F63A41EAB1CA2ull, 0xC73CC7DD5390D826ull, 0xB0E3F74D99814C50ull,
    0xDDFF802325E8CD26ull, 0x75D042FF8A5FB2CFull, 0x4084E11582316D49ull,
    0x0A438C3A58F5DCF5ull, 0x93D764D829E58542ull,
  };
  for (int bits = 1; bits <= 32; ++bits) {
    Rng rng(3000 + static_cast<std::uint64_t>(bits));
    common::ConfigHash h;
    for (const std::int32_t v : rng.signed_vector(300, bits)) h.i64(v);
    EXPECT_EQ(h.h, kDigest[bits - 1]) << "bits=" << bits;
  }
}

TEST(RngStream, SignedVectorIsSignedValueDrawnNTimes) {
  for (int bits = 1; bits <= 32; ++bits) {
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, std::size_t{77}}) {
      Rng a(static_cast<std::uint64_t>(bits) * 131 + n);
      Rng b = a;
      const std::vector<std::int32_t> v = a.signed_vector(n, bits);
      std::vector<std::int32_t> one_by_one;
      for (std::size_t i = 0; i < n; ++i) {
        one_by_one.push_back(b.signed_value(bits));
      }
      EXPECT_EQ(v, one_by_one) << "bits=" << bits << " n=" << n;
      // Both generators end in the same state.
      EXPECT_EQ(a.next_u64(), b.next_u64()) << "bits=" << bits;
    }
  }
}

TEST(RngStream, UniformIsPinnedOverPowerOfTwoAndOtherSpans) {
  struct Case {
    std::int64_t lo, hi;
    std::uint64_t digest;
  };
  // The first seven spans are powers of two (1, 2, 16, 16, 2^41, 2^62,
  // 2^63); the rest are not.
  constexpr Case kCases[] = {
      {0, 0, 0xD80AC658736BB725ull},
      {0, 1, 0x76961F801B0C7AA5ull},
      {-8, 7, 0x07297DA6E7D728E4ull},
      {5, 20, 0x732124723806B362ull},
      {-(std::int64_t{1} << 40), (std::int64_t{1} << 40) - 1,
       0x341E856731340FFEull},
      {0, (std::int64_t{1} << 62) - 1, 0xE9F23177D581FDF2ull},
      {INT64_MIN, -1, 0x53ACF64F9209BE26ull},
      {-5, 5, 0x952C79BB0590881Dull},
      {0, 2, 0x138E97DBFECD4259ull},
      {1, 1000, 0x2BF3F7943FDFC319ull},
      {-1000000007, 1000000007, 0xBCB4FAEF0E3ACF39ull},
      {0, std::int64_t{3} << 61, 0x56ED1124176E9F20ull},
      {INT64_MIN / 3, INT64_MAX / 3, 0x69ACC2DC9FD9CEAEull},
  };
  std::uint64_t seed = 4000;
  for (const Case& c : kCases) {
    Rng rng(seed++);
    common::ConfigHash h;
    for (int i = 0; i < 256; ++i) h.i64(rng.uniform(c.lo, c.hi));
    EXPECT_EQ(h.h, c.digest) << "[" << c.lo << ", " << c.hi << "]";
  }
}

// ---- Spans past INT64_MAX (computed in uint64, no signed overflow) ----

TEST(Rng, UniformOverTheFullRangeIsTheRawDraw) {
  Rng rng(17), raw(17);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(rng.uniform(INT64_MIN, INT64_MAX),
              static_cast<std::int64_t>(raw.next_u64()));
  }
}

TEST(Rng, UniformSpanPastInt64MaxIsExact) {
  // [-2, INT64_MAX] spans 2^63 + 2 values: both hi - lo and lo + offset
  // leave int64 for about half the draws.
  const std::uint64_t span = (std::uint64_t{1} << 63) + 2;
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  Rng rng(23), raw(23);
  bool saw_top_half = false;
  for (int i = 0; i < 256; ++i) {
    std::uint64_t r;
    do {
      r = raw.next_u64();
    } while (r >= limit);
    const std::int64_t v = rng.uniform(-2, INT64_MAX);
    EXPECT_EQ(v, static_cast<std::int64_t>(r % span - 2));
    EXPECT_GE(v, -2);
    saw_top_half |= v > INT64_MAX / 2;
  }
  EXPECT_TRUE(saw_top_half);
}

}  // namespace
}  // namespace bpvec
