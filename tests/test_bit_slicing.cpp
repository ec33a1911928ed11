#include "src/bitslice/bit_slicing.h"

#include <gtest/gtest.h>

#include <limits>
#include <tuple>

#include "src/common/error.h"
#include "src/common/rng.h"

namespace bpvec::bitslice {
namespace {

TEST(NumSlices, CountsAndPadding) {
  EXPECT_EQ(num_slices(8, 2), 4);
  EXPECT_EQ(num_slices(8, 1), 8);
  EXPECT_EQ(num_slices(8, 4), 2);
  EXPECT_EQ(num_slices(3, 2), 2);  // padded
  EXPECT_EQ(padded_bits(3, 2), 4);
  EXPECT_EQ(padded_bits(8, 2), 8);
}

TEST(Fits, SignedRanges) {
  EXPECT_TRUE(fits_signed(127, 8));
  EXPECT_TRUE(fits_signed(-128, 8));
  EXPECT_FALSE(fits_signed(128, 8));
  EXPECT_FALSE(fits_signed(-129, 8));
  EXPECT_TRUE(fits_signed(0, 1));
  EXPECT_TRUE(fits_signed(-1, 1));
  EXPECT_FALSE(fits_signed(1, 1));
}

TEST(Fits, UnsignedRanges) {
  EXPECT_TRUE(fits_unsigned(255, 8));
  EXPECT_FALSE(fits_unsigned(256, 8));
  EXPECT_FALSE(fits_unsigned(-1, 8));
}

TEST(SliceSigned, KnownPattern) {
  // -93 = 0b10100011 in 8-bit two's complement. 2-bit slices LSB-first:
  // 11, 00, 10, 10(top, signed) = 3, 0, 2, -2.
  const auto s = slice_signed(-93, 8, 2);
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s[0], 3);
  EXPECT_EQ(s[1], 0);
  EXPECT_EQ(s[2], 2);
  EXPECT_EQ(s[3], -2);
  EXPECT_EQ(recompose(s, 2), -93);
}

TEST(SliceSigned, TopSliceCarriesSign) {
  const auto s = slice_signed(-1, 8, 2);
  EXPECT_EQ(s[0], 3);
  EXPECT_EQ(s[1], 3);
  EXPECT_EQ(s[2], 3);
  EXPECT_EQ(s[3], -1);  // sign-extended
}

TEST(SliceSigned, RejectsOutOfRange) {
  EXPECT_THROW(slice_signed(128, 8, 2), Error);
  EXPECT_THROW(slice_signed(-129, 8, 2), Error);
}

TEST(SliceUnsigned, KnownPattern) {
  const auto s = slice_unsigned(0xA3, 8, 4);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0], 0x3);
  EXPECT_EQ(s[1], 0xA);  // zero-extended, not signed
  EXPECT_EQ(recompose(s, 4), 0xA3);
}

TEST(SliceVector, LayoutIsSliceMajor) {
  const auto sv = slice_vector_signed({1, -2, 3}, 4, 2);
  EXPECT_EQ(sv.slices(), 2);
  EXPECT_EQ(sv.length(), 3u);
  EXPECT_EQ(sv.sub[0].size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(recompose_element(sv, i), std::vector<int>({1, -2, 3})[i]);
  }
}

TEST(SliceSigned, SingleSliceOperandIsTheValueItself) {
  // operand_bits == slice_bits: exactly one slice, and it IS the value —
  // signed interpretation applies because the only slice is the top one.
  for (const int bits : {1, 2, 4, 8, 16}) {
    const std::int32_t lo = -(std::int32_t{1} << (bits - 1));
    const std::int32_t hi = (std::int32_t{1} << (bits - 1)) - 1;
    for (const std::int32_t v : {lo, std::int32_t{0}, hi}) {
      const auto s = slice_signed(v, bits, bits);
      ASSERT_EQ(s.size(), 1u) << "bits=" << bits;
      EXPECT_EQ(s[0], v) << "bits=" << bits;
      EXPECT_EQ(recompose(s, bits), v) << "bits=" << bits;
    }
  }
}

TEST(SliceSigned, SignedRangeBoundariesSliceExactly) {
  // The extreme values of each width are where a sign-handling bug shows
  // first: -2^(n-1) has only the sign bit set, 2^(n-1)-1 everything else.
  for (const int bits : {2, 4, 6, 8, 12, 16}) {
    const std::int32_t min_v = -(std::int32_t{1} << (bits - 1));
    const std::int32_t max_v = (std::int32_t{1} << (bits - 1)) - 1;
    for (const int alpha : {1, 2, 4}) {
      const auto s_min = slice_signed(min_v, bits, alpha);
      const auto s_max = slice_signed(max_v, bits, alpha);
      EXPECT_EQ(recompose(s_min, alpha), min_v)
          << "bits=" << bits << " a=" << alpha;
      EXPECT_EQ(recompose(s_max, alpha), max_v)
          << "bits=" << bits << " a=" << alpha;
      // min = 100…0: every lower slice zero, top slice = -2^(α-1) when
      // the width divides evenly (the sign bit tops its slice).
      if (bits % alpha == 0) {
        for (std::size_t j = 0; j + 1 < s_min.size(); ++j) {
          EXPECT_EQ(s_min[j], 0);
        }
        EXPECT_EQ(s_min.back(), -(std::int32_t{1} << (alpha - 1)));
      }
    }
  }
}

TEST(SliceUnsigned, TopSliceStaysUnsignedWhereSignedWouldGoNegative) {
  // 0xF in the top slice: signed slicing reads it as -1, unsigned must
  // keep +15. This is the unsigned-activation path of Eq. 3.
  const auto u = slice_unsigned(0xF3u, 8, 4);
  ASSERT_EQ(u.size(), 2u);
  EXPECT_EQ(u[1], 0xF);
  EXPECT_EQ(recompose(u, 4), 0xF3);
  const auto s = slice_signed(-13, 8, 4);  // same bit pattern 0xF3
  EXPECT_EQ(s[1], -1);
  EXPECT_EQ(recompose(s, 4), -13);

  // Full-range unsigned max: every slice saturated at 2^α - 1.
  const auto m = slice_unsigned(0xFFFFu, 16, 4);
  for (const auto slice : m) EXPECT_EQ(slice, 0xF);
  EXPECT_EQ(recompose(m, 4), 0xFFFF);

  // Single-slice unsigned operand: the value itself, never sign-read.
  const auto one = slice_unsigned(255u, 8, 8);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 255);
  EXPECT_EQ(recompose(one, 8), 255);
}

TEST(SliceWidths, RejectsOperandsWiderThan32Bits) {
  // Operands are int32_t / uint32_t: a wider operand_bits used to shift a
  // 32-bit value by 32 (unsigned) or build 1 << 64 (signed).
  EXPECT_THROW(slice_unsigned(5u, 40, 8), Error);
  EXPECT_THROW(slice_unsigned(5u, 33, 1), Error);
  EXPECT_THROW(slice_signed(-5, 62, 8), Error);
  EXPECT_THROW(slice_signed(-5, 33, 2), Error);
  EXPECT_THROW(slice_signed(-5, 8, 64), Error);  // slice wider than 32
  EXPECT_THROW(slice_vector_signed({1, -5}, 62, 8), Error);
  EXPECT_THROW(slice_vector_unsigned({1, 5}, 40, 8), Error);
  EXPECT_THROW(slice_signed(0, 0, 2), Error);

  // 32 bits is the widest operand, and it still slices exactly.
  const std::int32_t min32 = std::numeric_limits<std::int32_t>::min();
  EXPECT_EQ(recompose(slice_signed(min32, 32, 8), 8), min32);
  EXPECT_EQ(recompose(slice_unsigned(0xFFFFFFFFu, 32, 8), 8), 0xFFFFFFFFll);
  EXPECT_EQ(recompose(slice_signed(-5, 32, 32), 32), -5);
}

// ---- slice_vector_* builds in place what slice_signed/unsigned return ----

void expect_matches_scalar_slicing(const std::vector<std::int32_t>& values,
                                   int bits, int alpha, bool is_signed) {
  const SlicedVector sv = is_signed
                              ? slice_vector_signed(values, bits, alpha)
                              : slice_vector_unsigned(values, bits, alpha);
  ASSERT_EQ(sv.slices(), num_slices(bits, alpha));
  ASSERT_EQ(sv.length(), values.size());
  EXPECT_EQ(sv.operand_bits, bits);
  EXPECT_EQ(sv.slice_bits, alpha);
  EXPECT_EQ(sv.is_signed, is_signed);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const auto oracle =
        is_signed ? slice_signed(values[i], bits, alpha)
                  : slice_unsigned(static_cast<std::uint32_t>(values[i]),
                                   bits, alpha);
    for (int j = 0; j < sv.slices(); ++j) {
      ASSERT_EQ(sv.sub[static_cast<std::size_t>(j)][i],
                oracle[static_cast<std::size_t>(j)])
          << "bits=" << bits << " a=" << alpha << " signed=" << is_signed
          << " value=" << values[i] << " slice=" << j;
    }
  }
}

class SliceVectorMatchesScalar
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SliceVectorMatchesScalar, EveryInRangeValue) {
  const auto [bits, alpha] = GetParam();
  std::vector<std::int32_t> signed_values, unsigned_values;
  for (std::int64_t v = -(std::int64_t{1} << (bits - 1));
       v < (std::int64_t{1} << (bits - 1)); ++v) {
    signed_values.push_back(static_cast<std::int32_t>(v));
  }
  for (std::int64_t v = 0; v < (std::int64_t{1} << bits); ++v) {
    unsigned_values.push_back(static_cast<std::int32_t>(v));
  }
  expect_matches_scalar_slicing(signed_values, bits, alpha, true);
  expect_matches_scalar_slicing(unsigned_values, bits, alpha, false);
}

TEST_P(SliceVectorMatchesScalar, OneOutOfRangeElementAnywhereThrows) {
  const auto [bits, alpha] = GetParam();
  const std::int32_t signed_over = std::int32_t{1} << (bits - 1);
  const std::int32_t unsigned_over = std::int32_t{1} << bits;
  for (const std::size_t at : {0, 3, 7}) {
    std::vector<std::int32_t> values(8, 0);
    values[at] = signed_over;
    EXPECT_THROW(slice_vector_signed(values, bits, alpha), Error) << at;
    values[at] = -signed_over - 1;
    EXPECT_THROW(slice_vector_signed(values, bits, alpha), Error) << at;
    values[at] = unsigned_over;
    EXPECT_THROW(slice_vector_unsigned(values, bits, alpha), Error) << at;
    values[at] = -1;
    EXPECT_THROW(slice_vector_unsigned(values, bits, alpha), Error) << at;
  }
}

INSTANTIATE_TEST_SUITE_P(
    BitsByAlpha, SliceVectorMatchesScalar,
    ::testing::Combine(::testing::Range(1, 11),
                       ::testing::Values(1, 2, 3, 4, 8)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return "bits" + std::to_string(std::get<0>(info.param)) + "_alpha" +
             std::to_string(std::get<1>(info.param));
    });

TEST(SliceVectorMatchesScalar, SampledWideOperands) {
  for (const int bits : {16, 32}) {
    for (const int alpha : {1, 2, 3, 4, 8}) {
      Rng rng(static_cast<std::uint64_t>(bits * 577 + alpha));
      auto signed_values = rng.signed_vector(1000, bits);
      std::vector<std::int32_t> unsigned_values;
      for (int i = 0; i < 1000; ++i) {
        unsigned_values.push_back(
            static_cast<std::int32_t>(rng.unsigned_value(bits)));
      }
      // The range ends, where sign handling goes wrong first.
      const std::int64_t half = std::int64_t{1} << (bits - 1);
      signed_values.push_back(static_cast<std::int32_t>(-half));
      signed_values.push_back(static_cast<std::int32_t>(half - 1));
      unsigned_values.push_back(
          static_cast<std::int32_t>((std::int64_t{1} << bits) - 1));
      expect_matches_scalar_slicing(signed_values, bits, alpha, true);
      expect_matches_scalar_slicing(unsigned_values, bits, alpha, false);
    }
  }
}

// ---- Property: slice → recompose is the identity over full sweeps ----

class SliceRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SliceRoundTrip, SignedIdentityExhaustiveOrSampled) {
  const auto [bits, alpha] = GetParam();
  const std::int64_t lo = -(std::int64_t{1} << (bits - 1));
  const std::int64_t hi = (std::int64_t{1} << (bits - 1)) - 1;
  if (bits <= 10) {
    for (std::int64_t v = lo; v <= hi; ++v) {
      const auto s =
          slice_signed(static_cast<std::int32_t>(v), bits, alpha);
      EXPECT_EQ(static_cast<int>(s.size()), num_slices(bits, alpha));
      EXPECT_EQ(recompose(s, alpha), v) << "bits=" << bits << " a=" << alpha;
    }
  } else {
    Rng rng(static_cast<std::uint64_t>(bits * 131 + alpha));
    for (int i = 0; i < 2000; ++i) {
      const std::int32_t v = rng.signed_value(bits);
      EXPECT_EQ(recompose(slice_signed(v, bits, alpha), alpha), v);
    }
  }
}

TEST_P(SliceRoundTrip, UnsignedIdentity) {
  const auto [bits, alpha] = GetParam();
  Rng rng(static_cast<std::uint64_t>(bits * 977 + alpha));
  for (int i = 0; i < 2000; ++i) {
    const std::uint32_t v = rng.unsigned_value(bits);
    EXPECT_EQ(recompose(slice_unsigned(v, bits, alpha), alpha),
              static_cast<std::int64_t>(v));
  }
}

TEST_P(SliceRoundTrip, SliceRangeInvariant) {
  const auto [bits, alpha] = GetParam();
  Rng rng(static_cast<std::uint64_t>(bits * 31 + alpha));
  const std::int32_t lo_top = -(std::int32_t{1} << (alpha - 1));
  const std::int32_t hi_any = (std::int32_t{1} << alpha) - 1;
  for (int i = 0; i < 500; ++i) {
    const auto s = slice_signed(rng.signed_value(bits), bits, alpha);
    for (std::size_t j = 0; j < s.size(); ++j) {
      if (j + 1 == s.size()) {
        EXPECT_GE(s[j], lo_top);
        EXPECT_LT(s[j], std::int32_t{1} << (alpha - 1));
      } else {
        EXPECT_GE(s[j], 0);
        EXPECT_LE(s[j], hi_any);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BitsByAlpha, SliceRoundTrip,
    ::testing::Combine(::testing::Values(2, 3, 4, 5, 6, 7, 8, 12, 16),
                       ::testing::Values(1, 2, 4)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return "bits" + std::to_string(std::get<0>(info.param)) + "_alpha" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace bpvec::bitslice
