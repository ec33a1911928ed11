// im2col lowering correctness: GEMM over lowered matrices must equal the
// direct convolution for arbitrary shapes — the property that lets the
// systolic array (and the CVU functional path) execute convolutions.
#include "src/dnn/gemm_lowering.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "src/common/error.h"
#include "src/common/rng.h"
#include "src/dnn/reference_ops.h"

namespace bpvec::dnn {
namespace {

TEST(Im2col, ShapeAndContent) {
  Tensor in(1, 3, 3);
  int v = 1;
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 3; ++x) in.at(0, y, x) = v++;
  }
  const ConvParams p{1, 3, 3, 1, 2, 2, 1, 0};
  const Matrix m = im2col(in, p);
  EXPECT_EQ(m.rows, 4);
  EXPECT_EQ(m.cols, 4);
  // First patch is the top-left 2×2 window.
  EXPECT_EQ(m.at(0, 0), 1);
  EXPECT_EQ(m.at(0, 1), 2);
  EXPECT_EQ(m.at(0, 2), 4);
  EXPECT_EQ(m.at(0, 3), 5);
}

TEST(Im2colRows, EqualsTheHeadOfTheFullLoweringAtEveryOffset) {
  Rng rng(41);
  // Padded + strided with a ragged last window, and a plain 1x1 case.
  for (const ConvParams& p : {ConvParams{3, 8, 6, 2, 3, 2, 2, 1},
                              ConvParams{2, 4, 5, 1, 1, 1, 1, 0}}) {
    Tensor in(p.in_c, p.in_h, p.in_w);
    for (auto& v : in.data()) v = rng.signed_value(8);
    const Matrix full = im2col(in, p);
    for (std::int64_t first = 0; first <= full.rows + 1; ++first) {
      for (const std::int64_t count : {0, 1, 2, 5, 100}) {
        // Expected: rows [first, first + count) of `full`, clamped.
        const std::int64_t rows =
            std::clamp<std::int64_t>(full.rows - first, 0, count);
        const auto begin = full.data.begin() +
                           static_cast<std::ptrdiff_t>(
                               std::min(first, full.rows) * full.cols);
        const std::vector<std::int32_t> expected(
            begin, begin + static_cast<std::ptrdiff_t>(rows * full.cols));
        const Matrix got = im2col_rows(in, p, first, count);
        EXPECT_EQ(got.rows, rows) << first << "+" << count;
        EXPECT_EQ(got.cols, full.cols);
        EXPECT_EQ(got.data, expected) << first << "+" << count;
      }
    }
  }
  const ConvParams p{1, 3, 3, 1, 2, 2, 1, 0};
  EXPECT_THROW(im2col_rows(Tensor(1, 3, 3), p, -1, 1), Error);
  EXPECT_THROW(im2col_rows(Tensor(1, 3, 3), p, 0, -1), Error);
}

TEST(WeightsAsMatrix, ShapeChecked) {
  const ConvParams p{2, 4, 4, 3, 2, 2, 1, 0};
  EXPECT_NO_THROW(
      weights_as_matrix(std::vector<std::int32_t>(3 * 2 * 2 * 2, 1), p));
  EXPECT_THROW(weights_as_matrix({1, 2, 3}, p), Error);
}

TEST(GemmReference, SmallKnownProduct) {
  Matrix a{2, 2, {1, 2, 3, 4}};
  Matrix b{2, 2, {5, 6, 7, 8}};
  // out[m][n] = Σ a[m][k]·b[n][k]
  const auto out = gemm_reference(a, b);
  EXPECT_EQ(out[0], 1 * 5 + 2 * 6);
  EXPECT_EQ(out[1], 1 * 7 + 2 * 8);
  EXPECT_EQ(out[2], 3 * 5 + 4 * 6);
  EXPECT_EQ(out[3], 3 * 7 + 4 * 8);
}

TEST(GemmReference, RejectsInnerMismatch) {
  Matrix a{1, 3, {1, 2, 3}};
  Matrix b{1, 2, {1, 2}};
  EXPECT_THROW(gemm_reference(a, b), Error);
}

struct LoweringCase {
  int in_c, in_hw, out_c, k, stride, pad;
};

class LoweringEquivalence : public ::testing::TestWithParam<LoweringCase> {};

TEST_P(LoweringEquivalence, GemmOverIm2colEqualsDirectConv) {
  const auto c = GetParam();
  const ConvParams p{c.in_c, c.in_hw, c.in_hw, c.out_c,
                     c.k,    c.k,     c.stride, c.pad};
  Rng rng(static_cast<std::uint64_t>(c.in_c * 1009 + c.in_hw * 31 + c.k));

  Tensor in(p.in_c, p.in_h, p.in_w);
  for (auto& v : in.data()) v = rng.signed_value(8);
  const auto weights = rng.signed_vector(
      static_cast<std::size_t>(p.out_c * p.in_c * p.kh * p.kw), 8);

  const auto direct = conv2d_reference(in, weights, p);
  const auto lowered =
      gemm_reference(im2col(in, p), weights_as_matrix(weights, p));

  // direct is [out_c][oh][ow]; lowered is [oh·ow][out_c].
  const int oh = p.out_h(), ow = p.out_w();
  ASSERT_EQ(direct.size(), lowered.size());
  for (int oc = 0; oc < p.out_c; ++oc) {
    for (int m = 0; m < oh * ow; ++m) {
      EXPECT_EQ(direct[static_cast<std::size_t>(oc) * oh * ow + m],
                lowered[static_cast<std::size_t>(m) * p.out_c + oc])
          << "oc=" << oc << " m=" << m;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LoweringEquivalence,
    ::testing::Values(LoweringCase{1, 5, 1, 3, 1, 0},
                      LoweringCase{1, 5, 1, 3, 1, 1},
                      LoweringCase{3, 8, 4, 3, 1, 1},
                      LoweringCase{3, 9, 2, 5, 2, 2},
                      LoweringCase{2, 7, 3, 1, 1, 0},
                      LoweringCase{4, 6, 8, 3, 2, 1},
                      LoweringCase{8, 4, 16, 4, 4, 0}));

}  // namespace
}  // namespace bpvec::dnn
