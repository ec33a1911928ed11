// Integration: layers lowered to GEMM and executed element-by-element
// through a real CVU must be bit-identical to the reference operators.
#include "src/core/gemm_executor.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/error.h"
#include "src/common/rng.h"
#include "src/dnn/quantize.h"
#include "src/dnn/reference_ops.h"

namespace bpvec::core {
namespace {

TEST(GemmExecutor, MatchesGemmReference) {
  Rng rng(5);
  dnn::Matrix a{12, 40, {}};
  dnn::Matrix b{9, 40, {}};
  a.data = rng.signed_vector(static_cast<std::size_t>(a.rows * a.cols), 8);
  b.data = rng.signed_vector(static_cast<std::size_t>(b.rows * b.cols), 8);

  bitslice::Cvu cvu({2, 8, 16});
  GemmExecutionStats stats;
  const auto out = execute_gemm(cvu, a, b, 8, 8, &stats);
  EXPECT_EQ(out, dnn::gemm_reference(a, b));
  // 40 elements at 16/cycle → 3 cycles per dot product, 108 total.
  EXPECT_EQ(stats.cvu_cycles, 12 * 9 * 3);
  EXPECT_GT(stats.mult_ops, 0);
}

TEST(GemmExecutor, QuantizedConvThroughCvuMatchesReference) {
  Rng rng(11);
  const dnn::ConvParams p{3, 8, 8, 4, 3, 3, 1, 1};

  dnn::Tensor input(p.in_c, p.in_h, p.in_w);
  for (auto& v : input.data()) v = rng.signed_value(4);
  const auto weights = rng.signed_vector(
      static_cast<std::size_t>(p.out_c * p.in_c * p.kh * p.kw), 4);

  const auto reference = dnn::conv2d_reference(input, weights, p);

  bitslice::Cvu cvu({2, 8, 16});
  const auto lowered = execute_gemm(cvu, dnn::im2col(input, p),
                                    dnn::weights_as_matrix(weights, p),
                                    /*x_bits=*/4, /*w_bits=*/4);

  const int oh = p.out_h(), ow = p.out_w();
  for (int oc = 0; oc < p.out_c; ++oc) {
    for (int m = 0; m < oh * ow; ++m) {
      EXPECT_EQ(reference[static_cast<std::size_t>(oc) * oh * ow + m],
                lowered[static_cast<std::size_t>(m) * p.out_c + oc]);
    }
  }
}

TEST(GemmExecutor, MixedBitwidthGemm) {
  Rng rng(13);
  dnn::Matrix a{5, 64, {}};
  dnn::Matrix b{7, 64, {}};
  a.data = rng.signed_vector(static_cast<std::size_t>(a.rows * a.cols), 8);
  b.data = rng.signed_vector(static_cast<std::size_t>(b.rows * b.cols), 2);

  bitslice::Cvu cvu({2, 8, 16});
  GemmExecutionStats stats;
  const auto out = execute_gemm(cvu, a, b, 8, 2, &stats);
  EXPECT_EQ(out, dnn::gemm_reference(a, b));
  // 8×2 mode: 4 clusters × 16 lanes = 64 elements per cycle → 1 cycle per
  // dot product.
  EXPECT_EQ(stats.cvu_cycles, 5 * 7);
  EXPECT_DOUBLE_EQ(stats.utilization, 1.0);
}

TEST(GemmExecutor, QuantizedFcEndToEnd) {
  // Float activations/weights → symmetric quantization → CVU GEMM →
  // dequantize ≈ float reference within quantization error.
  Rng rng(17);
  const int in = 32, out = 6;
  std::vector<double> x_real, w_real;
  for (int i = 0; i < in; ++i) x_real.push_back(rng.uniform01() * 2 - 1);
  for (int i = 0; i < in * out; ++i) {
    w_real.push_back(rng.uniform01() * 2 - 1);
  }
  const auto xq = dnn::quantize_symmetric(x_real, 8);
  const auto wq = dnn::quantize_symmetric(w_real, 8);

  dnn::Matrix a{1, in, xq.values};
  dnn::Matrix b{out, in, wq.values};
  bitslice::Cvu cvu({2, 8, 16});
  const auto q_out = execute_gemm(cvu, a, b, 8, 8);

  for (int n = 0; n < out; ++n) {
    double expected = 0;
    for (int k = 0; k < in; ++k) expected += x_real[k] * w_real[n * in + k];
    const double got = static_cast<double>(q_out[static_cast<std::size_t>(n)]) *
                       xq.scale * wq.scale;
    EXPECT_NEAR(got, expected, 0.05) << "n=" << n;
  }
}

TEST(GemmExecutor, OutOfRangeOperandInAnyRowThrows) {
  // Each row is sliced once per GEMM; slicing still range-checks every
  // element of every a row and every b row.
  Rng rng(19);
  dnn::Matrix a{3, 20, rng.signed_vector(60, 4)};
  dnn::Matrix b{4, 20, rng.signed_vector(80, 4)};
  bitslice::Cvu cvu({2, 8, 16});
  ASSERT_EQ(execute_gemm(cvu, a, b, 4, 4), dnn::gemm_reference(a, b));

  dnn::Matrix bad_a = a;
  bad_a.at(2, 19) = 8;  // 4-bit signed range is [-8, 7]
  EXPECT_THROW(execute_gemm(cvu, bad_a, b, 4, 4), Error);
  dnn::Matrix bad_b = b;
  bad_b.at(3, 0) = -9;
  EXPECT_THROW(execute_gemm(cvu, a, bad_b, 4, 4), Error);
}

// ---- Exact at the edge of the NBVE's int32 accumulator ----
//
// An NBVE sums a cycle in int32 only when lanes · max|slice product| ≤
// INT32_MAX, with max|slice product| = hi², hi = 2^α - 1; otherwise in
// int64. Each case runs one cycle of 2α-bit operands (two α-bit slices)
// on a CVU with exactly K lanes, at the operand extremes: the maximum
// puts the lower slice at hi, the minimum puts the top slice at lo =
// -2^(α-1). The (hi, hi) engine's sum is then K · hi², which fits int32
// at the largest K the bound admits and leaves it one lane later.
// For α ≤ 5 that K is at least 2.2M lanes, more than a unit test under
// the sanitizers should allocate and sum, so those α run at 2^16 lanes,
// inside the bound.

std::int64_t largest_narrow_lanes(int alpha) {
  const std::int64_t hi = (std::int64_t{1} << alpha) - 1;
  return INT32_MAX / (hi * hi);
}

TEST(GemmExecutor, ExactAtTheNbveAccumulatorBound) {
  constexpr std::int64_t kMaxTestLanes = std::int64_t{1} << 20;
  for (int alpha = 1; alpha <= 8; ++alpha) {
    const std::int64_t bound = largest_narrow_lanes(alpha);
    std::vector<std::int64_t> lane_counts{std::int64_t{1} << 16};
    if (bound + 1 <= kMaxTestLanes) lane_counts = {bound, bound + 1};
    const int bits = 2 * alpha;
    const std::int32_t max_v = (std::int32_t{1} << (bits - 1)) - 1;
    const std::int32_t min_v = -(std::int32_t{1} << (bits - 1));
    for (const std::int64_t k : lane_counts) {
      bitslice::Cvu cvu({alpha, bits, static_cast<int>(k)});
      for (const std::int32_t xv : {max_v, min_v}) {
        for (const std::int32_t wv : {max_v, min_v}) {
          SCOPED_TRACE("alpha " + std::to_string(alpha) + ", K " +
                       std::to_string(k) + ", x " + std::to_string(xv) +
                       ", w " + std::to_string(wv));
          const dnn::Matrix a{1, k, std::vector<std::int32_t>(
                                        static_cast<std::size_t>(k), xv)};
          const dnn::Matrix b{1, k, std::vector<std::int32_t>(
                                        static_cast<std::size_t>(k), wv)};
          GemmExecutionStats stats;
          EXPECT_EQ(execute_gemm(cvu, a, b, bits, bits, &stats),
                    std::vector<std::int64_t>{k * xv * wv});
          EXPECT_EQ(stats.cvu_cycles, 1);
        }
      }
    }
  }
}

TEST(GemmExecutor, ExactWithEverySliceAtTheDatapathExtremes) {
  // Slices built by hand, every slice (lower ones too) at lo or at hi:
  // every engine then sums K · lo², K · lo · hi or K · hi², at and one
  // lane past the int32 bound. The oracle recomposes each element.
  for (int alpha = 6; alpha <= 8; ++alpha) {
    const std::int32_t lo = -(std::int32_t{1} << (alpha - 1));
    const std::int32_t hi = (std::int32_t{1} << alpha) - 1;
    const std::int64_t bound = largest_narrow_lanes(alpha);
    for (const std::int64_t k : {bound, bound + 1}) {
      bitslice::Cvu cvu({alpha, 2 * alpha, static_cast<int>(k)});
      const auto sliced = [&](std::int32_t slice) {
        bitslice::SlicedVector s;
        s.operand_bits = 2 * alpha;
        s.slice_bits = alpha;
        s.sub.assign(2, std::vector<std::int32_t>(
                            static_cast<std::size_t>(k), slice));
        return s;
      };
      for (const std::int32_t xs : {lo, hi}) {
        for (const std::int32_t ws : {lo, hi}) {
          SCOPED_TRACE("alpha " + std::to_string(alpha) + ", K " +
                       std::to_string(k) + ", slices " + std::to_string(xs) +
                       " x " + std::to_string(ws));
          const bitslice::SlicedVector x = sliced(xs), w = sliced(ws);
          const std::int64_t oracle = k *
                                      bitslice::recompose_element(x, 0) *
                                      bitslice::recompose_element(w, 0);
          EXPECT_EQ(cvu.dot_product(x, w).value, oracle);
        }
      }
    }
  }
}

}  // namespace
}  // namespace bpvec::core
