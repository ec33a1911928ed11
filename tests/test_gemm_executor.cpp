// Integration: layers lowered to GEMM and executed element-by-element
// through a real CVU must be bit-identical to the reference operators.
#include "src/core/gemm_executor.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace bpvec::core
