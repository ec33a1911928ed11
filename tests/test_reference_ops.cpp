#include "src/dnn/reference_ops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "src/common/error.h"
#include "src/common/rng.h"
#include "src/dnn/quantize.h"

namespace bpvec::dnn {
namespace {

/// The textbook convolution: one bounds-checked at_padded load per MAC.
/// Slow but obviously right — the oracle the pad-once conv2d_reference
/// is swept against.
std::vector<std::int64_t> conv_at_padded(
    const Tensor& input, const std::vector<std::int32_t>& weights,
    const ConvParams& p) {
  const int oh = p.out_h(), ow = p.out_w();
  std::vector<std::int64_t> out(
      static_cast<std::size_t>(p.out_c) * oh * ow, 0);
  for (int oc = 0; oc < p.out_c; ++oc) {
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        std::int64_t acc = 0;
        for (int ic = 0; ic < p.in_c; ++ic) {
          for (int ky = 0; ky < p.kh; ++ky) {
            for (int kx = 0; kx < p.kw; ++kx) {
              const int iy = oy * p.stride - p.pad + ky;
              const int ix = ox * p.stride - p.pad + kx;
              const std::size_t wi =
                  ((static_cast<std::size_t>(oc) * p.in_c + ic) * p.kh + ky) *
                      p.kw +
                  kx;
              acc += std::int64_t{input.at_padded(ic, iy, ix)} * weights[wi];
            }
          }
        }
        out[(static_cast<std::size_t>(oc) * oh + oy) * ow + ox] = acc;
      }
    }
  }
  return out;
}

/// fc_reference's oracle: one int64 multiply-add per MAC.
std::vector<std::int64_t> fc_wide(const std::vector<std::int32_t>& input,
                                  const std::vector<std::int32_t>& weights,
                                  const FcParams& p) {
  std::vector<std::int64_t> out(static_cast<std::size_t>(p.out_features), 0);
  for (int n = 0; n < p.out_features; ++n) {
    for (int k = 0; k < p.in_features; ++k) {
      out[static_cast<std::size_t>(n)] +=
          std::int64_t{input[static_cast<std::size_t>(k)]} *
          weights[static_cast<std::size_t>(n) * p.in_features + k];
    }
  }
  return out;
}

/// rnn_step_reference's oracle: int64 accumulation over [x | h], then
/// the same requantize.
std::vector<std::int32_t> rnn_step_wide(
    const std::vector<std::int32_t>& x, const std::vector<std::int32_t>& h,
    const std::vector<std::int32_t>& weights, int hidden, int shift,
    int out_bits) {
  std::vector<std::int32_t> xh = x;
  xh.insert(xh.end(), h.begin(), h.end());
  std::vector<std::int32_t> out;
  for (int n = 0; n < hidden; ++n) {
    std::int64_t acc = 0;
    for (std::size_t i = 0; i < xh.size(); ++i) {
      acc += std::int64_t{xh[i]} * weights[n * xh.size() + i];
    }
    out.push_back(requantize(acc, shift, out_bits));
  }
  return out;
}

/// Checks all three dot-product ops against their oracles on one K-long
/// operand pair: conv as in_c = K channels of a 1×1 input under a 1×1
/// kernel, fc with one output row, and an RNN step with x = the first
/// half of `x` and h = the rest. A second output row or channel carries
/// the negated weights, so every case covers both signs of its sum. The
/// RNN requantizes with shift 1 into 31 bits, which still tells a sum
/// past INT32_MAX from one that wrapped to negative.
void expect_all_ops_exact(const std::vector<std::int32_t>& x,
                          const std::vector<std::int32_t>& w,
                          const std::string& what) {
  ASSERT_EQ(x.size(), w.size());
  const int k = static_cast<int>(x.size());
  std::vector<std::int32_t> rows = w;
  for (const std::int32_t v : w) {
    // Negating INT32_MIN is undefined; INT32_MAX stands in for it.
    rows.push_back(v == INT32_MIN ? INT32_MAX : -v);
  }

  const ConvParams cp{k, 1, 1, 2, 1, 1, 1, 0};
  Tensor in(k, 1, 1);
  in.data() = x;
  EXPECT_EQ(conv2d_reference(in, rows, cp), conv_at_padded(in, rows, cp))
      << what;

  const FcParams fp{k, 2};
  EXPECT_EQ(fc_reference(x, rows, fp), fc_wide(x, rows, fp)) << what;

  const auto half = static_cast<std::ptrdiff_t>(x.size() / 2);
  const std::vector<std::int32_t> xs(x.begin(), x.begin() + half);
  const std::vector<std::int32_t> hs(x.begin() + half, x.end());
  EXPECT_EQ(rnn_step_reference(xs, hs, rows, 2, /*shift=*/1, /*out_bits=*/31),
            rnn_step_wide(xs, hs, rows, 2, 1, 31))
      << what;
}

TEST(ReferenceNarrowing, SeededOperandsAtEveryWidthFrom1To16Bits) {
  Rng rng(1618);
  for (int x_bits = 1; x_bits <= 16; ++x_bits) {
    for (int w_bits = 1; w_bits <= 16; ++w_bits) {
      const std::string what =
          std::to_string(x_bits) + "x" + std::to_string(w_bits) + " bits";
      // Conv with a real window: 3×3 kernel, pad 1, K up to 72.
      ConvParams cp;
      cp.in_c = static_cast<int>(rng.uniform(1, 8));
      cp.in_h = cp.in_w = 5;
      cp.out_c = 3;
      cp.kh = cp.kw = 3;
      cp.stride = 1;
      cp.pad = 1;
      Tensor in(cp.in_c, cp.in_h, cp.in_w);
      for (auto& v : in.data()) v = rng.signed_value(x_bits);
      const auto cw = rng.signed_vector(
          static_cast<std::size_t>(cp.out_c) * cp.in_c * 9, w_bits);
      EXPECT_EQ(conv2d_reference(in, cw, cp), conv_at_padded(in, cw, cp))
          << what;

      // K up to 2048, so 16-bit operands take the wide path.
      const FcParams fp{static_cast<int>(rng.uniform(1, 2048)), 3};
      const auto fx = rng.signed_vector(fp.in_features, x_bits);
      const auto fw = rng.signed_vector(
          static_cast<std::size_t>(fp.in_features) * fp.out_features, w_bits);
      EXPECT_EQ(fc_reference(fx, fw, fp), fc_wide(fx, fw, fp)) << what;

      const int input = static_cast<int>(rng.uniform(1, 40));
      const int hidden = static_cast<int>(rng.uniform(1, 16));
      const auto x = rng.signed_vector(input, x_bits);
      const auto h = rng.signed_vector(hidden, x_bits);
      const auto rw = rng.signed_vector(
          static_cast<std::size_t>(hidden) * (input + hidden), w_bits);
      EXPECT_EQ(rnn_step_reference(x, h, rw, hidden, /*shift=*/3, 31),
                rnn_step_wide(x, h, rw, hidden, 3, 31))
          << what;
    }
  }
}

TEST(ReferenceNarrowing, Int16Edges) {
  constexpr std::int32_t kMax = 32767, kMin = -32768;
  // 2·32767² = 2147352578 ≤ INT32_MAX: the largest all-±32767 sum the
  // narrow path takes.
  expect_all_ops_exact({kMax, kMax}, {kMax, kMax}, "2 x 32767^2");
  expect_all_ops_exact({kMax, -kMax}, {-kMax, kMax}, "2 x -32767^2");
  // One term more is past the bound.
  expect_all_ops_exact({kMax, kMax, kMax}, {kMax, kMax, kMax},
                       "3 x 32767^2");
  // -32768 is an int16 value, but its magnitude is not, so any operand
  // holding it takes the wide path: 2·(-32768)² = 2^31.
  expect_all_ops_exact({kMin, kMin}, {kMin, kMin}, "2 x (-32768)^2");
  expect_all_ops_exact({kMin, 1}, {1, kMin}, "-32768 in x and in w");
  expect_all_ops_exact({kMax, kMin, kMax, kMin}, {kMin, kMax, kMax, kMin},
                       "mixed int16 edges");
}

TEST(ReferenceNarrowing, Int32Extremes) {
  // The wide path must stay exact for any int32 operand whose sum fits
  // int64.
  expect_all_ops_exact({INT32_MIN, INT32_MAX, 1}, {INT32_MIN, -1, INT32_MAX},
                       "INT32_MIN^2 and INT32_MAX terms");
  expect_all_ops_exact({INT32_MAX, INT32_MAX}, {INT32_MAX, INT32_MAX},
                       "2 x INT32_MAX^2");
  expect_all_ops_exact({INT32_MIN, 0, 0, 0}, {0, INT32_MIN, 7, -7},
                       "extremes against zeros");
  // A large activation against all-zero weights: the bound holds for any
  // max|x| ≤ INT16_MAX when max|w| is 0.
  expect_all_ops_exact({32767, -32767, 32767}, {0, 0, 0}, "zero weights");
}

TEST(ReferenceNarrowing, SameSignSumsAtAndPastInt32Max) {
  // 2147483646 = 18·10261·11627: 18 equal products make INT32_MAX − 1
  // with the bound K·max|x|·max|w| exactly equal to the sum, so the
  // narrow path takes it.
  std::vector<std::int32_t> x(18, 10261), w(18, 11627);
  expect_all_ops_exact(x, w, "INT32_MAX - 1, narrow");
  // One more 1·1 term lands exactly at INT32_MAX and pushes the bound
  // past it: the fallback must take it.
  x.push_back(1);
  w.push_back(1);
  expect_all_ops_exact(x, w, "INT32_MAX");
  // One step past INT32_MAX.
  w.back() = 2;
  expect_all_ops_exact(x, w, "INT32_MAX + 1");
  // The same edge reached through K alone, with max|w| = 1:
  // 65538·32767 = INT32_MAX − 1 is the longest all-32767 sum the bound
  // admits.
  std::vector<std::int32_t> xs(65538, 32767), ws(65538, 1);
  expect_all_ops_exact(xs, ws, "65538 x 32767, narrow");
  // One more 1·1 term: exactly INT32_MAX, and past the bound.
  xs.push_back(1);
  ws.push_back(1);
  expect_all_ops_exact(xs, ws, "65538 x 32767 + 1");
  xs.back() = 2;
  expect_all_ops_exact(xs, ws, "65538 x 32767 + 2");
}

TEST(ConvReference, IdentityKernelCopiesInput) {
  Tensor in(1, 3, 3);
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 3; ++x) in.at(0, y, x) = y * 3 + x + 1;
  }
  const ConvParams p{1, 3, 3, 1, 1, 1, 1, 0};
  const auto out = conv2d_reference(in, {1}, p);
  for (int i = 0; i < 9; ++i) EXPECT_EQ(out[i], i + 1);
}

TEST(ConvReference, HandComputed3x3) {
  Tensor in(1, 3, 3);
  int v = 1;
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 3; ++x) in.at(0, y, x) = v++;
  }
  // All-ones 3×3 kernel, no padding → single output = sum 1..9 = 45.
  const ConvParams p{1, 3, 3, 1, 3, 3, 1, 0};
  const auto out = conv2d_reference(in, std::vector<std::int32_t>(9, 1), p);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 45);
}

TEST(ConvReference, PaddingContributesZeros) {
  Tensor in(1, 2, 2);
  in.at(0, 0, 0) = 5;
  const ConvParams p{1, 2, 2, 1, 3, 3, 1, 1};
  const auto out = conv2d_reference(in, std::vector<std::int32_t>(9, 1), p);
  ASSERT_EQ(out.size(), 4u);
  // Every 3×3 window covers the single nonzero value.
  for (auto o : out) EXPECT_EQ(o, 5);
}

TEST(ConvReference, StrideSkipsPositions) {
  Tensor in(1, 4, 4);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) in.at(0, y, x) = 1;
  }
  const ConvParams p{1, 4, 4, 1, 2, 2, 2, 0};
  const auto out = conv2d_reference(in, {1, 1, 1, 1}, p);
  ASSERT_EQ(out.size(), 4u);
  for (auto o : out) EXPECT_EQ(o, 4);
}

TEST(ConvReference, MultiChannelAccumulates) {
  Tensor in(2, 1, 1);
  in.at(0, 0, 0) = 3;
  in.at(1, 0, 0) = -4;
  const ConvParams p{2, 1, 1, 1, 1, 1, 1, 0};
  const auto out = conv2d_reference(in, {2, 5}, p);
  EXPECT_EQ(out[0], 6 - 20);
}

TEST(ConvReference, MatchesTheAtPaddedOracleOverASeededShapeSweep) {
  Rng rng(2024);
  int ragged = 0, all_padding = 0, overhang = 0, checked = 0;
  for (int trial = 0; trial < 400; ++trial) {
    ConvParams p;
    p.in_c = trial % 5 == 0 ? 1 : static_cast<int>(rng.uniform(1, 6));
    p.kh = trial % 7 == 0 ? 1 : static_cast<int>(rng.uniform(1, 5));
    p.kw = trial % 7 == 0 ? 1 : static_cast<int>(rng.uniform(1, 5));
    p.stride = static_cast<int>(rng.uniform(1, 4));
    // Pad reaches past kh/2 so some windows lie wholly in the padding.
    p.pad = static_cast<int>(
        rng.uniform(0, std::max(p.kh, p.kw) / 2 + 2));
    p.in_h = static_cast<int>(rng.uniform(1, 9));
    p.in_w = static_cast<int>(rng.uniform(1, 9));
    p.out_c = static_cast<int>(rng.uniform(1, 4));
    // Only shapes with no output are skipped. Windows that overhang the
    // padded input stay in: out_h() admits them when the stride
    // truncates a negative quotient to zero.
    if (p.out_h() < 1 || p.out_w() < 1) continue;
    ++checked;
    if ((p.in_h + 2 * p.pad - p.kh) % p.stride != 0 ||
        (p.in_w + 2 * p.pad - p.kw) % p.stride != 0) {
      ++ragged;
    }
    if (p.pad >= p.kh || p.pad >= p.kw) ++all_padding;
    if (p.in_h + 2 * p.pad < p.kh || p.in_w + 2 * p.pad < p.kw) ++overhang;

    Tensor in(p.in_c, p.in_h, p.in_w);
    for (auto& v : in.data()) v = rng.signed_value(8);
    const auto w = rng.signed_vector(
        static_cast<std::size_t>(p.out_c) * p.in_c * p.kh * p.kw, 8);
    EXPECT_EQ(conv2d_reference(in, w, p), conv_at_padded(in, w, p))
        << "in " << p.in_c << "x" << p.in_h << "x" << p.in_w << " k "
        << p.kh << "x" << p.kw << " out_c " << p.out_c << " stride "
        << p.stride << " pad " << p.pad;
  }
  // The sweep really reached the edge cases it exists for.
  EXPECT_GT(checked, 350);
  EXPECT_GT(ragged, 100);
  EXPECT_GT(all_padding, 100);
  EXPECT_GT(overhang, 5);
}

TEST(ConvReference, WindowsWhollyInThePaddingAreZero) {
  // 1×1 input, 2×2 kernel, pad 2: only the windows touching the centre
  // see the value; the corner windows read nothing but padding.
  Tensor in(1, 1, 1);
  in.at(0, 0, 0) = 7;
  const ConvParams p{1, 1, 1, 1, 2, 2, 1, 2};
  const auto out = conv2d_reference(in, {1, 1, 1, 1}, p);
  ASSERT_EQ(out.size(), 16u);
  EXPECT_EQ(out, conv_at_padded(in, {1, 1, 1, 1}, p));
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[5], 7);
  EXPECT_EQ(out[15], 0);
}

TEST(ConvReference, RejectsShapeMismatch) {
  Tensor in(1, 3, 3);
  const ConvParams p{2, 3, 3, 1, 1, 1, 1, 0};
  EXPECT_THROW(conv2d_reference(in, {1, 1}, p), Error);
}

TEST(FcReference, MatrixVectorProduct) {
  const FcParams p{3, 2};
  // w = [[1,2,3],[−1,0,2]], x = [4,5,6].
  const auto out = fc_reference({4, 5, 6}, {1, 2, 3, -1, 0, 2}, p);
  EXPECT_EQ(out[0], 4 + 10 + 18);
  EXPECT_EQ(out[1], -4 + 0 + 12);
}

TEST(MaxPoolReference, PicksWindowMax) {
  Tensor in(1, 4, 4);
  int v = 0;
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) in.at(0, y, x) = v++;
  }
  const PoolParams p{1, 4, 4, 2, 2};
  const Tensor out = maxpool_reference(in, p);
  EXPECT_EQ(out.at(0, 0, 0), 5);
  EXPECT_EQ(out.at(0, 0, 1), 7);
  EXPECT_EQ(out.at(0, 1, 0), 13);
  EXPECT_EQ(out.at(0, 1, 1), 15);
}

TEST(MaxPoolReference, NegativeValuesHandled) {
  Tensor in(1, 2, 2);
  in.at(0, 0, 0) = -5;
  in.at(0, 0, 1) = -3;
  in.at(0, 1, 0) = -9;
  in.at(0, 1, 1) = -7;
  const PoolParams p{1, 2, 2, 2, 2};
  EXPECT_EQ(maxpool_reference(in, p).at(0, 0, 0), -3);
}


TEST(AvgPoolReference, IntegerMeanRoundsHalfAwayFromZero) {
  Tensor in(1, 2, 2);
  in.at(0, 0, 0) = 1;
  in.at(0, 0, 1) = 2;
  in.at(0, 1, 0) = 3;
  in.at(0, 1, 1) = 4;
  const PoolParams p{1, 2, 2, 2, 2, PoolKind::kAverage};
  EXPECT_EQ(avgpool_reference(in, p).at(0, 0, 0), 3);  // 10/4 = 2.5 -> 3

  Tensor neg(1, 2, 2);
  neg.at(0, 0, 0) = -1;
  neg.at(0, 0, 1) = -2;
  neg.at(0, 1, 0) = -3;
  neg.at(0, 1, 1) = -4;
  EXPECT_EQ(avgpool_reference(neg, p).at(0, 0, 0), -3);  // -2.5 -> -3
}

TEST(AvgPoolReference, PartialWindowsAverageInBoundsOnly) {
  // 3x3 input, window 2, stride 2: bottom/right windows are partial.
  Tensor in(1, 3, 3);
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 3; ++x) in.at(0, y, x) = 6;
  }
  const PoolParams p{1, 3, 3, 2, 2, PoolKind::kAverage};
  const Tensor out = avgpool_reference(in, p);
  for (auto v : out.data()) EXPECT_EQ(v, 6);  // mean of constants
}

TEST(PoolReference, DispatchesOnKind) {
  Tensor in(1, 2, 2);
  in.at(0, 0, 0) = 8;  // others 0
  const PoolParams max_p{1, 2, 2, 2, 2, PoolKind::kMax};
  const PoolParams avg_p{1, 2, 2, 2, 2, PoolKind::kAverage};
  EXPECT_EQ(pool_reference(in, max_p).at(0, 0, 0), 8);
  EXPECT_EQ(pool_reference(in, avg_p).at(0, 0, 0), 2);
}

TEST(RnnStepReference, GateMathAndClamp) {
  // hidden=2, input=1: weights rows [wx | wh].
  const std::vector<std::int32_t> w{1, 2, 3,   // row 0
                                    -1, 0, 1}; // row 1
  const auto h = rnn_step_reference({2}, {1, -1}, w, 2, /*shift=*/0,
                                    /*out_bits=*/8);
  EXPECT_EQ(h[0], 2 + 2 - 3);
  EXPECT_EQ(h[1], -2 + 0 - 1);
}

TEST(RnnStepReference, OutputsStayQuantized) {
  Rng rng(9);
  const int hidden = 16, input = 8;
  const auto w = rng.signed_vector(
      static_cast<std::size_t>(hidden * (hidden + input)), 4);
  const auto x = rng.signed_vector(input, 4);
  const auto h0 = rng.signed_vector(hidden, 4);
  const auto h1 = rnn_step_reference(x, h0, w, hidden, /*shift=*/4,
                                     /*out_bits=*/4);
  for (auto v : h1) {
    EXPECT_GE(v, -8);
    EXPECT_LE(v, 7);
  }
}

}  // namespace
}  // namespace bpvec::dnn
