// Bit-plane packing and the packed popcount kernels: pack/unpack is the
// identity, every SIMD variant of planes_dot agrees with a scalar fold,
// and every layer kernel is bit-identical to its reference operator —
// serially and through a thread pool.
#include "src/kernels/packed_kernels.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/common/error.h"
#include "src/common/rng.h"
#include "src/dnn/quantize.h"
#include "src/dnn/reference_ops.h"
#include "src/kernels/simd.h"
#include "tests/auto_variant_guard.h"

namespace bpvec::kernels {
namespace {

TEST(Simd, VariantIsOneOfTheKnownStrings) {
  const std::string v = simd_variant();
  EXPECT_TRUE(v == "avx512" || v == "avx2" || v == "neon" || v == "scalar")
      << v;
}

TEST(Simd, AvailableVariantsAlwaysEndWithScalar) {
  const std::vector<std::string> variants = simd_available_variants();
  ASSERT_FALSE(variants.empty());
  EXPECT_EQ(variants.back(), "scalar");
  // The active variant must be one of the supported ones.
  bool found = false;
  for (const std::string& v : variants) found = found || v == simd_variant();
  EXPECT_TRUE(found) << simd_variant();
}

/// Σ_i popcount(a[i] & b[i]): the test-local oracle for one plane pair.
std::int64_t scalar_fold(const std::uint64_t* a, const std::uint64_t* b,
                         std::size_t words) {
  std::int64_t count = 0;
  for (std::size_t i = 0; i < words; ++i) {
    count += __builtin_popcountll(a[i] & b[i]);
  }
  return count;
}

TEST(Simd, SetVariantSwitchesAndRejectsUnsupported) {
  const AutoVariantGuard guard;
  for (const std::string& v : simd_available_variants()) {
    ASSERT_TRUE(simd_set_variant(v)) << v;
    EXPECT_EQ(simd_variant(), v);
  }
  const std::string before = simd_variant();
  EXPECT_FALSE(simd_set_variant("not-a-variant"));
  EXPECT_EQ(simd_variant(), before);  // unchanged on rejection
}

TEST(Simd, EveryReachableVariantMatchesTheScalarFold) {
  const AutoVariantGuard guard;
  Rng rng(43);
  // A 1×1-plane planes_dot with product 1 is one plane pair's popcount:
  // it runs each variant's single-plane fold (the odd-plane tail).
  // Lengths cover every vector body + tail split (AVX-512 eats 8 words
  // per iteration, AVX2 4, NEON 2), including the empty row.
  const std::vector<std::size_t> lengths = {0,  1,  2,  3,  4,  5,  7, 8,
                                            9,  15, 16, 17, 31, 64, 129};
  const std::int64_t one = 1;
  for (const std::string& v : simd_available_variants()) {
    ASSERT_TRUE(simd_set_variant(v)) << v;
    for (const std::size_t words : lengths) {
      std::vector<std::uint64_t> a(words), b(words);
      for (auto& w : a) w = rng.next_u64();
      for (auto& w : b) w = rng.next_u64();
      EXPECT_EQ(planes_dot(a.data(), words, 1, b.data(), words, 1, words,
                           &one),
                scalar_fold(a.data(), b.data(), words))
          << v << " words=" << words;
    }
  }
}

TEST(Simd, PlanesDotMatchesPerPairPopcountsOnEveryVariant) {
  const AutoVariantGuard guard;
  Rng rng(91);
  // Odd/even plane counts hit both the paired B-plane body and the
  // single-plane cleanup; lengths cover vector bodies + tails.
  for (const std::string& v : simd_available_variants()) {
    ASSERT_TRUE(simd_set_variant(v)) << v;
    for (const int a_bits : {1, 2, 3, 8}) {
      for (const int b_bits : {1, 2, 5, 8}) {
        for (const std::size_t words : {1ul, 7ul, 8ul, 17ul, 130ul}) {
          // Strides larger than `words` mimic chunked BitPlanes access.
          const std::size_t a_stride = words + 3;
          const std::size_t b_stride = words + 1;
          std::vector<std::uint64_t> a(a_bits * a_stride);
          std::vector<std::uint64_t> b(b_bits * b_stride);
          for (auto& w : a) w = rng.next_u64();
          for (auto& w : b) w = rng.next_u64();
          std::vector<std::int64_t> products(
              static_cast<std::size_t>(a_bits) * b_bits);
          for (auto& x : products) {
            x = static_cast<std::int64_t>(rng.next_u64() % 513) - 256;
          }
          std::int64_t expected = 0;
          for (int p = 0; p < a_bits; ++p) {
            for (int q = 0; q < b_bits; ++q) {
              expected +=
                  products[static_cast<std::size_t>(p) * b_bits + q] *
                  scalar_fold(a.data() + p * a_stride,
                              b.data() + q * b_stride, words);
            }
          }
          EXPECT_EQ(planes_dot(a.data(), a_stride, a_bits, b.data(),
                               b_stride, b_bits, words, products.data()),
                    expected)
              << v << " a_bits=" << a_bits << " b_bits=" << b_bits
              << " words=" << words;
        }
      }
    }
  }
}

TEST(BitPlanes, PlaneWeightCarriesTheSignOnTheTopPlane) {
  EXPECT_EQ(plane_weight(0, 8, true), 1);
  EXPECT_EQ(plane_weight(6, 8, true), 64);
  EXPECT_EQ(plane_weight(7, 8, true), -128);
  EXPECT_EQ(plane_weight(7, 8, false), 128);
  EXPECT_EQ(plane_weight(0, 1, true), -1);  // 1-bit signed: {-1, 0}
  EXPECT_EQ(plane_weight(0, 1, false), 1);
}

TEST(BitPlanes, PackUnpackIsTheIdentityAcrossBitwidths) {
  Rng rng(11);
  for (int bits = 1; bits <= 16; ++bits) {
    // 70 lanes: crosses the 64-lane word boundary, leaving tail lanes.
    const auto values = rng.signed_vector(70, bits);
    const BitPlanes planes = pack_vector(values, bits);
    EXPECT_EQ(planes.words, 2u);
    for (std::size_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(unpack_element(planes, 0, static_cast<std::int64_t>(i)),
                values[i])
          << "bits=" << bits << " i=" << i;
    }
  }
  // Unsigned interpretation: the top plane carries +2^(b-1).
  std::vector<std::int32_t> u(65);
  for (auto& v : u) v = static_cast<std::int32_t>(rng.unsigned_value(6));
  const BitPlanes planes = pack_vector(u, 6, /*is_signed=*/false);
  for (std::size_t i = 0; i < u.size(); ++i) {
    EXPECT_EQ(unpack_element(planes, 0, static_cast<std::int64_t>(i)), u[i]);
  }
}

TEST(BitPlanes, PackRejectsOutOfRangeValues) {
  EXPECT_THROW(pack_vector({128}, 8), Error);             // > int8 max
  EXPECT_THROW(pack_vector({-129}, 8), Error);            // < int8 min
  EXPECT_THROW(pack_vector({-1}, 8, /*signed=*/false), Error);
  EXPECT_NO_THROW(pack_vector({-128, 127}, 8));
  EXPECT_NO_THROW(pack_vector({255}, 8, /*signed=*/false));
}

/// `cols` random values across a `bits`-wide operand's whole range, with
/// the range ends forced into the first and last lanes.
std::vector<std::int32_t> full_range_row(Rng& rng, std::int64_t cols,
                                         int bits, bool is_signed) {
  const std::int32_t lo = is_signed ? -(1 << (bits - 1)) : 0;
  const std::int32_t hi = is_signed ? (1 << (bits - 1)) - 1 : (1 << bits) - 1;
  std::vector<std::int32_t> row(static_cast<std::size_t>(cols));
  for (auto& v : row) v = static_cast<std::int32_t>(rng.uniform(lo, hi));
  row.front() = lo;
  row.back() = hi;
  return row;
}

TEST(BitPlanes, BlockPackingRoundTripsAtEveryTailWidth) {
  Rng rng(17);
  for (const std::int64_t cols : {1, 63, 64, 65, 130}) {
    for (const int bits : {1, 2, 8, 16}) {
      for (const bool is_signed : {true, false}) {
        constexpr std::int64_t kRows = 3;
        std::vector<std::int32_t> values;
        for (std::int64_t r = 0; r < kRows; ++r) {
          const auto row = full_range_row(rng, cols, bits, is_signed);
          values.insert(values.end(), row.begin(), row.end());
        }
        const BitPlanes planes =
            pack_values(values.data(), kRows, cols, bits, is_signed);
        ASSERT_EQ(planes.words, static_cast<std::size_t>((cols + 63) / 64));
        for (std::int64_t r = 0; r < kRows; ++r) {
          for (std::int64_t i = 0; i < cols; ++i) {
            ASSERT_EQ(unpack_element(planes, r, i),
                      values[static_cast<std::size_t>(r * cols + i)])
                << "cols=" << cols << " bits=" << bits
                << " signed=" << is_signed << " r=" << r << " i=" << i;
          }
          // Tail lanes past `cols` are zero in every plane.
          const int used = static_cast<int>(cols % 64);
          if (used == 0) continue;
          const std::uint64_t tail = ~std::uint64_t{0} << used;
          for (int p = 0; p < bits; ++p) {
            EXPECT_EQ(planes.plane(r, p)[planes.words - 1] & tail, 0u)
                << "cols=" << cols << " bits=" << bits << " plane=" << p;
          }
        }
      }
    }
  }
}

TEST(BitPlanes, BlockRangeCheckCatchesAnOutlierAnywhere) {
  // 130 lanes: two full blocks and a 2-lane tail. The outlier sits at the
  // first element, mid-block, and the last element of the tail block.
  constexpr std::int64_t kCols = 130;
  for (const std::int64_t at : {std::int64_t{0}, std::int64_t{70},
                                kCols - 1}) {
    std::vector<std::int32_t> v(kCols, 3);
    v[static_cast<std::size_t>(at)] = 128;  // int8 max + 1
    EXPECT_THROW(pack_values(v.data(), 1, kCols, 8), Error) << at;
    v[static_cast<std::size_t>(at)] = -129;  // int8 min − 1
    EXPECT_THROW(pack_values(v.data(), 1, kCols, 8), Error) << at;
    v[static_cast<std::size_t>(at)] = -1;  // negative, unsigned operand
    EXPECT_THROW(pack_values(v.data(), 1, kCols, 8, /*is_signed=*/false),
                 Error)
        << at;
    v[static_cast<std::size_t>(at)] = 256;  // uint8 max + 1
    EXPECT_THROW(pack_values(v.data(), 1, kCols, 8, /*is_signed=*/false),
                 Error)
        << at;
    v[static_cast<std::size_t>(at)] = 127;
    EXPECT_NO_THROW(pack_values(v.data(), 1, kCols, 8)) << at;
  }
  // The outlier in a later row (the first row is clean).
  std::vector<std::int32_t> two_rows(2 * kCols, 0);
  two_rows.back() = 2;
  EXPECT_THROW(pack_values(two_rows.data(), 2, kCols, 2), Error);
}

TEST(BitPlanes, PackedDotMatchesDirectDotAtMixedBitwidths) {
  Rng rng(13);
  for (const auto& [xb, wb] : {std::pair{8, 8}, {4, 8}, {1, 8}, {3, 5},
                               {16, 2}, {12, 12}}) {
    const auto x = rng.signed_vector(150, xb);
    const auto w = rng.signed_vector(150, wb);
    std::int64_t expected = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      expected += std::int64_t{x[i]} * w[i];
    }
    // A 1×1 packed_gemm is one packed dot product.
    const std::vector<std::int64_t> out =
        packed_gemm(pack_vector(x, xb), pack_vector(w, wb));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], expected) << "x_bits=" << xb << " w_bits=" << wb;
  }
}

TEST(PackedGemm, MatchesGemmReferenceSeriallyAndThreaded) {
  Rng rng(17);
  dnn::Matrix a{13, 90, {}};
  dnn::Matrix b{9, 90, {}};
  a.data = rng.signed_vector(static_cast<std::size_t>(a.rows * a.cols), 7);
  b.data = rng.signed_vector(static_cast<std::size_t>(b.rows * b.cols), 5);
  const auto expected = dnn::gemm_reference(a, b);

  const BitPlanes ap = pack_rows(a, 7);
  const BitPlanes bp = pack_rows(b, 5);
  KernelStats stats;
  EXPECT_EQ(packed_gemm(ap, bp, nullptr, &stats), expected);
  EXPECT_EQ(stats.macs, a.rows * b.rows * a.cols);
  EXPECT_GT(stats.word_ops, 0);

  common::ThreadPool pool(4);
  EXPECT_EQ(packed_gemm(ap, bp, &pool), expected);
}

TEST(PackedConv, MatchesConvReferenceSeriallyAndThreaded) {
  Rng rng(19);
  const dnn::ConvParams p{/*in_c=*/3, /*in_h=*/8, /*in_w=*/8, /*out_c=*/4,
                          /*kh=*/3, /*kw=*/3, /*stride=*/1, /*pad=*/1};
  dnn::Tensor input(p.in_c, p.in_h, p.in_w);
  for (auto& v : input.data()) v = rng.signed_value(4);
  const auto weights = rng.signed_vector(
      static_cast<std::size_t>(p.out_c) * p.in_c * p.kh * p.kw, 4);
  const auto expected = dnn::conv2d_reference(input, weights, p);

  const BitPlanes w =
      pack_values(weights.data(), p.out_c, p.in_c * p.kh * p.kw, 4);

  KernelStats stats;
  EXPECT_EQ(packed_conv(input, w, p, 4, nullptr, &stats), expected);
  EXPECT_EQ(stats.macs, static_cast<std::int64_t>(p.out_h()) * p.out_w() *
                            p.out_c * p.in_c * p.kh * p.kw);

  common::ThreadPool pool(4);
  EXPECT_EQ(packed_conv(input, w, p, 4, &pool), expected);
}

TEST(PackedConv, StridedUnpaddedConvMatchesReference) {
  Rng rng(23);
  const dnn::ConvParams p{2, 11, 11, 3, 5, 5, 2, 0};
  dnn::Tensor input(p.in_c, p.in_h, p.in_w);
  for (auto& v : input.data()) v = rng.signed_value(8);
  const auto weights = rng.signed_vector(
      static_cast<std::size_t>(p.out_c) * p.in_c * p.kh * p.kw, 3);
  const BitPlanes w =
      pack_values(weights.data(), p.out_c, p.in_c * p.kh * p.kw, 3);
  EXPECT_EQ(packed_conv(input, w, p, 8),
            dnn::conv2d_reference(input, weights, p));
}

TEST(PackedFc, MatchesFcReferenceSeriallyAndThreaded) {
  Rng rng(29);
  const dnn::FcParams p{/*in_features=*/200, /*out_features=*/17};
  const auto input = rng.signed_vector(static_cast<std::size_t>(p.in_features), 6);
  const auto weights = rng.signed_vector(
      static_cast<std::size_t>(p.in_features) * p.out_features, 8);
  const auto expected = dnn::fc_reference(input, weights, p);

  const BitPlanes w =
      pack_values(weights.data(), p.out_features, p.in_features, 8);

  KernelStats stats;
  EXPECT_EQ(packed_fc(input, w, p, 6, nullptr, &stats), expected);
  EXPECT_EQ(stats.macs,
            static_cast<std::int64_t>(p.in_features) * p.out_features);

  common::ThreadPool pool(4);
  EXPECT_EQ(packed_fc(input, w, p, 6, &pool), expected);
}

TEST(PackedRnnStep, MatchesRnnStepReferenceOverAChainedRecurrence) {
  Rng rng(31);
  const int input = 24, hidden = 12, shift = 6, out_bits = 8;
  const auto weights = rng.signed_vector(
      static_cast<std::size_t>(hidden) * (input + hidden), 4);
  const BitPlanes w = pack_values(weights.data(), hidden, input + hidden, 4);
  auto h_packed = rng.signed_vector(static_cast<std::size_t>(hidden), 8);
  auto h_ref = h_packed;
  common::ThreadPool pool(4);
  for (int t = 0; t < 5; ++t) {
    const auto x = rng.signed_vector(static_cast<std::size_t>(input), 8);
    // Chained: step t's output feeds step t+1, so one wrong bit anywhere
    // cascades instead of averaging out.
    h_packed = packed_rnn_step(x, h_packed, w, hidden, shift, out_bits, 8,
                               t % 2 == 0 ? nullptr : &pool);
    h_ref = dnn::rnn_step_reference(x, h_ref, weights, hidden, shift,
                                    out_bits);
    EXPECT_EQ(h_packed, h_ref) << "t=" << t;
  }
}

TEST(PackedPool, MatchesPoolReferenceForMaxAndAverage) {
  Rng rng(37);
  for (const auto kind : {dnn::PoolKind::kMax, dnn::PoolKind::kAverage}) {
    // k=3, stride=2 over 9×9: windows whose spans hit the right/bottom
    // edges exactly, plus interior overlap.
    dnn::PoolParams p{/*channels=*/5, /*in_h=*/9, /*in_w=*/9, /*k=*/3,
                      /*stride=*/2, kind};
    dnn::Tensor input(p.channels, p.in_h, p.in_w);
    for (auto& v : input.data()) v = rng.signed_value(8);
    const dnn::Tensor expected = dnn::pool_reference(input, p);

    EXPECT_EQ(packed_pool(input, p).data(), expected.data());
    common::ThreadPool pool(4);
    EXPECT_EQ(packed_pool(input, p, &pool).data(), expected.data());
  }
}

TEST(BitPlanes, PackValuesMatchesPackRowsAndPackVector) {
  Rng rng(47);
  const std::int64_t rows = 5, cols = 70;  // straddles the 64-lane word
  dnn::Matrix m{rows, cols, {}};
  m.data = rng.signed_vector(static_cast<std::size_t>(rows * cols), 6);
  const BitPlanes via_rows = pack_rows(m, 6);
  const BitPlanes via_values = pack_values(m.data.data(), rows, cols, 6);
  EXPECT_EQ(via_values.data, via_rows.data);
  EXPECT_EQ(via_values.words, via_rows.words);

  const auto vec = rng.signed_vector(130, 9);
  const BitPlanes via_vector = pack_vector(vec, 9);
  const BitPlanes via_values2 =
      pack_values(vec.data(), 1, static_cast<std::int64_t>(vec.size()), 9);
  EXPECT_EQ(via_values2.data, via_vector.data);
}

TEST(PackedGemm, TileBoundaryShapesMatchReference) {
  Rng rng(53);
  // M and N straddle the kGemmBlockM/kGemmBlockN = 8 boundaries (1, just
  // under, exact, just over, 2×+1); cols straddle the 64-lane word, and
  // 16449 = 257 words crosses the kGemmBlockWords = 256 K-chunk by one
  // partial word (VGG fc, K = 25088, crosses it in production).
  static_assert(kGemmBlockWords == 256);
  for (const std::int64_t m : {1, 7, 8, 9, 17}) {
    for (const std::int64_t n : {1, 3, 8, 9}) {
      for (const std::int64_t cols : {63, 64, 65, 130, 16449}) {
        dnn::Matrix a{m, cols, {}};
        dnn::Matrix b{n, cols, {}};
        a.data = rng.signed_vector(static_cast<std::size_t>(m * cols), 5);
        b.data = rng.signed_vector(static_cast<std::size_t>(n * cols), 4);
        const auto expected = dnn::gemm_reference(a, b);
        const BitPlanes ap = pack_rows(a, 5);
        const BitPlanes bp = pack_rows(b, 4);
        EXPECT_EQ(packed_gemm(ap, bp), expected)
            << "m=" << m << " n=" << n << " cols=" << cols;
        common::ThreadPool pool(3);
        EXPECT_EQ(packed_gemm(ap, bp, &pool), expected)
            << "m=" << m << " n=" << n << " cols=" << cols << " threaded";
      }
    }
  }
}

TEST(PackedConv, BoundaryShapesMatchReference) {
  Rng rng(61);
  struct Shape {
    dnn::ConvParams p;
    int x_bits, w_bits;
  };
  const std::vector<Shape> shapes = {
      // 1×1 kernel: K == in_c, the pointwise degenerate.
      {{8, 5, 5, 3, 1, 1, 1, 0}, 4, 4},
      // Full-image kernel, no pad: exactly one output pixel.
      {{2, 6, 6, 3, 6, 6, 1, 0}, 8, 3},
      // K = in_c·kh·kw = 7·3·3 = 63 and 65: packed columns straddle the
      // 64-lane word boundary from both sides.
      {{7, 7, 7, 4, 3, 3, 1, 1}, 5, 5},
      {{13, 5, 5, 2, 5, 1, 1, 0}, 5, 5},  // 13·5·1 = 65
      // Stride 3 + pad 2: windows hanging off every edge.
      {{3, 9, 9, 2, 4, 4, 3, 2}, 6, 6},
      // Single output pixel count not divisible by the pixel tile is the
      // common case above; also check out_c == 1.
      {{4, 8, 8, 1, 3, 3, 2, 1}, 8, 8},
      // 10×10 = 100 output pixels: a full kConvPixelTile tile plus a
      // 36-pixel tail tile whose last GEMM row block is 4 rows; out_c = 11
      // leaves a 3-channel tail block.
      {{3, 10, 10, 11, 3, 3, 1, 1}, 6, 7},
  };
  for (const auto& [p, x_bits, w_bits] : shapes) {
    dnn::Tensor input(p.in_c, p.in_h, p.in_w);
    for (auto& v : input.data()) v = rng.signed_value(x_bits);
    const auto weights = rng.signed_vector(
        static_cast<std::size_t>(p.out_c) * p.in_c * p.kh * p.kw, w_bits);
    const auto expected = dnn::conv2d_reference(input, weights, p);
    const auto label = [&] {
      return "in_c=" + std::to_string(p.in_c) + " out_c=" +
             std::to_string(p.out_c) + " k=" + std::to_string(p.kh) +
             "x" + std::to_string(p.kw) + " stride=" +
             std::to_string(p.stride) + " pad=" + std::to_string(p.pad);
    };
    const BitPlanes w =
        pack_values(weights.data(), p.out_c, p.in_c * p.kh * p.kw, w_bits);
    EXPECT_EQ(packed_conv(input, w, p, x_bits), expected) << label();
    common::ThreadPool pool(3);
    EXPECT_EQ(packed_conv(input, w, p, x_bits, &pool), expected)
        << label() << " threaded";
  }
}

TEST(PackedConv, DirectConvPeakBytesBeatIm2col) {
  Rng rng(67);
  // A realistically sized tile (AlexNet conv2-like shrunk): im2col must
  // materialize pixels×K patches + their planes; direct conv holds one
  // 64-pixel window tile per worker.
  const dnn::ConvParams p{48, 27, 27, 32, 5, 5, 1, 2};
  dnn::Tensor input(p.in_c, p.in_h, p.in_w);
  for (auto& v : input.data()) v = rng.signed_value(4);
  const auto weights = rng.signed_vector(
      static_cast<std::size_t>(p.out_c) * p.in_c * p.kh * p.kw, 4);
  const BitPlanes w =
      pack_values(weights.data(), p.out_c, p.in_c * p.kh * p.kw, 4);
  KernelStats direct;
  EXPECT_EQ(packed_conv(input, w, p, 4, nullptr, &direct),
            dnn::conv2d_reference(input, weights, p));
  // An im2col lowering holds, at once: the int32 patch matrix and weight
  // matrix, both packed operands and the int64 pixels×out_c GEMM output.
  const std::int64_t pixels = std::int64_t{p.out_h()} * p.out_w();
  const std::int64_t k = std::int64_t{p.in_c} * p.kh * p.kw;
  const std::int64_t words = (k + 63) / 64;
  const std::int64_t im2col_bytes = (pixels + p.out_c) * k * 4 +
                                    (pixels + p.out_c) * 4 * words * 8 +
                                    pixels * p.out_c * 8;
  EXPECT_GT(direct.peak_bytes, 0);
  // The filter planes are an input to packed_conv, not a transient, but
  // the lowering packs them too: count them on both sides.
  const std::int64_t filter_bytes = p.out_c * 4 * words * 8;
  EXPECT_LT(direct.peak_bytes + filter_bytes, im2col_bytes);
}

TEST(PackedConv, StatsReportTiledPeakBytes) {
  Rng rng(73);
  // 10×10 = 100 output pixels, so full kConvPixelTile tiles exist.
  const dnn::ConvParams p{5, 10, 10, 6, 3, 3, 1, 1};
  const int x_bits = 5, w_bits = 3;
  dnn::Tensor input(p.in_c, p.in_h, p.in_w);
  for (auto& v : input.data()) v = rng.signed_value(x_bits);
  const auto weights = rng.signed_vector(
      static_cast<std::size_t>(p.out_c) * p.in_c * p.kh * p.kw, w_bits);
  const std::int64_t k = std::int64_t{p.in_c} * p.kh * p.kw;  // 45
  const BitPlanes w = pack_values(weights.data(), p.out_c, k, w_bits);

  // Serial pre-packed conv: one worker holding a kConvPixelTile × K
  // int32 window tile, its x_bits packed planes (one word per row) and
  // one kGemmBlockM × kGemmBlockN int64 tile accumulator. The filter
  // planes are an input, so they are not counted.
  KernelStats prepacked;
  (void)packed_conv(input, w, p, x_bits, nullptr, &prepacked);
  const std::int64_t transient = kConvPixelTile * k * 4 +
                                 kConvPixelTile * x_bits * 1 * 8 +
                                 kGemmBlockM * kGemmBlockN * 8;
  EXPECT_EQ(prepacked.peak_bytes, transient);
}

TEST(PackedGemm, StatsReportBlockedPeakBytes) {
  Rng rng(71);
  dnn::Matrix a{16, 128, {}};
  dnn::Matrix b{16, 128, {}};
  a.data = rng.signed_vector(static_cast<std::size_t>(a.rows * a.cols), 8);
  b.data = rng.signed_vector(static_cast<std::size_t>(b.rows * b.cols), 8);
  const BitPlanes ap = pack_rows(a, 8);
  const BitPlanes bp = pack_rows(b, 8);
  KernelStats stats;
  (void)packed_gemm(ap, bp, nullptr, &stats);
  // Serial blocked GEMM: one worker × one kGemmBlockM×kGemmBlockN tile
  // of int64 accumulators.
  EXPECT_EQ(stats.peak_bytes,
            kGemmBlockM * kGemmBlockN * static_cast<std::int64_t>(8));
  // peak_bytes folds with max() across calls on a shared stats object.
  KernelStats folded = stats;
  (void)packed_gemm(ap, bp, nullptr, &folded);
  EXPECT_EQ(folded.peak_bytes, stats.peak_bytes);
  EXPECT_EQ(folded.macs, 2 * stats.macs);
}

TEST(PackedGemm, ThreadedResultIsBitIdenticalAtAnyPoolSize) {
  Rng rng(41);
  dnn::Matrix a{6, 300, {}};
  dnn::Matrix b{5, 300, {}};
  a.data = rng.signed_vector(static_cast<std::size_t>(a.rows * a.cols), 8);
  b.data = rng.signed_vector(static_cast<std::size_t>(b.rows * b.cols), 8);
  const BitPlanes ap = pack_rows(a, 8);
  const BitPlanes bp = pack_rows(b, 8);
  const auto serial = packed_gemm(ap, bp);
  for (int threads : {1, 2, 4}) {
    common::ThreadPool pool(threads);
    EXPECT_EQ(packed_gemm(ap, bp, &pool), serial) << threads;
  }
}

}  // namespace
}  // namespace bpvec::kernels
