#include "src/bitslice/cvu.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "src/common/error.h"
#include "src/common/mathutil.h"
#include "src/common/rng.h"

namespace bpvec::bitslice {
namespace {

std::int64_t reference_dot(const std::vector<std::int32_t>& x,
                           const std::vector<std::int32_t>& w) {
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    acc += static_cast<std::int64_t>(x[i]) * w[i];
  }
  return acc;
}

TEST(Cvu, PaperExampleFigure2a) {
  // Fig. 2a: two vectors of two 4-bit elements, 2-bit slicing.
  Cvu cvu({2, 4, 2});
  const std::vector<std::int32_t> x{5, -3}, w{7, 6};
  const auto r = cvu.dot_product(x, w, 4, 4);
  EXPECT_EQ(r.value, 35 - 18);
  EXPECT_EQ(r.cycles, 1);
}

TEST(Cvu, EmptyVectorsAreZeroWork) {
  Cvu cvu({2, 8, 16});
  const auto r = cvu.dot_product({}, {}, 8, 8);
  EXPECT_EQ(r.value, 0);
  EXPECT_EQ(r.cycles, 0);
  EXPECT_EQ(r.mult_ops, 0);
}

TEST(Cvu, RejectsLengthMismatch) {
  Cvu cvu({2, 8, 16});
  EXPECT_THROW(cvu.dot_product({1, 2}, {1}, 8, 8), Error);
}

TEST(Cvu, CycleCountFollowsCompositionBoost) {
  Cvu cvu({2, 8, 16});
  Rng rng(3);
  const auto x8 = rng.signed_vector(256, 8);
  const auto w8 = rng.signed_vector(256, 8);
  // Homogeneous 8-bit: 16 elements per cycle → 16 cycles for 256.
  EXPECT_EQ(cvu.dot_product(x8, w8, 8, 8).cycles, 16);

  const auto x4 = rng.signed_vector(256, 4);
  const auto w4 = rng.signed_vector(256, 4);
  // 4-bit: 4 clusters → 64 elements per cycle → 4 cycles.
  EXPECT_EQ(cvu.dot_product(x4, w4, 4, 4).cycles, 4);

  const auto w2 = rng.signed_vector(256, 2);
  // 8-bit × 2-bit (Fig. 3c): 4 clusters.
  EXPECT_EQ(cvu.dot_product(x8, w2, 8, 2).cycles, 4);

  const auto x2 = rng.signed_vector(256, 2);
  // 2×2: all 16 NBVEs independent → 1 cycle for 256 elements.
  EXPECT_EQ(cvu.dot_product(x2, w2, 2, 2).cycles, 1);
}

TEST(Cvu, UnsignedOperandsSupported) {
  Cvu cvu({2, 8, 16});
  Rng rng(17);
  std::vector<std::int32_t> x, w;
  for (int i = 0; i < 100; ++i) {
    x.push_back(static_cast<std::int32_t>(rng.unsigned_value(8)));
    w.push_back(rng.signed_value(8));
  }
  const auto r = cvu.dot_product(x, w, 8, 8, /*x_signed=*/false,
                                 /*w_signed=*/true);
  EXPECT_EQ(r.value, reference_dot(x, w));
}

TEST(Cvu, MaxMagnitudeOperandsExact) {
  Cvu cvu({2, 8, 16});
  const std::vector<std::int32_t> x(1000, -128), w(1000, -128);
  EXPECT_EQ(cvu.dot_product(x, w, 8, 8).value, 1000LL * 16384);
  const std::vector<std::int32_t> y(1000, -128), v(1000, 127);
  EXPECT_EQ(cvu.dot_product(y, v, 8, 8).value, 1000LL * -16256);
}

// ---- The central property of the paper: bit-parallel vector
// composability computes *exact* dot products for every bitwidth mode,
// vector length, slice width, and lane count. ----

struct CvuCase {
  int alpha, lanes, x_bits, w_bits;
};

class CvuExactness : public ::testing::TestWithParam<CvuCase> {};

TEST_P(CvuExactness, MatchesInt64Reference) {
  const auto p = GetParam();
  Cvu cvu({p.alpha, 8, p.lanes});
  Rng rng(static_cast<std::uint64_t>(p.alpha * 7919 + p.lanes * 131 +
                                     p.x_bits * 17 + p.w_bits));
  for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{16},
                        std::size_t{63}, std::size_t{64}, std::size_t{200}}) {
    const auto x = rng.signed_vector(n, p.x_bits);
    const auto w = rng.signed_vector(n, p.w_bits);
    const auto r = cvu.dot_product(x, w, p.x_bits, p.w_bits);
    EXPECT_EQ(r.value, reference_dot(x, w))
        << "alpha=" << p.alpha << " L=" << p.lanes << " xb=" << p.x_bits
        << " wb=" << p.w_bits << " n=" << n;

    // Cycle accounting: ceil(n / elements_per_cycle).
    const auto plan = cvu.plan_for(p.x_bits, p.w_bits);
    EXPECT_EQ(r.cycles,
              ceil_div(static_cast<std::int64_t>(n),
                       plan.elements_per_cycle()));
    EXPECT_GT(r.utilization, 0.0);
    EXPECT_LE(r.utilization, 1.0);
  }
}

std::vector<CvuCase> exactness_cases() {
  std::vector<CvuCase> cases;
  for (int alpha : {1, 2, 4}) {
    for (int lanes : {1, 2, 4, 16}) {
      for (int xb : {1, 2, 3, 4, 5, 8}) {
        for (int wb : {1, 2, 4, 7, 8}) {
          cases.push_back({alpha, lanes, xb, wb});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    FullSweep, CvuExactness, ::testing::ValuesIn(exactness_cases()),
    [](const ::testing::TestParamInfo<CvuCase>& info) {
      const auto& p = info.param;
      return "a" + std::to_string(p.alpha) + "_L" + std::to_string(p.lanes) +
             "_x" + std::to_string(p.x_bits) + "_w" +
             std::to_string(p.w_bits);
    });

// ---- The datapath range check: every lane of every NBVE cycle ----
//
// Each NBVE cycle folds its lanes' range tests into one flag and walks
// its lanes again only when the flag is set. The error must name the
// first bad lane in cycle, assignment, lane order, with the per-lane
// check's message: expression, file and line.

/// `what` with the directory part of __FILE__ cut, which depends on
/// where the sources were built.
std::string without_source_dir(const std::string& what) {
  const std::size_t at = what.find(" at ");
  const std::size_t src = what.find("src/bitslice/", at);
  if (at == std::string::npos || src == std::string::npos) return what;
  return what.substr(0, at + 4) + what.substr(src);
}

std::string datapath_error(Cvu& cvu, const SlicedVector& xs,
                           const SlicedVector& ws) {
  try {
    (void)cvu.dot_product(xs, ws);
  } catch (const Error& e) {
    return without_source_dir(e.what());
  }
  return "no error";
}

/// An 8-bit operand sliced by hand, every slice 1.
SlicedVector ones_8bit(std::size_t n) {
  SlicedVector s;
  s.operand_bits = 8;
  s.slice_bits = 2;
  s.sub.assign(4, std::vector<std::int32_t>(n, 1));
  return s;
}

const std::string kXError =
    "BPVEC_CHECK failed: (x[i] >= lo && x[i] <= hi) at "
    "src/bitslice/nbve.cpp:27 — x slice exceeds datapath";
const std::string kWError =
    "BPVEC_CHECK failed: (w[i] >= lo && w[i] <= hi) at "
    "src/bitslice/nbve.cpp:28 — w slice exceeds datapath";

TEST(CvuDatapathCheck, OneBadSliceThrowsTheSameErrorAtAnyLane) {
  // The probe's CVU (α = 2, B = 16, L = 16) at 8 × 8 bits: 4 clusters,
  // 64 elements per cycle. n = 100 leaves a partial final cycle; its last
  // lane is element 99 (cluster 2, lane 3). The 2-bit datapath takes
  // slices in [-2, 3].
  Cvu cvu({2, 16, 16});
  constexpr std::size_t kN = 100;
  const SlicedVector good = ones_8bit(kN);
  ASSERT_EQ(cvu.dot_product(good, good).value,
            static_cast<std::int64_t>(kN) * 85 * 85);  // 85 = 0b01010101
  for (const std::size_t lane : {std::size_t{0}, std::size_t{40}, kN - 1}) {
    for (const int slice : {0, 1, 3}) {
      for (const std::int32_t bad : {4, -3}) {
        SCOPED_TRACE("lane " + std::to_string(lane) + ", slice " +
                     std::to_string(slice) + ", value " +
                     std::to_string(bad));
        SlicedVector x = good;
        x.sub[static_cast<std::size_t>(slice)][lane] = bad;
        EXPECT_EQ(datapath_error(cvu, x, good), kXError);
        EXPECT_EQ(datapath_error(cvu, good, x), kWError);
      }
    }
  }
}

TEST(CvuDatapathCheck, TheFirstBadLaneNamesTheError) {
  Cvu cvu({2, 16, 16});
  SlicedVector x = ones_8bit(100), w = ones_8bit(100);
  // One NBVE cycle with a bad x lane after a bad w lane: lane order wins.
  x.sub[0][9] = 7;
  w.sub[0][2] = -9;
  EXPECT_EQ(datapath_error(cvu, x, w), kWError);
  // A bad x lane in the first cycle comes before a bad w lane in the last.
  x = ones_8bit(100);
  w = ones_8bit(100);
  x.sub[2][63] = 4;
  w.sub[0][64] = 4;
  EXPECT_EQ(datapath_error(cvu, x, w), kXError);
  // The datapath's extremes pass: a lower slice at 3, the top slice at -2.
  x = ones_8bit(100);
  w = ones_8bit(100);
  x.sub[0][5] = 3;
  x.sub[3][6] = -2;
  EXPECT_EQ(datapath_error(cvu, x, w), "no error");
}

// ---- The sliced overload is the same dot product, sliced by the caller ----

void expect_same_result(const CvuResult& sliced, const CvuResult& vec) {
  EXPECT_EQ(sliced.value, vec.value);
  EXPECT_EQ(sliced.cycles, vec.cycles);
  EXPECT_EQ(sliced.mult_ops, vec.mult_ops);
  EXPECT_EQ(sliced.shift_ops, vec.shift_ops);
  EXPECT_EQ(sliced.add_ops, vec.add_ops);
  EXPECT_DOUBLE_EQ(sliced.utilization, vec.utilization);
}

TEST(CvuSlicedOverload, MatchesVectorOverloadOnEveryBitwidthPair) {
  for (const CvuGeometry g : {CvuGeometry{2, 8, 16}, CvuGeometry{2, 16, 16}}) {
    Cvu cvu(g);
    for (int xb = 1; xb <= 8; ++xb) {
      for (int wb = 1; wb <= 8; ++wb) {
        const int per_cycle = cvu.plan_for(xb, wb).elements_per_cycle();
        // 0 and 1, plus lengths that leave a partial last cycle.
        for (const int n : {0, 1, per_cycle - 1, per_cycle + 5,
                            3 * per_cycle + 7}) {
          Rng rng(static_cast<std::uint64_t>(xb * 1009 + wb * 31 + n));
          const auto x = rng.signed_vector(static_cast<std::size_t>(n), xb);
          const auto w = rng.signed_vector(static_cast<std::size_t>(n), wb);
          SCOPED_TRACE(g.to_string() + " x_bits=" + std::to_string(xb) +
                       " w_bits=" + std::to_string(wb) +
                       " n=" + std::to_string(n));
          const CvuResult vec = cvu.dot_product(x, w, xb, wb);
          const CvuResult sliced =
              cvu.dot_product(slice_vector_signed(x, xb, g.slice_bits),
                              slice_vector_signed(w, wb, g.slice_bits));
          EXPECT_EQ(vec.value, reference_dot(x, w));
          expect_same_result(sliced, vec);
        }
      }
    }
  }
}

TEST(CvuSlicedOverload, UnsignedOperandMatchesVectorOverload) {
  Cvu cvu({2, 8, 16});
  Rng rng(29);
  std::vector<std::int32_t> x;
  for (int i = 0; i < 77; ++i) {
    x.push_back(static_cast<std::int32_t>(rng.unsigned_value(6)));
  }
  const auto w = rng.signed_vector(x.size(), 8);
  expect_same_result(cvu.dot_product(slice_vector_unsigned(x, 6, 2),
                                     slice_vector_signed(w, 8, 2)),
                     cvu.dot_product(x, w, 6, 8, /*x_signed=*/false));
}

TEST(CvuSlicedOverload, RejectsInconsistentOperands) {
  Cvu cvu({2, 8, 16});
  const std::vector<std::int32_t> x{1, -2, 3, -4, 5};
  const auto xs = slice_vector_signed(x, 8, 2);
  // Slices of the wrong width for the CVU's α.
  EXPECT_THROW(cvu.dot_product(xs, slice_vector_signed(x, 8, 4)), Error);
  EXPECT_THROW(cvu.dot_product(slice_vector_signed(x, 8, 1), xs), Error);
  // Operands of different lengths.
  EXPECT_THROW(
      cvu.dot_product(xs, slice_vector_signed({1, -2, 3, -4}, 8, 2)), Error);
  // One sub-vector shorter than the rest.
  auto ragged = xs;
  ragged.sub.back().pop_back();
  EXPECT_THROW(cvu.dot_product(xs, ragged), Error);
  // A bitwidth the CVU has no plan for.
  EXPECT_THROW(cvu.dot_product(slice_vector_signed(x, 10, 2), xs), Error);
  // A slice count that disagrees with the plan for operand_bits.
  auto relabelled = xs;
  relabelled.operand_bits = 4;
  EXPECT_THROW(cvu.dot_product(relabelled, xs), Error);
}

}  // namespace
}  // namespace bpvec::bitslice
