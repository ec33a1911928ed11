#include "src/core/design_space.h"

#include <gtest/gtest.h>

#include <utility>

#include "src/common/error.h"
#include "tests/sequential_sweep.h"

namespace bpvec::core {
namespace {

TEST(DesignSpace, ExploresFullGrid) {
  const auto points = sequential_sweep({1, 2}, {1, 2, 4, 8, 16});
  EXPECT_EQ(points.size(), 10u);
  for (const auto& p : points) {
    EXPECT_GT(p.cost.power_total(), 0.0);
    EXPECT_GT(p.cost.area_total(), 0.0);
  }
}

TEST(MixUtilization, HomogeneousModesFullyUtilize) {
  const bitslice::CvuGeometry g{2, 8, 16};
  EXPECT_DOUBLE_EQ(mix_utilization(g, {{8, 8, 1.0}}), 1.0);
  EXPECT_DOUBLE_EQ(mix_utilization(g, {{4, 4, 1.0}}), 1.0);
  EXPECT_DOUBLE_EQ(mix_utilization(g, {{2, 2, 1.0}}), 1.0);
}

TEST(MixUtilization, FourBitSlicingWastesOnTwoBitLayers) {
  const bitslice::CvuGeometry g4{4, 8, 16};
  // A 2-bit layer on 4-bit slices pads to 4 bits: computes at quarter
  // efficiency though all NBVEs are "busy" — captured as full utilization
  // of engines but lost boost. The utilization metric sees idle engines
  // only for non-dividing pair counts; the padding waste shows up as a
  // lower boost. Verify the boost loss:
  const auto plan2 = bitslice::plan_composition(g4, 2, 2);
  const auto plan2_on2 =
      bitslice::plan_composition(bitslice::CvuGeometry{2, 8, 16}, 2, 2);
  EXPECT_EQ(plan2.clusters, 4);       // 4-bit slices: only 4× boost
  EXPECT_EQ(plan2_on2.clusters, 16);  // 2-bit slices: full 16×
}

TEST(MixUtilization, WeightedAverage) {
  const bitslice::CvuGeometry g{2, 8, 16};
  // 6-bit layers use 9/16 engines; an even mix with 8-bit gives the mean.
  const double u =
      mix_utilization(g, {{6, 6, 1.0}, {8, 8, 1.0}});
  EXPECT_NEAR(u, (9.0 / 16.0 + 1.0) / 2.0, 1e-12);
}

TEST(MixUtilization, RejectsEmptyMix) {
  EXPECT_THROW(mix_utilization({2, 8, 16}, {}), Error);
}

TEST(BestDesign, PicksTwoBitSixteenLanes) {
  // The paper's conclusion (§III-B): the optimum is α = 2, L = 16, over
  // the Table-I bitwidth mix and over fig4_design_space's deep-quantized
  // mix, whose points that bench prices over the mix itself.
  const std::vector<BitwidthMixEntry> table1{
      {8, 8, 0.2}, {4, 4, 0.7}, {8, 2, 0.1}};
  const std::vector<BitwidthMixEntry> fig4{
      {8, 8, 0.2}, {4, 4, 0.6}, {8, 2, 0.1}, {2, 2, 0.1}};
  const struct {
    const std::vector<BitwidthMixEntry>& mix;
    std::vector<DesignPoint> points;
  } cases[] = {
      {table1, sequential_sweep({1, 2, 4}, {1, 2, 4, 8, 16})},
      {fig4, sequential_sweep({1, 2, 4}, {1, 2, 4, 8, 16}, fig4)},
  };
  for (const auto& c : cases) {
    const auto best = best_design(c.points, c.mix, 0.99);
    EXPECT_EQ(best.geometry.slice_bits, 2) << c.mix.size() << "-entry mix";
    EXPECT_EQ(best.geometry.lanes, 16) << c.mix.size() << "-entry mix";
  }
}

TEST(BestDesign, UtilizationBarFiltersDesigns) {
  const auto points = sequential_sweep({2, 4}, {16});
  // A mix of 6-bit layers wastes bit-work on 4-bit slicing (pads to 8)
  // *and* on 2-bit slicing (9 of 16 engines); with the bar at 1.0 nothing
  // survives.
  const std::vector<BitwidthMixEntry> mix{{6, 6, 1.0}};
  EXPECT_THROW(best_design(points, mix, 1.0), Error);
  // Relaxing the bar admits both (each at 36/64 bit-efficiency); at equal
  // efficiency the cheaper 4-bit slicing wins the score.
  const auto best = best_design(points, mix, 0.5);
  EXPECT_EQ(best.geometry.slice_bits, 4);
  EXPECT_NEAR(best.mix_utilization, 36.0 / 64.0, 1e-12);
}

TEST(BestDesign, TwoBitMixDisqualifiesFourBitSlicing) {
  // With 2-bit layers in the mix (the deep-quantized regime the paper
  // targets), 4-bit slicing pads 2→4 and wastes 3/4 of every product.
  const auto points = sequential_sweep({2, 4}, {16});
  const std::vector<BitwidthMixEntry> mix{{2, 2, 1.0}};
  const auto best = best_design(points, mix, 0.9);
  EXPECT_EQ(best.geometry.slice_bits, 2);
}

TEST(BestDesign, RejectsEmptyPointSet) {
  EXPECT_THROW(best_design({}, {{8, 8, 1.0}}), Error);
}

TEST(BestDesign, EmptyPointSetErrorIsDocumented) {
  try {
    (void)best_design({}, {{8, 8, 1.0}});
    FAIL() << "expected bpvec::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("best_design: empty point set"),
              std::string::npos)
        << e.what();
  }
}

TEST(BestDesign, AllPointsBelowTheBarErrorNamesFloorAndBest) {
  // 6-bit operands on 2-bit slices use 9/16 engines — nothing reaches a
  // 0.99 floor, and the error must say how close the best point came.
  const auto points = sequential_sweep({2}, {16});
  try {
    (void)best_design(points, {{6, 6, 1.0}}, 0.99);
    FAIL() << "expected bpvec::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no design point meets min_utilization"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("0.99"), std::string::npos) << what;
    EXPECT_NE(what.find("best utilization"), std::string::npos) << what;
  }
}

TEST(BestDesign, RejectsEmptyMix) {
  const auto points = sequential_sweep({2}, {16});
  EXPECT_THROW(best_design(points, {}), Error);
}

TEST(BestDesign, NoPointMeetsTheUtilizationFloor) {
  // 6-bit operands on 2-bit slices use 9/16 engines; demanding a 0.99
  // floor over a single-point sweep leaves nothing.
  const auto points = sequential_sweep({2}, {16});
  EXPECT_THROW(best_design(points, {{6, 6, 1.0}}, 0.99), Error);
}

TEST(DesignSpace, SinglePointSweep) {
  const auto points = sequential_sweep({2}, {16});
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].geometry.slice_bits, 2);
  EXPECT_EQ(points[0].geometry.lanes, 16);
  // best_design over one admissible point returns it.
  const auto best = best_design(points, {{8, 8, 1.0}});
  EXPECT_EQ(best.geometry.lanes, 16);
  EXPECT_DOUBLE_EQ(best.mix_utilization, 1.0);
}

TEST(DesignSpace, GridMatchesExploreOrder) {
  // Fig. 4's order: slice widths outer, lanes inner, at 8-bit maximum.
  const auto points = sequential_sweep({1, 2}, {1, 4, 16});
  const std::vector<std::pair<int, int>> expected{
      {1, 1}, {1, 4}, {1, 16}, {2, 1}, {2, 4}, {2, 16}};
  ASSERT_EQ(points.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(points[i].geometry.slice_bits, expected[i].first);
    EXPECT_EQ(points[i].geometry.lanes, expected[i].second);
    EXPECT_EQ(points[i].geometry.max_bits, 8);
  }
}

TEST(DesignSpace, PricePointMatchesExplore) {
  const auto points = sequential_sweep({1, 2}, {1, 2, 4, 8, 16});
  for (const auto& p : points) {
    const auto repriced = price_design_point(p.geometry);
    EXPECT_EQ(repriced.cost.power_total(), p.cost.power_total());
    EXPECT_EQ(repriced.cost.area_total(), p.cost.area_total());
  }
}

TEST(DesignSpace, PricePointWithMixFillsUtilization) {
  const std::vector<BitwidthMixEntry> mix{{6, 6, 1.0}};
  const auto p = price_design_point(bitslice::CvuGeometry{2, 8, 16}, mix);
  EXPECT_NEAR(p.mix_utilization, 9.0 / 16.0, 1e-12);
}

TEST(DesignSpace, InvalidGeometryInGridThrows) {
  // 3 does not divide 8 — geometry validation must reject the point.
  EXPECT_THROW(price_design_point(bitslice::CvuGeometry{3, 8, 16}), Error);
}

}  // namespace
}  // namespace bpvec::core
