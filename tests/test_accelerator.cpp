// The Table II accelerator platforms (sim::AcceleratorConfig factories)
// driven through the library's own calls: exact dot products on the
// platform's CVU, its composition plans, its per-MAC cost, and a whole
// network through sim::Simulator. Table II MAC counts and the shared core
// power budget are pinned in test_config (TableTwo.*), the BitFusion area
// overhead in test_cvu_cost (BitFusionPointHas40PercentAreaOverhead).
#include <gtest/gtest.h>

#include "src/arch/cvu_cost.h"
#include "src/arch/dram.h"
#include "src/bitslice/cvu.h"
#include "src/common/rng.h"
#include "src/dnn/model_zoo.h"
#include "src/sim/simulator.h"

namespace bpvec::sim {
namespace {

std::int64_t reference_dot(const std::vector<std::int32_t>& x,
                           const std::vector<std::int32_t>& w) {
  std::int64_t expected = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    expected += static_cast<std::int64_t>(x[i]) * w[i];
  }
  return expected;
}

TEST(Accelerator, DotProductIsExact) {
  bitslice::Cvu cvu(bpvec_accelerator().cvu);
  Rng rng(42);
  for (int bits : {2, 4, 8}) {
    const auto x = rng.signed_vector(300, bits);
    const auto w = rng.signed_vector(300, bits);
    EXPECT_EQ(cvu.dot_product(x, w, bits, bits).value, reference_dot(x, w));
  }
}

TEST(Accelerator, BitFusionDotProductUsesScalarUnit) {
  // A fusion unit is the L = 1 degenerate CVU (AcceleratorConfig prices
  // it that way too).
  bitslice::CvuGeometry fusion_unit = bitfusion_accelerator().cvu;
  fusion_unit.lanes = 1;
  bitslice::Cvu cvu(fusion_unit);
  Rng rng(7);
  const auto x = rng.signed_vector(10, 8);
  const auto w = rng.signed_vector(10, 8);
  const auto r = cvu.dot_product(x, w, 8, 8);
  EXPECT_EQ(r.value, reference_dot(x, w));
  // L = 1: one vector element per cycle in 8×8 mode.
  EXPECT_EQ(r.cycles, 10);
}

TEST(Accelerator, PlanExposesComposition) {
  const bitslice::CvuGeometry g = bpvec_accelerator().cvu;
  EXPECT_EQ(bitslice::plan_composition(g, 8, 8).clusters, 1);
  EXPECT_EQ(bitslice::plan_composition(g, 4, 4).clusters, 4);
  EXPECT_EQ(bitslice::plan_composition(g, 2, 2).clusters, 16);
}

TEST(Accelerator, ConventionalCostIsUnity) {
  // The TPU-like PE is the Fig. 4 normalization unit: one conventional
  // MAC per PE, in energy and in area.
  const arch::CvuCostModel cost;
  const AcceleratorConfig c = tpu_like_baseline();
  EXPECT_NEAR(c.pe_energy_per_cycle_pj(cost) /
                  cost.conventional_mac_energy_pj(),
              1.0, 1e-9);
  EXPECT_NEAR(c.core_area_um2(cost) / c.num_pes() /
                  cost.conventional_mac_area_um2(),
              1.0, 1e-9);
}

TEST(Accelerator, BpvecCostBeatsConventional) {
  const auto p =
      arch::CvuCostModel().normalized_per_mac(bpvec_accelerator().cvu);
  EXPECT_LT(p.power_total(), 0.7);
  EXPECT_LT(p.area_total(), 0.8);
}

TEST(Accelerator, SimulateProducesConsistentRun) {
  const auto r = Simulator(bpvec_accelerator(), arch::hbm2())
                     .run(dnn::make_lstm(dnn::BitwidthMode::kHeterogeneous));
  EXPECT_EQ(r.platform, "BPVeC");
  EXPECT_EQ(r.memory, "HBM2");
  EXPECT_GT(r.total_cycles, 0);
  EXPECT_GT(r.gops_per_w, 0.0);
}

}  // namespace
}  // namespace bpvec::sim
