// Compile-time guarantee that the umbrella header exposes the whole public
// surface, plus a smoke test touching one symbol from each area.
#include "src/bpvec.h"

#include <gtest/gtest.h>

namespace bpvec {
namespace {

TEST(UmbrellaHeader, ExposesEveryPublicArea) {
  // core
  EXPECT_LT(core::price_design_point({2, 8, 16}).cost.power_total(), 1.0);
  // bitslice
  EXPECT_EQ(bitslice::plan_composition({2, 8, 16}, 4, 4).clusters, 4);
  // arch
  EXPECT_GT(arch::CvuCostModel{}.conventional_mac_energy_pj(), 0.0);
  EXPECT_EQ(arch::hbm2().bandwidth_gbps, 256.0);
  // dnn
  EXPECT_EQ(dnn::make_lstm(dnn::BitwidthMode::kHeterogeneous)
                .stats()
                .compute_layers,
            1);
  // sim
  EXPECT_EQ(sim::bpvec_accelerator().num_pes(), 64);
  // engine
  EXPECT_EQ(engine::make_memory(engine::Memory::kDdr4).name, "DDR4");
  // backend
  EXPECT_EQ(backend::GpuSpec{}.tensor_cores, 544);
  EXPECT_EQ(backend::BitSerialConfig{}.lanes, 16);
}

}  // namespace
}  // namespace bpvec
