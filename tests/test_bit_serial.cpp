#include "src/backend/bit_serial_backend.h"

#include <gtest/gtest.h>

#include "src/arch/cvu_cost.h"
#include "src/common/error.h"

namespace bpvec::backend {
namespace {

TEST(BitSerial, CyclesPerMacStripes) {
  const BitSerialConfig c{SerialMode::kActivationSerial, 16, 8};
  EXPECT_EQ(c.cycles_per_mac(8, 8), 8);
  EXPECT_EQ(c.cycles_per_mac(4, 8), 4);
  EXPECT_EQ(c.cycles_per_mac(1, 8), 1);
  // Stripes is insensitive to weight bitwidth.
  EXPECT_EQ(c.cycles_per_mac(8, 2), 8);
}

TEST(BitSerial, CyclesPerMacLoom) {
  const BitSerialConfig c{SerialMode::kFullySerial, 16, 8};
  EXPECT_EQ(c.cycles_per_mac(8, 8), 64);
  EXPECT_EQ(c.cycles_per_mac(4, 4), 16);
  EXPECT_EQ(c.cycles_per_mac(2, 2), 4);
}

TEST(BitSerial, MacsPerCycleScalesWithLanes) {
  const BitSerialConfig c16{SerialMode::kActivationSerial, 16, 8};
  const BitSerialConfig c64{SerialMode::kActivationSerial, 64, 8};
  EXPECT_DOUBLE_EQ(c64.macs_per_cycle(8, 8), 4.0 * c16.macs_per_cycle(8, 8));
  EXPECT_DOUBLE_EQ(c16.macs_per_cycle(8, 8), 2.0);
}

TEST(BitSerial, BitwidthProportionality) {
  // The defining property of temporal designs: throughput scales exactly
  // linearly (Stripes) or quadratically (Loom) with quantization.
  const BitSerialConfig stripes{SerialMode::kActivationSerial, 16, 8};
  EXPECT_DOUBLE_EQ(stripes.macs_per_cycle(2, 8) / stripes.macs_per_cycle(8, 8),
                   4.0);
  const BitSerialConfig loom{SerialMode::kFullySerial, 16, 8};
  EXPECT_DOUBLE_EQ(loom.macs_per_cycle(2, 2) / loom.macs_per_cycle(8, 8),
                   16.0);
}

TEST(BitSerial, RejectsOutOfRangeBitwidths) {
  const BitSerialConfig c{SerialMode::kActivationSerial, 16, 8};
  EXPECT_THROW(c.cycles_per_mac(9, 8), Error);
  EXPECT_THROW(c.cycles_per_mac(8, 0), Error);
}

TEST(BitSerialCost, SerialLatencyErasesTheLaneCheapness) {
  // A serial lane is tiny, but the area-time product per MAC ends up in
  // the same league as (or worse than) a parallel MAC — why Stripes/Loom
  // lean on massive lane counts.
  const auto c = bit_serial_cost(arch::tech_45nm(),
                                 {SerialMode::kActivationSerial, 16, 8});
  EXPECT_GT(c.power_per_mac, 0.3);
  EXPECT_GT(c.area_per_mac, 0.5);
}

TEST(BitSerialCost, SpatialVectorComposabilityWinsAtEightBit) {
  // The paper's positioning (§V): at full 8-bit precision the CVU's
  // single-cycle MACs beat the temporal designs' 8-cycle serial MACs in
  // energy per MAC.
  const arch::CvuCostModel model;
  const double cvu_power =
      model.normalized_per_mac({2, 8, 16}).power_total();
  const auto stripes = bit_serial_cost(
      arch::tech_45nm(), {SerialMode::kActivationSerial, 16, 8});
  EXPECT_LT(cvu_power, stripes.power_per_mac);
}

TEST(BitSerialCost, PerMacCostRoughlyFlatInLanes) {
  // Unlike the CVU (whose fixed global aggregation amortizes across L,
  // Fig. 4), a bit-serial engine is lane-dominated: adding lanes adds
  // proportional hardware, so per-MAC cost stays roughly flat (the tree
  // deepens slightly). No amortization cliff exists to exploit.
  const auto narrow = bit_serial_cost(
      arch::tech_45nm(), {SerialMode::kActivationSerial, 4, 8});
  const auto wide = bit_serial_cost(
      arch::tech_45nm(), {SerialMode::kActivationSerial, 64, 8});
  EXPECT_NEAR(wide.power_per_mac / narrow.power_per_mac, 1.0, 0.25);
  EXPECT_NEAR(wide.area_per_mac / narrow.area_per_mac, 1.0, 0.25);
}

}  // namespace
}  // namespace bpvec::backend
