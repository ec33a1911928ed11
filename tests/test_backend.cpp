// Cross-backend golden tests: the bpvec backend must be bit-identical to
// the cycle simulator it wraps, and the paper's ordering invariants must
// hold across the comparator set — bit-serial cycles scale linearly with
// bitwidth while BPVeC keeps single-cycle MACs.
#include "src/backend/backend_registry.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/backend/bit_serial_backend.h"
#include "src/backend/bpvec_backend.h"
#include "src/backend/cost_backend.h"
#include "src/backend/gpu_backend.h"
#include "src/common/error.h"
#include "src/dnn/model_zoo.h"
#include "src/sim/simulator.h"
#include "tests/run_result_identical.h"

namespace bpvec::backend {
namespace {

TEST(BpvecBackend, BitIdenticalToSeedSimulatorOnWholeModelZoo) {
  for (const auto mode : {dnn::BitwidthMode::kHomogeneous8b,
                          dnn::BitwidthMode::kHeterogeneous}) {
    for (const auto& net : dnn::all_models(mode)) {
      for (const auto& config :
           {sim::tpu_like_baseline(), sim::bitfusion_accelerator(),
            sim::bpvec_accelerator()}) {
        const BpvecBackend be(config, arch::ddr4());
        const auto via_backend = be.run(net);
        const auto direct = sim::Simulator(config, arch::ddr4()).run(net);
        expect_bit_identical(via_backend, direct);
        EXPECT_EQ(via_backend.backend, "bpvec");
      }
    }
  }
}

// A compute-bound conv with shapes that tile the serial array exactly, so
// cycle counts expose the scaling law without quantization noise.
dnn::Network serial_probe_net(int bits) {
  dnn::Network net("probe", dnn::NetworkType::kCnn);
  dnn::Layer conv = dnn::make_conv(
      "conv", {/*in_c=*/256, /*in_h=*/16, /*in_w=*/16, /*out_c=*/64,
               /*kh=*/3, /*kw=*/3, /*stride=*/1, /*pad=*/1});
  conv.x_bits = bits;
  conv.w_bits = bits;
  net.add(conv);
  return net;
}

TEST(BitSerialBackend, CyclesScaleLinearlyWithBitwidth) {
  const auto platform = sim::tpu_like_baseline();
  const auto mem = arch::hbm2();  // high bandwidth: keep the probe compute-bound

  // Stripes (activation-serial): compute cycles ∝ x_bits.
  const BitSerialBackend stripes(
      {SerialMode::kActivationSerial, 16, 8}, platform, mem);
  const auto s8 = stripes.run(serial_probe_net(8));
  const auto s4 = stripes.run(serial_probe_net(4));
  const double stripes_ratio =
      static_cast<double>(s8.layers[0].compute_cycles) /
      static_cast<double>(s4.layers[0].compute_cycles);
  EXPECT_NEAR(stripes_ratio, 2.0, 0.02);

  // Loom (fully serial): compute cycles ∝ x_bits · w_bits.
  const BitSerialBackend loom({SerialMode::kFullySerial, 16, 8},
                              platform, mem);
  const auto l8 = loom.run(serial_probe_net(8));
  const auto l4 = loom.run(serial_probe_net(4));
  const double loom_ratio = static_cast<double>(l8.layers[0].compute_cycles) /
                            static_cast<double>(l4.layers[0].compute_cycles);
  EXPECT_NEAR(loom_ratio, 4.0, 0.04);
}

TEST(BitSerialBackend, BpvecKeepsSingleCycleMacsWhereSerialPaysLatency) {
  // The paper's Fig. 1 positioning: at max bitwidth the temporal design
  // pays ~max_bits serial cycles per MAC; spatial composability retires
  // MACs in a single cycle, so at equal MAC-equivalents (TPU-like 512
  // engines × 16 lanes / 8 cycles == 1024 == BPVeC's Table II array) the
  // serial engine needs strictly more compute cycles.
  const auto net = serial_probe_net(8);
  const BitSerialBackend stripes(
      {SerialMode::kActivationSerial, 16, 8},
      sim::tpu_like_baseline(), arch::hbm2());
  const BpvecBackend bpvec(sim::bpvec_accelerator(), arch::hbm2());

  const auto serial = stripes.run(net);
  const auto spatial = bpvec.run(net);
  EXPECT_GT(serial.layers[0].compute_cycles, spatial.layers[0].compute_cycles);

  // And BPVeC's per-MAC rate at 8 bits really is single-cycle: compute
  // cycles are bounded by MACs / peak-MACs-per-cycle (plus tiling slack),
  // nowhere near the serial engine's 8 cycles per MAC.
  const auto cfg = sim::bpvec_accelerator();
  const double ideal_cycles =
      static_cast<double>(net.layers()[0].macs()) /
      static_cast<double>(cfg.equivalent_macs());
  EXPECT_LT(static_cast<double>(spatial.layers[0].compute_cycles),
            2.0 * ideal_cycles);
}

TEST(BitSerialBackend, ProducesFullRunResultWithMemoryAndEnergy) {
  const BitSerialBackend be({SerialMode::kActivationSerial, 16, 8},
                            sim::tpu_like_baseline(), arch::ddr4());
  const auto r = be.run(dnn::make_rnn(dnn::BitwidthMode::kHomogeneous8b));
  EXPECT_EQ(r.backend, "bit_serial");
  EXPECT_EQ(r.platform, "BitSerial-Stripes");
  EXPECT_GT(r.total_cycles, 0);
  EXPECT_GT(r.energy_j, 0.0);
  EXPECT_GT(r.gops_per_w, 0.0);
  bool any_dram = false, any_memory_bound = false;
  for (const auto& l : r.layers) {
    if (l.dram_bytes > 0) any_dram = true;
    if (l.memory_bound) any_memory_bound = true;
    EXPECT_GT(l.energy.total_pj(), 0.0);
  }
  // The RNN under DDR4 is the paper's memory-starved case: the promoted
  // model must see DRAM traffic and memory-bound layers, not just a
  // cycles-per-MAC formula.
  EXPECT_TRUE(any_dram);
  EXPECT_TRUE(any_memory_bound);
}

TEST(CostBackend, FingerprintsSeparateBackendsAndConfigs) {
  const auto platform = sim::tpu_like_baseline();
  const BpvecBackend bpvec(platform, arch::ddr4());
  const BitSerialBackend stripes(
      {SerialMode::kActivationSerial, 16, 8}, platform,
      arch::ddr4());
  const BitSerialBackend loom({SerialMode::kFullySerial, 16, 8},
                              platform, arch::ddr4());
  const GpuBackend gpu;

  EXPECT_NE(bpvec.fingerprint(), stripes.fingerprint());
  EXPECT_NE(stripes.fingerprint(), loom.fingerprint());
  EXPECT_NE(bpvec.fingerprint(), gpu.fingerprint());

  // Same backend, different pricing context → different fingerprint.
  const BpvecBackend on_hbm2(platform, arch::hbm2());
  EXPECT_NE(bpvec.fingerprint(), on_hbm2.fingerprint());

  // Different GpuSpec → different fingerprint (registry re-registration
  // with new knobs must not share cache entries).
  GpuSpec tuned;
  tuned.conv_utilization = 0.5;
  EXPECT_NE(gpu.fingerprint(), GpuBackend(tuned).fingerprint());
}

TEST(CostBackend, LayerFingerprintIgnoresNamesButSeesShapeAndBits) {
  dnn::Layer a = dnn::make_conv("conv2a", {64, 28, 28, 64, 3, 3, 1, 1});
  dnn::Layer b = dnn::make_conv("conv3a", {64, 28, 28, 64, 3, 3, 1, 1});
  EXPECT_EQ(layer_fingerprint(a, 16), layer_fingerprint(b, 16));

  dnn::Layer narrower = a;
  narrower.w_bits = 4;
  EXPECT_NE(layer_fingerprint(a, 16), layer_fingerprint(narrower, 16));

  dnn::Layer wider = dnn::make_conv("conv2a", {64, 28, 28, 128, 3, 3, 1, 1});
  EXPECT_NE(layer_fingerprint(a, 16), layer_fingerprint(wider, 16));
}

TEST(BackendRegistry, BuiltinsPresentAndCreatable) {
  auto& reg = BackendRegistry::instance();
  for (const char* key :
       {"bpvec", "bit_serial", "bit_serial_loom", "functional", "gpu"}) {
    EXPECT_TRUE(reg.contains(key)) << key;
    const auto be =
        reg.create(key, sim::bpvec_accelerator(), arch::ddr4());
    ASSERT_NE(be, nullptr);
    EXPECT_EQ(be->name(), key);
  }
}

TEST(BackendRegistry, UnknownKeyFailsLoudly) {
  EXPECT_THROW(BackendRegistry::instance().create(
                   "no_such_backend", sim::bpvec_accelerator(), arch::ddr4()),
               Error);
}

TEST(BackendRegistry, CustomBackendRegistersAndRuns) {
  auto& reg = BackendRegistry::instance();
  // A fresh key per run: a key stays taken for the life of the process
  // (--gtest_repeat runs this body again).
  static int runs = 0;
  const std::string key = "test_custom_" + std::to_string(runs++);
  reg.register_backend(key, [](const sim::AcceleratorConfig& platform,
                               const arch::DramModel& memory) {
    return std::make_unique<BpvecBackend>(platform, memory);
  });
  EXPECT_TRUE(reg.contains(key));
  const auto be = reg.create(key, sim::bpvec_accelerator(), arch::ddr4());
  const auto r =
      be->run(dnn::make_alexnet(dnn::BitwidthMode::kHomogeneous8b));
  EXPECT_GT(r.total_cycles, 0);
}

TEST(BackendRegistry, ATakenKeyCannotBeRegisteredAgain) {
  // The scenario memo names a backend only by its key, so a key must name
  // one factory for the life of the process.
  auto& reg = BackendRegistry::instance();
  try {
    reg.register_backend("bpvec", [](const sim::AcceleratorConfig&,
                                     const arch::DramModel&) {
      return std::make_unique<GpuBackend>();
    });
    ADD_FAILURE() << "re-registering \"bpvec\" did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("\"bpvec\""), std::string::npos)
        << e.what();
  }
  const auto be = reg.create("bpvec", sim::bpvec_accelerator(), arch::ddr4());
  EXPECT_NE(dynamic_cast<const BpvecBackend*>(be.get()), nullptr);
}

TEST(CostBackend, RunEqualsPriceLayersPlusAssemble) {
  // The contract the engine's layer cache relies on, checked explicitly
  // for each builtin.
  const auto net = dnn::make_resnet18(dnn::BitwidthMode::kHeterogeneous);
  auto& reg = BackendRegistry::instance();
  for (const char* key :
       {"bpvec", "bit_serial", "bit_serial_loom", "functional", "gpu"}) {
    const auto be = reg.create(key, sim::tpu_like_baseline(), arch::ddr4());
    std::vector<sim::LayerResult> layers;
    for (const auto& layer : net.layers()) {
      layers.push_back(be->price_layer(layer));
    }
    // The functional backend re-executes its probes on each call, so the
    // two paths' wall-clocks differ; everything else must still match
    // exactly.
    const bool ignore_wall = std::string(key) == "functional";
    expect_bit_identical(be->assemble(net, std::move(layers)), be->run(net),
                         ignore_wall);
  }
}

}  // namespace
}  // namespace bpvec::backend
