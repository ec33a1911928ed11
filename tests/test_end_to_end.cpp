// Figure-level integration tests: the headline claims of the paper's
// evaluation, checked as geomean bands over the six Table-I networks.
// Bands are deliberately generous — the substrate is an analytical
// simulator, not the authors' RTL + testbed — but each test pins the
// *direction* and rough magnitude of a published result.
#include <gtest/gtest.h>

#include <vector>

#include "src/backend/gpu_backend.h"
#include "src/common/mathutil.h"
#include "src/dnn/model_zoo.h"
#include "src/sim/simulator.h"

namespace bpvec {
namespace {

using dnn::BitwidthMode;

sim::RunResult run(const sim::AcceleratorConfig& cfg,
                   const arch::DramModel& mem, const dnn::Network& net) {
  return sim::Simulator(cfg, mem).run(net);
}

double cyc(const sim::RunResult& a, const sim::RunResult& b) {
  return static_cast<double>(a.total_cycles) /
         static_cast<double>(b.total_cycles);
}

TEST(Figure5, BpvecBeatsBaselineBy40PercentGeomean) {
  // Paper: ~1.39× speedup, ~1.43× energy reduction (homogeneous, DDR4).
  std::vector<double> speedups, energy;
  for (const auto& net : dnn::all_models(BitwidthMode::kHomogeneous8b)) {
    const auto base = run(sim::tpu_like_baseline(), arch::ddr4(), net);
    const auto bp = run(sim::bpvec_accelerator(), arch::ddr4(), net);
    speedups.push_back(cyc(base, bp));
    energy.push_back(base.energy_j / bp.energy_j);
  }
  EXPECT_GT(geomean(speedups), 1.20);
  EXPECT_LT(geomean(speedups), 1.70);
  EXPECT_GT(geomean(energy), 1.05);
  EXPECT_LT(geomean(energy), 1.70);
}

TEST(Figure5, RnnAndLstmGainNothingUnderDdr4) {
  // Paper: the bandwidth-starved recurrent models sit at ~1.0×.
  for (auto make : {dnn::make_rnn, dnn::make_lstm}) {
    const auto net = make(BitwidthMode::kHomogeneous8b);
    const auto base = run(sim::tpu_like_baseline(), arch::ddr4(), net);
    const auto bp = run(sim::bpvec_accelerator(), arch::ddr4(), net);
    EXPECT_LT(cyc(base, bp), 1.15) << net.name();
  }
}

TEST(Figure5, CnnsGainMoreThanRnns) {
  const auto rnn = dnn::make_rnn(BitwidthMode::kHomogeneous8b);
  const auto rn18 = dnn::make_resnet18(BitwidthMode::kHomogeneous8b);
  const double s_rnn =
      cyc(run(sim::tpu_like_baseline(), arch::ddr4(), rnn),
          run(sim::bpvec_accelerator(), arch::ddr4(), rnn));
  const double s_cnn =
      cyc(run(sim::tpu_like_baseline(), arch::ddr4(), rn18),
          run(sim::bpvec_accelerator(), arch::ddr4(), rn18));
  EXPECT_GT(s_cnn, s_rnn);
}

TEST(Figure6, BpvecExploitsHbm2FarBetterThanBaseline) {
  // Paper: baseline gains ~1.06× from HBM2; BPVeC reaches ~2.1×
  // speedup and ~2.3× energy reduction over the DDR4 baseline.
  std::vector<double> base_gain, bp_speedup, bp_energy;
  for (const auto& net : dnn::all_models(BitwidthMode::kHomogeneous8b)) {
    const auto base_d = run(sim::tpu_like_baseline(), arch::ddr4(), net);
    const auto base_h = run(sim::tpu_like_baseline(), arch::hbm2(), net);
    const auto bp_h = run(sim::bpvec_accelerator(), arch::hbm2(), net);
    base_gain.push_back(cyc(base_d, base_h));
    bp_speedup.push_back(cyc(base_d, bp_h));
    bp_energy.push_back(base_d.energy_j / bp_h.energy_j);
  }
  EXPECT_LT(geomean(base_gain), 1.5);   // baseline barely moves
  EXPECT_GT(geomean(bp_speedup), 1.7);  // BPVeC unlocked
  EXPECT_LT(geomean(bp_speedup), 3.2);
  EXPECT_GT(geomean(bp_speedup), geomean(base_gain) * 1.5);
  EXPECT_GT(geomean(bp_energy), 1.8);
}

TEST(Figure7, BpvecBeatsBitFusionWithHeterogeneousBitwidths) {
  // Paper: ~1.45× speedup, ~1.13× energy reduction over BitFusion (DDR4).
  std::vector<double> speedups, energy;
  for (const auto& net : dnn::all_models(BitwidthMode::kHeterogeneous)) {
    const auto bf = run(sim::bitfusion_accelerator(), arch::ddr4(), net);
    const auto bp = run(sim::bpvec_accelerator(), arch::ddr4(), net);
    speedups.push_back(cyc(bf, bp));
    energy.push_back(bf.energy_j / bp.energy_j);
  }
  EXPECT_GT(geomean(speedups), 1.10);
  EXPECT_LT(geomean(speedups), 1.80);
  EXPECT_GT(geomean(energy), 1.00);
  EXPECT_LT(geomean(energy), 1.45);
}

TEST(Figure8, Hbm2AmplifiesTheBitFusionGap) {
  // Paper: ~3.5× speedup / ~2.7× energy vs BitFusion-DDR4; recurrent
  // models benefit most (~4.5×).
  std::vector<double> speedups, energy;
  double rnn_speedup = 0, cnn_geo = 1;
  for (const auto& net : dnn::all_models(BitwidthMode::kHeterogeneous)) {
    const auto bf_d = run(sim::bitfusion_accelerator(), arch::ddr4(), net);
    const auto bp_h = run(sim::bpvec_accelerator(), arch::hbm2(), net);
    const double s = cyc(bf_d, bp_h);
    speedups.push_back(s);
    energy.push_back(bf_d.energy_j / bp_h.energy_j);
    if (net.name() == "RNN") rnn_speedup = s;
    if (net.name() == "ResNet-50") cnn_geo = s;
  }
  EXPECT_GT(geomean(speedups), 2.0);
  EXPECT_LT(geomean(speedups), 4.5);
  EXPECT_GT(geomean(energy), 2.0);
  // Recurrent models gain the most (paper: 4.5× vs CNN's ~3×).
  EXPECT_GT(rnn_speedup, cnn_geo);
}

TEST(Figure9, PerfPerWattDwarfsTheGpu) {
  // Paper: geomean 28–34× better Performance-per-Watt than RTX 2080 Ti
  // across the four design points; RNN/LSTM see the largest ratios.
  const backend::GpuBackend gpu;
  for (auto mode :
       {BitwidthMode::kHomogeneous8b, BitwidthMode::kHeterogeneous}) {
    std::vector<double> ratios;
    double rnn_ratio = 0, cnn_min = 1e18;
    for (const auto& net : dnn::all_models(mode)) {
      const auto bp = run(sim::bpvec_accelerator(), arch::ddr4(), net);
      const auto g = gpu.run(net);
      const double ratio = bp.gops_per_w / g.gops_per_w;
      ratios.push_back(ratio);
      if (net.type() == dnn::NetworkType::kRnn) {
        rnn_ratio = std::max(rnn_ratio, ratio);
      } else {
        cnn_min = std::min(cnn_min, ratio);
      }
      EXPECT_GT(ratio, 1.0) << net.name();  // the ASIC always wins
    }
    const double geo = geomean(ratios);
    EXPECT_GT(geo, 8.0) << to_string(mode);
    EXPECT_LT(geo, 120.0) << to_string(mode);
    // Recurrent workloads show the biggest advantage (paper: 130–225×).
    EXPECT_GT(rnn_ratio, cnn_min);
  }
}

TEST(Figure9, Hbm2KeepsTheAdvantage) {
  const backend::GpuBackend gpu;
  std::vector<double> ratios;
  for (const auto& net : dnn::all_models(BitwidthMode::kHomogeneous8b)) {
    const auto bp = run(sim::bpvec_accelerator(), arch::hbm2(), net);
    ratios.push_back(bp.gops_per_w / gpu.run(net).gops_per_w);
  }
  EXPECT_GT(geomean(ratios), 8.0);
}

}  // namespace
}  // namespace bpvec
