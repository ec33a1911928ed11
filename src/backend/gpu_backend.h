// GpuBackend — analytical model of the Nvidia RTX 2080 Ti GPU baseline
// (paper Table II and Fig. 9), priced into the common sim::RunResult
// shape so the Fig. 9 GPU column rides the same SimEngine batch path and
// report tables as the ASIC platforms.
//
// Substitution: the paper measures TensorRT 5.1 INT8/INT4 inference on the
// physical card. We model each layer with a tensor-core roofline:
//
//   t_layer = overhead + max( ops / (peak · util_kind),
//                             bytes / effective_bandwidth )
//
// where `overhead` is the per-kernel launch/framework cost that dominates
// small recurrent steps, `util_kind` is the achievable tensor-core
// utilization for the layer class at batch 1 (convolutions map well;
// GEMV-shaped FC/recurrent layers are bandwidth-bound), and bandwidth is
// GDDR6 at an achievable fraction of peak. Performance-per-Watt uses the
// board power — GPUs burn close to TDP during inference bursts.
//
// This preserves what drives Fig. 9: CNNs are utilization-limited, RNN and
// LSTM are launch/bandwidth-crippled at batch 1, and INT4 doubles peak
// throughput for the heterogeneous-bitwidth comparison.
//
// Cycles are reported at the GPU clock; energy charges board power over
// the run (the Fig. 9 perf/W basis).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/backend/cost_backend.h"

namespace bpvec::backend {

struct GpuSpec {
  const char* name = "RTX 2080 Ti";
  int tensor_cores = 544;        // Table II
  double frequency_ghz = 1.545;  // Table II
  // Each Turing tensor core sustains 64 INT8 MACs per clock.
  double int8_macs_per_core_per_clock = 64.0;
  double memory_bandwidth_gbps = 616.0;  // GDDR6
  double board_power_w = 250.0;          // TDP-class inference power

  // Achievable fractions (batch-1 inference, TensorRT-class stacks).
  double conv_utilization = 0.14;
  double gemv_bandwidth_fraction = 0.55;
  double kernel_overhead_us = 18.0;

  /// Peak MAC throughput (MACs/s) at the given operand precision;
  /// INT4 doubles the INT8 rate on Turing.
  double peak_macs_per_s(int bits) const;
};

class GpuBackend : public CostBackend {
 public:
  explicit GpuBackend(GpuSpec spec = GpuSpec{});

  const std::string& name() const override;
  std::uint64_t fingerprint() const override;
  /// The per-layer roofline: runtime_s, memory_bound (bandwidth-bound
  /// GEMV shapes), cycles at the GPU clock and board-power energy.
  sim::LayerResult price_layer(const dnn::Layer& layer) const override;
  sim::RunResult assemble(const dnn::Network& network,
                          std::vector<sim::LayerResult> layers) const override;

 private:
  GpuSpec spec_;
};

}  // namespace bpvec::backend
