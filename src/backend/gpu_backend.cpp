#include "src/backend/gpu_backend.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/error.h"

namespace bpvec::backend {

double GpuSpec::peak_macs_per_s(int bits) const {
  BPVEC_CHECK(bits >= 1 && bits <= 8);
  const double int8_peak = tensor_cores * int8_macs_per_core_per_clock *
                           frequency_ghz * 1e9;
  return bits <= 4 ? 2.0 * int8_peak : int8_peak;
}

GpuBackend::GpuBackend(GpuSpec spec) : spec_(spec) {}

const std::string& GpuBackend::name() const {
  static const std::string kName = "gpu";
  return kName;
}

std::uint64_t GpuBackend::fingerprint() const {
  common::ConfigHash f;
  f.str(name());
  f.str(spec_.name);
  f.i32(spec_.tensor_cores);
  f.f64(spec_.frequency_ghz);
  f.f64(spec_.int8_macs_per_core_per_clock);
  f.f64(spec_.memory_bandwidth_gbps);
  f.f64(spec_.board_power_w);
  f.f64(spec_.conv_utilization);
  f.f64(spec_.gemv_bandwidth_fraction);
  f.f64(spec_.kernel_overhead_us);
  return f.h;
}

sim::LayerResult GpuBackend::price_layer(const dnn::Layer& layer) const {
  sim::LayerResult r;
  r.name = layer.name;
  r.kind = layer.kind;
  r.x_bits = layer.x_bits;
  r.w_bits = layer.w_bits;
  r.macs = layer.macs();

  const double overhead = spec_.kernel_overhead_us * 1e-6;
  const double bw =
      spec_.memory_bandwidth_gbps * 1e9 * spec_.gemv_bandwidth_fraction;
  // The GPU executes at the padded INT precision: INT4 when both operands
  // are ≤ 4 bits, INT8 otherwise.
  const int bits = std::max(layer.x_bits, layer.w_bits) <= 4 ? 4 : 8;
  switch (layer.kind) {
    case dnn::LayerKind::kConv: {
      const double compute =
          static_cast<double>(layer.macs()) /
          (spec_.peak_macs_per_s(bits) * spec_.conv_utilization);
      r.runtime_s = overhead + compute;
      break;
    }
    case dnn::LayerKind::kFullyConnected: {
      // Batch-1 FC is a GEMV: one pass over the weights, bandwidth-bound.
      const double bytes =
          static_cast<double>(layer.weights()) * bits / 8.0;
      r.runtime_s = overhead + bytes / bw;
      r.memory_bound = true;
      break;
    }
    case dnn::LayerKind::kRecurrent: {
      // One fused GEMV kernel per time step, streaming the gate matrices.
      const auto& p = layer.recurrent();
      const double bytes_per_step =
          static_cast<double>(layer.weights()) * bits / 8.0;
      const double per_step = overhead + bytes_per_step / bw;
      r.runtime_s = per_step * p.time_steps;
      r.memory_bound = true;
      break;
    }
    case dnn::LayerKind::kPool:
      // Pooling fuses into the preceding kernel on TensorRT.
      break;
  }
  r.total_cycles = static_cast<std::int64_t>(
      std::llround(r.runtime_s * spec_.frequency_ghz * 1e9));
  // Board power over the layer's wall clock; the breakdown has no
  // compute/SRAM/DRAM split for the GPU, so it all lands in static_pj.
  r.energy.static_pj = r.runtime_s * spec_.board_power_w * 1e12;
  return r;
}

sim::RunResult GpuBackend::assemble(
    const dnn::Network& network, std::vector<sim::LayerResult> layers) const {
  sim::RunResult result;
  result.platform = spec_.name;
  result.network = network.name();
  result.memory = "GDDR6";
  result.backend = name();
  result.layers = std::move(layers);

  // Seconds and MACs accumulate in layer order.
  for (const sim::LayerResult& lr : result.layers) {
    result.runtime_s += lr.runtime_s;
    result.total_macs += lr.macs;
    result.total_cycles += lr.total_cycles;
    result.energy += lr.energy;
  }
  BPVEC_CHECK(result.runtime_s > 0);
  result.energy_j = result.energy.total_pj() * 1e-12;
  result.average_power_w = spec_.board_power_w;
  result.gops_per_s =
      2.0 * static_cast<double>(result.total_macs) / result.runtime_s / 1e9;
  result.gops_per_w = result.gops_per_s / spec_.board_power_w;
  return result;
}

}  // namespace bpvec::backend
