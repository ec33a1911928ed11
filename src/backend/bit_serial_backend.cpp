#include "src/backend/bit_serial_backend.h"

#include <utility>

#include "src/arch/units.h"
#include "src/common/error.h"
#include "src/common/mathutil.h"
#include "src/sim/memory_system.h"

namespace bpvec::backend {

std::int64_t BitSerialConfig::cycles_per_mac(int x_bits, int w_bits) const {
  BPVEC_CHECK(x_bits >= 1 && x_bits <= max_bits);
  BPVEC_CHECK(w_bits >= 1 && w_bits <= max_bits);
  switch (mode) {
    case SerialMode::kActivationSerial:
      return x_bits;
    case SerialMode::kFullySerial:
      return static_cast<std::int64_t>(x_bits) * w_bits;
  }
  return 1;
}

double BitSerialConfig::macs_per_cycle(int x_bits, int w_bits) const {
  return static_cast<double>(lanes) /
         static_cast<double>(cycles_per_mac(x_bits, w_bits));
}

BitSerialCost bit_serial_cost(const arch::Technology& tech,
                              const BitSerialConfig& config) {
  const auto conv = arch::conventional_mac_cost(tech, config.max_bits);
  const double conv_area = conv.total().area_um2;
  const double conv_energy = conv.total().energy_fj;

  // One lane:
  //  * activation-serial (Stripes): the serial bit ANDs a full-width
  //    parallel weight (max_bits AND gates), feeding a shift-accumulator
  //    of ~2·max_bits + log2(lanes) bits.
  //  * fully serial (Loom): a single AND gate plus the accumulator.
  const int acc_width = 2 * config.max_bits + 4;
  arch::Cost lane;
  if (config.mode == SerialMode::kActivationSerial) {
    lane += arch::multiplier_cost(tech, 1, config.max_bits);
  } else {
    lane += arch::multiplier_cost(tech, 1, 1);
  }
  lane += arch::adder_cost(tech, acc_width);
  lane += arch::register_cost(tech, acc_width);
  // Lanes share an adder tree for the vector reduction.
  const arch::Cost tree =
      arch::adder_tree_cost(tech, config.lanes, acc_width);
  const arch::Cost engine =
      static_cast<double>(config.lanes) * lane + tree;

  // Per 8-bit MAC at max bitwidth, the engine needs cycles_per_mac cycles
  // per lane: energy integrates over those cycles; area is shared but each
  // MAC monopolizes its lane for the full serial latency, so per-MAC area
  // is lane-area × cycles (area-time product, the standard comparison).
  const double serial_cycles = static_cast<double>(
      config.cycles_per_mac(config.max_bits, config.max_bits));
  const auto& pc = tech.power_cal;
  const auto& ac = tech.area_cal;

  BitSerialCost c;
  c.power_per_mac = engine.energy_fj * pc.add / config.lanes *
                    serial_cycles / conv_energy;
  c.area_per_mac = engine.area_um2 * ac.add / config.lanes * serial_cycles /
                   conv_area;
  return c;
}

BitSerialBackend::BitSerialBackend(BitSerialConfig serial,
                                   sim::AcceleratorConfig platform,
                                   arch::DramModel memory)
    : serial_(serial),
      platform_(std::move(platform)),
      dram_(std::move(memory)),
      cost_(),
      energy_(platform_, dram_, cost_) {
  platform_.validate();
  BPVEC_CHECK(serial_.lanes >= 1 && serial_.max_bits >= 1);
  display_name_ = serial_.mode == SerialMode::kActivationSerial
                      ? "BitSerial-Stripes"
                      : "BitSerial-Loom";
  // Anchor the serial lane's per-cycle energy to the conventional-MAC
  // scale: bit_serial_cost integrates one MAC's energy over its full
  // serial latency at max bitwidth, normalized to the conventional MAC.
  const auto bsc = bit_serial_cost(cost_.technology(), serial_);
  const double serial_cycles_at_max = static_cast<double>(
      serial_.cycles_per_mac(serial_.max_bits, serial_.max_bits));
  lane_cycle_energy_pj_ = bsc.power_per_mac *
                          cost_.conventional_mac_energy_pj() /
                          serial_cycles_at_max;
}

const std::string& BitSerialBackend::name() const {
  static const std::string kStripes = "bit_serial";
  static const std::string kLoom = "bit_serial_loom";
  return serial_.mode == SerialMode::kActivationSerial ? kStripes : kLoom;
}

std::uint64_t BitSerialBackend::fingerprint() const {
  common::ConfigHash f;
  f.str(name());
  f.i32(static_cast<int>(serial_.mode));
  f.i32(serial_.lanes);
  f.i32(serial_.max_bits);
  hash_platform(f, platform_);
  hash_memory(f, dram_);
  return f.h;
}

sim::LayerResult BitSerialBackend::price_layer(const dnn::Layer& layer) const {
  const std::int64_t batch =
      layer.kind == dnn::LayerKind::kRecurrent ? 1 : platform_.batch_size;
  if (!layer.is_compute()) {
    // Pooling runs on the on-chip post-processing unit, exactly as in the
    // cycle simulator — the serial engines are not involved.
    return sim::price_pool_layer(platform_, energy_, layer, batch);
  }

  sim::LayerResult r;
  r.name = layer.name;
  r.kind = layer.kind;
  r.x_bits = layer.x_bits;
  r.w_bits = layer.w_bits;
  r.macs = layer.macs() * batch;

  dnn::GemmShape gemm = layer.gemm(platform_.time_chunk);
  if (layer.kind != dnn::LayerKind::kRecurrent) {
    gemm.m *= platform_.batch_size;
  }

  // Serial compute: K spreads across the rows (each engine consuming
  // `lanes` dot-product elements per cycles_per_mac serial pass), N
  // across the cols; M streams through. A bw-bit MAC monopolizes its
  // lane for cycles_per_mac(x, w) cycles — the temporal composability
  // trade: linear bitwidth proportionality at serial latency.
  const std::int64_t cpm = serial_.cycles_per_mac(r.x_bits, r.w_bits);
  const std::int64_t k_tile =
      static_cast<std::int64_t>(platform_.rows) * serial_.lanes;
  const std::int64_t k_passes = ceil_div(gemm.k, k_tile);
  const std::int64_t n_passes = ceil_div(gemm.n, platform_.cols);
  const std::int64_t fill_drain = platform_.rows + platform_.cols;
  const std::int64_t compute_cycles =
      k_passes * n_passes * gemm.m * cpm + fill_drain;
  const std::int64_t macs_per_repeat = gemm.m * gemm.n * gemm.k;
  const double peak_macs_per_cycle =
      static_cast<double>(platform_.num_pes()) *
      static_cast<double>(serial_.lanes) / static_cast<double>(cpm);
  r.utilization = static_cast<double>(macs_per_repeat) /
                  (static_cast<double>(compute_cycles) * peak_macs_per_cycle);
  BPVEC_CHECK(r.utilization <= 1.0 + 1e-9);

  // Memory side: identical traffic model and double-buffered overlap as
  // the cycle simulator — the serial engines change compute, not DRAM.
  const sim::TrafficEstimate traffic = sim::estimate_traffic(
      platform_, gemm, r.x_bits, r.w_bits, r.x_bits, n_passes);
  sim::fold_repeat_overlap(r, gemm, compute_cycles, traffic, platform_,
                           dram_);

  // SRAM/DRAM/static energy from the shared model; compute energy charges
  // each useful MAC its serial-lane energy over cpm cycles.
  r.energy = energy_.layer_energy(/*active_cycles=*/0, 0.0, r.total_cycles,
                                  r.sram_bytes, r.dram_bytes);
  r.energy.compute_pj = static_cast<double>(r.macs) * lane_cycle_energy_pj_ *
                        static_cast<double>(cpm);
  return r;
}

sim::RunResult BitSerialBackend::assemble(
    const dnn::Network& network, std::vector<sim::LayerResult> layers) const {
  return sim::assemble_run(display_name_, network.name(), dram_.name, name(),
                           std::move(layers), platform_.frequency_hz);
}

}  // namespace bpvec::backend
