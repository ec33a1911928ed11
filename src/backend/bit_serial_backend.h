// BitSerialBackend — the temporal (bit-serial) composability baseline
// promoted to a full end-to-end cost model.
//
// The seed baselines::BitSerialConfig only answered cycles-per-MAC;
// this backend prices whole networks into the common sim::RunResult
// shape: the same memory system (estimate_traffic + double-buffered
// overlap), scratchpad, and energy accounting as the cycle simulator,
// with the compute model swapped for serial MACs.
//
// Organization: the platform's rows×cols PE array is re-populated with
// bit-serial vector engines of `lanes` lanes each (Stripes: serial
// activations × parallel weights; Loom: both serial). The K dimension
// spreads across rows — each engine consuming `lanes` dot-product
// elements per cycles_per_mac(x, w) cycles — and N across cols, so at
// max bitwidth the default geometry (512 engines × 16 lanes / 8
// cycles) sustains 1024 MACs/cycle, comparable to BPVeC's Table II
// array. Quantization buys exactly linear cycle reduction (the paper's
// Fig. 1 "temporal" column), where BPVeC keeps single-cycle MACs.
//
// Compute energy charges each MAC the serial engine's lane-cycle energy
// integrated over its serial latency (bit_serial_cost anchored to the
// conventional-MAC scale); SRAM/DRAM/static energy reuse
// sim::EnergyModel unchanged.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/backend/cost_backend.h"
#include "src/baselines/bit_serial.h"
#include "src/sim/energy.h"

namespace bpvec::backend {

class BitSerialBackend : public CostBackend {
 public:
  BitSerialBackend(baselines::BitSerialConfig serial,
                   sim::AcceleratorConfig platform, arch::DramModel memory);

  const std::string& name() const override;
  std::uint64_t fingerprint() const override;
  sim::LayerResult price_layer(const dnn::Layer& layer) const override;
  sim::RunResult assemble(const dnn::Network& network,
                          std::vector<sim::LayerResult> layers) const override;

  const baselines::BitSerialConfig& serial() const { return serial_; }
  /// Design-style label used as RunResult::platform ("BitSerial-Stripes"
  /// or "BitSerial-Loom").
  const std::string& display_name() const { return display_name_; }

 private:
  baselines::BitSerialConfig serial_;
  sim::AcceleratorConfig platform_;
  arch::DramModel dram_;
  arch::CvuCostModel cost_;
  sim::EnergyModel energy_;
  std::string display_name_;
  /// Energy one lane burns per serial cycle of one MAC (pJ); per-MAC
  /// energy at (x, w) is this times cycles_per_mac(x, w).
  double lane_cycle_energy_pj_ = 0.0;
};

}  // namespace bpvec::backend
