// BitSerialBackend — the temporal (bit-serial) composability baseline:
// the Stripes/Loom design style from the paper's Fig. 1 taxonomy and §V
// ("Design with support for bit-level flexibility through bit-serial
// computation"), priced end to end.
//
// A bit-serial engine processes one bit of one operand per cycle (Stripes:
// serial activations × parallel weights; Loom: serial × serial), trading
// latency for perfect bitwidth proportionality: a bw-bit operand takes bw
// cycles, so quantization buys exactly linear speedup with no composition
// logic at all. Data-level parallelism across wide vector lanes compensates
// the serial latency. Spatial vector composability reaches the same
// proportionality while keeping single-cycle MACs, at the cost of the
// shift/aggregation network that Fig. 4 prices.
//
// The backend prices whole networks into the common sim::RunResult
// shape: the same memory system (estimate_traffic + double-buffered
// overlap), scratchpad, and energy accounting as the cycle simulator,
// with the compute model swapped for serial MACs.
//
// Organization: the platform's rows×cols PE array is re-populated with
// bit-serial vector engines of `lanes` lanes each. The K dimension
// spreads across rows — each engine consuming `lanes` dot-product
// elements per cycles_per_mac(x, w) cycles — and N across cols, so at
// max bitwidth the default geometry (512 engines × 16 lanes / 8
// cycles) sustains 1024 MACs/cycle, comparable to BPVeC's Table II
// array.
//
// Compute energy charges each MAC the serial engine's lane-cycle energy
// integrated over its serial latency (bit_serial_cost anchored to the
// conventional-MAC scale); SRAM/DRAM/static energy reuse
// sim::EnergyModel unchanged.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/arch/technology.h"
#include "src/backend/cost_backend.h"
#include "src/sim/energy.h"

namespace bpvec::backend {

enum class SerialMode {
  kActivationSerial,  // Stripes: x serial, w parallel
  kFullySerial,       // Loom: both operands serial
};

struct BitSerialConfig {
  SerialMode mode = SerialMode::kActivationSerial;
  int lanes = 16;     // vector lanes per engine (DLP compensating serialism)
  int max_bits = 8;

  /// Cycles to complete one bw_x × bw_w MAC (per lane).
  /// Activation-serial: bw_x cycles. Fully serial: bw_x · bw_w cycles.
  std::int64_t cycles_per_mac(int x_bits, int w_bits) const;

  /// Effective MACs per engine per cycle at the given bitwidths.
  double macs_per_cycle(int x_bits, int w_bits) const;
};

/// Area/power of one bit-serial engine, per 8-bit-MAC-equivalent at
/// maximum bitwidth, normalized to the conventional 8-bit MAC (the same
/// normalization as Fig. 4). A serial lane is a bw-wide AND array + a
/// shift-accumulator; its cost advantage per lane is paid back by needing
/// `bw` cycles per MAC.
struct BitSerialCost {
  double power_per_mac = 0.0;  // normalized, at 8-bit operands
  double area_per_mac = 0.0;
};

BitSerialCost bit_serial_cost(const arch::Technology& tech,
                              const BitSerialConfig& config);

class BitSerialBackend : public CostBackend {
 public:
  BitSerialBackend(BitSerialConfig serial, sim::AcceleratorConfig platform,
                   arch::DramModel memory);

  const std::string& name() const override;
  std::uint64_t fingerprint() const override;
  sim::LayerResult price_layer(const dnn::Layer& layer) const override;
  sim::RunResult assemble(const dnn::Network& network,
                          std::vector<sim::LayerResult> layers) const override;

  const BitSerialConfig& serial() const { return serial_; }

 private:
  BitSerialConfig serial_;
  sim::AcceleratorConfig platform_;
  arch::DramModel dram_;
  arch::CvuCostModel cost_;
  sim::EnergyModel energy_;
  /// Design-style label used as RunResult::platform ("BitSerial-Stripes"
  /// or "BitSerial-Loom").
  std::string display_name_;
  /// Energy one lane burns per serial cycle of one MAC (pJ); per-MAC
  /// energy at (x, w) is this times cycles_per_mac(x, w).
  double lane_cycle_energy_pj_ = 0.0;
};

}  // namespace bpvec::backend
