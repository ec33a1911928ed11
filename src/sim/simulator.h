// End-to-end cycle-level simulator: runs a network on an accelerator
// platform + memory system, producing per-layer and total cycles/energy.
//
// Per compute layer: lower to GEMM, estimate compute cycles and DRAM
// traffic per repeat, overlap them (double buffering ⇒ the slower of the
// two wins each repeat), sum across repeats, account energy. Pool layers
// contribute output traffic only (they run on the on-chip vector unit).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/arch/cvu_cost.h"
#include "src/arch/dram.h"
#include "src/dnn/network.h"
#include "src/sim/config.h"
#include "src/sim/energy.h"
#include "src/sim/memory_system.h"
#include "src/sim/systolic.h"

namespace bpvec::sim {

struct LayerResult {
  std::string name;
  dnn::LayerKind kind = dnn::LayerKind::kConv;
  int x_bits = 8, w_bits = 8;
  std::int64_t macs = 0;
  std::int64_t compute_cycles = 0;  // across all repeats
  std::int64_t memory_cycles = 0;   // across all repeats
  std::int64_t total_cycles = 0;    // max-overlapped, plus DRAM startup
  double utilization = 0.0;
  std::int64_t dram_bytes = 0;
  std::int64_t sram_bytes = 0;
  EnergyBreakdown energy;
  bool memory_bound = false;
  /// Wall-clock seconds of this layer. Cycle-based cost models derive it
  /// from total_cycles; time-based models (the GPU roofline) set it
  /// directly and round total_cycles for reporting.
  double runtime_s = 0.0;

  /// Measured execution, filled only by backends that actually run the
  /// layer (the functional backend's bit-packed probe). measured_macs is
  /// a pure function of the layer (deterministic — the probe's MAC
  /// count); measured_wall_s is host wall clock of the packed kernels —
  /// the one field that varies run to run. Cached copies replay both
  /// verbatim, so reassembled runs stay bit-identical to the run that
  /// produced them. Zero measured_macs ⇒ modeled-only (every other
  /// backend), and reports omit the measured columns.
  double measured_wall_s = 0.0;
  std::int64_t measured_macs = 0;
};

struct RunResult {
  std::string platform;
  std::string network;
  std::string memory;
  /// Cost-backend id that priced the run ("bpvec", "bit_serial", "gpu",
  /// …) — the backend column of reports and BENCH json rows.
  std::string backend;
  std::vector<LayerResult> layers;

  std::int64_t total_cycles = 0;
  std::int64_t total_macs = 0;
  EnergyBreakdown energy;

  double runtime_s = 0.0;
  double energy_j = 0.0;
  /// Average power (W) over the run, including DRAM access energy.
  double average_power_w = 0.0;
  /// Throughput in multiply-add GOps/s (2 ops per MAC, paper convention).
  double gops_per_s = 0.0;
  /// GOps per watt — the Fig. 9 metric.
  double gops_per_w = 0.0;

  /// Sums of the per-layer measured fields (zero for modeled-only runs).
  double measured_wall_s = 0.0;
  std::int64_t measured_macs = 0;
};

/// Assembles per-layer results into a RunResult for a cycle-based cost
/// model: sums cycles/MACs/energy in layer order and derives the run
/// metrics (runtime from total cycles at `frequency_hz`, power,
/// GOps/s, GOps/W). Simulator::run and the cycle-based CostBackends
/// share this so a run reassembled from cached per-layer results is
/// bit-identical to a direct run.
RunResult assemble_run(std::string platform, std::string network,
                       std::string memory, std::string backend,
                       std::vector<LayerResult> layers, double frequency_hz);

/// Prices a pooling layer: it runs on the on-chip post-processing unit,
/// touching only scratchpad-resident activations — no PE-array compute,
/// no DRAM. Shared by Simulator and every cycle-based CostBackend that
/// swaps the compute model but keeps the platform's memory system.
LayerResult price_pool_layer(const AcceleratorConfig& config,
                             const EnergyModel& energy,
                             const dnn::Layer& layer, std::int64_t batch);

/// Folds one repeat's compute cycles and traffic into the layer totals:
/// double buffering overlaps each repeat's DRAM streaming with compute
/// (the slower side paces the repeat), DRAM startup is paid once, and
/// weight re-streaming across repeats follows gemm's residency flag.
/// Fills compute/memory/total cycles, dram/sram bytes, memory_bound,
/// and runtime_s; the caller supplies macs/utilization/energy.
void fold_repeat_overlap(LayerResult& r, const dnn::GemmShape& gemm,
                         std::int64_t compute_cycles_per_repeat,
                         const TrafficEstimate& traffic,
                         const AcceleratorConfig& config,
                         const arch::DramModel& dram);

class Simulator {
 public:
  Simulator(AcceleratorConfig config, arch::DramModel dram);

  const AcceleratorConfig& config() const { return config_; }
  const arch::DramModel& dram() const { return dram_; }

  RunResult run(const dnn::Network& network) const;

  /// Prices one layer in isolation. `run` is exactly run_layer over every layer followed by
  /// assemble_run.
  LayerResult run_layer(const dnn::Layer& layer) const;

 private:
  AcceleratorConfig config_;
  arch::DramModel dram_;
  arch::CvuCostModel cost_;
  EnergyModel energy_;
};

}  // namespace bpvec::sim
