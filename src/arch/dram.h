// Off-chip memory models (paper §IV-A):
//   DDR4 — 16 GB/s, 15 pJ/bit
//   HBM2 — 256 GB/s, 1.2 pJ/bit  (per O'Connor et al., MICRO'17)
#pragma once

#include <cstdint>
#include <string>

namespace bpvec::arch {

struct DramModel {
  std::string name;
  double bandwidth_gbps = 0.0;   // GB/s (sustained)
  double energy_pj_per_bit = 0.0;
  double startup_latency_ns = 0.0;  // per-burst/stream startup
  /// Device + PHY background power (W), charged over the whole run. DRAM
  /// devices burn roughly constant power while clocked regardless of
  /// traffic; this is what keeps system energy roughly proportional to
  /// runtime in the paper's Figs. 5–8.
  double background_power_w = 0.0;

  /// Positive bandwidth and non-negative energy, latency and background
  /// power — what pricing needs of a memory system.
  bool valid() const;

  /// Bytes transferable per accelerator cycle at `frequency_hz`.
  double bytes_per_cycle(double frequency_hz) const;

  /// Cycles to transfer `bytes` at `frequency_hz` (excluding startup).
  double transfer_cycles(std::int64_t bytes, double frequency_hz) const;

  /// Energy (pJ) to transfer `bytes`.
  double transfer_energy_pj(std::int64_t bytes) const;
};

/// The paper's moderate-bandwidth memory system.
DramModel ddr4();

/// The paper's high-bandwidth memory system.
DramModel hbm2();

}  // namespace bpvec::arch
