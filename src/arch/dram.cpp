#include "src/arch/dram.h"

#include "src/common/error.h"

namespace bpvec::arch {

bool DramModel::valid() const {
  return bandwidth_gbps > 0 && energy_pj_per_bit >= 0 &&
         startup_latency_ns >= 0 && background_power_w >= 0;
}

double DramModel::bytes_per_cycle(double frequency_hz) const {
  BPVEC_CHECK(frequency_hz > 0);
  return bandwidth_gbps * 1e9 / frequency_hz;
}

double DramModel::transfer_cycles(std::int64_t bytes,
                                  double frequency_hz) const {
  BPVEC_CHECK(bytes >= 0);
  return static_cast<double>(bytes) / bytes_per_cycle(frequency_hz);
}

double DramModel::transfer_energy_pj(std::int64_t bytes) const {
  BPVEC_CHECK(bytes >= 0);
  return static_cast<double>(bytes) * 8.0 * energy_pj_per_bit;
}

DramModel ddr4() {
  return DramModel{"DDR4", 16.0, 15.0, 100.0, 0.75};
}

DramModel hbm2() {
  return DramModel{"HBM2", 256.0, 1.2, 100.0, 1.40};
}

}  // namespace bpvec::arch
