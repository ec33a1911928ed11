// BpvecBackend — the cycle-level Simulator behind the CostBackend
// interface, bit-identical to sim::Simulator::run. "bpvec" here names
// the cost model (the paper's cycle simulator), not the platform: the
// same backend prices the TPU-like, BitFusion, and BPVeC platforms of
// Table II — the platform config decides which.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/backend/cost_backend.h"
#include "src/sim/simulator.h"

namespace bpvec::backend {

class BpvecBackend : public CostBackend {
 public:
  BpvecBackend(sim::AcceleratorConfig config, arch::DramModel memory);

  const std::string& name() const override;
  std::uint64_t fingerprint() const override;
  sim::LayerResult price_layer(const dnn::Layer& layer) const override;
  sim::RunResult assemble(const dnn::Network& network,
                          std::vector<sim::LayerResult> layers) const override;

  const sim::Simulator& simulator() const { return sim_; }

 private:
  sim::Simulator sim_;
};

}  // namespace bpvec::backend
