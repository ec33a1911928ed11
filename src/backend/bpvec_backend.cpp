#include "src/backend/bpvec_backend.h"

#include <utility>

namespace bpvec::backend {

BpvecBackend::BpvecBackend(sim::AcceleratorConfig config,
                           arch::DramModel memory)
    : sim_(std::move(config), std::move(memory)) {}

const std::string& BpvecBackend::name() const {
  static const std::string kName = "bpvec";
  return kName;
}

std::uint64_t BpvecBackend::fingerprint() const {
  common::ConfigHash f;
  f.str(name());
  hash_platform(f, sim_.config());
  hash_memory(f, sim_.dram());
  return f.h;
}

sim::LayerResult BpvecBackend::price_layer(const dnn::Layer& layer) const {
  return sim_.run_layer(layer);
}

sim::RunResult BpvecBackend::assemble(
    const dnn::Network& network, std::vector<sim::LayerResult> layers) const {
  // The exact fold Simulator::run performs — the shared helper guarantees
  // reassembled runs are bit-identical to direct runs.
  return sim::assemble_run(sim_.config().name, network.name(),
                           sim_.dram().name, name(), std::move(layers),
                           sim_.config().frequency_hz);
}

}  // namespace bpvec::backend
