#include "src/dnn/network.h"

#include <utility>

namespace bpvec::dnn {

const char* to_string(NetworkType type) {
  switch (type) {
    case NetworkType::kCnn: return "CNN";
    case NetworkType::kRnn: return "RNN";
  }
  return "?";
}

const char* to_string(BitwidthMode mode) {
  switch (mode) {
    case BitwidthMode::kHomogeneous8b: return "homogeneous-8b";
    case BitwidthMode::kHeterogeneous: return "heterogeneous";
  }
  return "?";
}

Network::Network(std::string name, NetworkType type)
    : name_(std::move(name)), type_(type) {}

void Network::add(Layer layer) { layers_.push_back(std::move(layer)); }

NetworkStats Network::stats() const {
  NetworkStats s;
  for (const Layer& l : layers_) {
    s.total_macs += l.macs();
    s.total_weights += l.weights();
    if (l.is_compute()) ++s.compute_layers;
  }
  s.model_size_mb_int8 =
      static_cast<double>(s.total_weights) / (1024.0 * 1024.0);
  s.multiply_add_gops = 2.0 * static_cast<double>(s.total_macs) / 1e9;
  return s;
}

}  // namespace bpvec::dnn
