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

const std::vector<std::string>& bitwidth_mode_tokens() {
  static const std::vector<std::string> tokens{"homogeneous8b",
                                               "heterogeneous"};
  return tokens;
}

const char* to_string(BitwidthMode mode) {
  return bitwidth_mode_tokens()[static_cast<std::size_t>(mode)].c_str();
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
