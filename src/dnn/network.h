// A network = an ordered list of layers plus bookkeeping for the paper's
// Table I statistics (model size at INT8, multiply-add GOps, bitwidth
// regime).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/dnn/layer.h"

namespace bpvec::dnn {

enum class NetworkType { kCnn, kRnn };

const char* to_string(NetworkType type);

/// Bitwidth regime of an experiment (paper §IV-B1 vs §IV-B2).
enum class BitwidthMode {
  kHomogeneous8b,   // all activations/weights 8-bit
  kHeterogeneous,   // Table I per-layer quantized bitwidths
};

/// The manifest token of each BitwidthMode, indexed by enumerator.
const std::vector<std::string>& bitwidth_mode_tokens();
const char* to_string(BitwidthMode mode);

struct NetworkStats {
  std::int64_t total_macs = 0;
  std::int64_t total_weights = 0;
  double model_size_mb_int8 = 0.0;  // weights at 1 byte each
  double multiply_add_gops = 0.0;   // 2·MACs / 1e9 (paper convention)
  int compute_layers = 0;
};

class Network {
 public:
  Network(std::string name, NetworkType type);

  const std::string& name() const { return name_; }
  NetworkType type() const { return type_; }

  void add(Layer layer);

  const std::vector<Layer>& layers() const { return layers_; }
  std::vector<Layer>& layers() { return layers_; }

  NetworkStats stats() const;

  /// Text description of the heterogeneous bitwidth assignment, matching
  /// the wording in Table I (set by the model zoo).
  const std::string& bitwidth_note() const { return bitwidth_note_; }
  void set_bitwidth_note(std::string note) {
    bitwidth_note_ = std::move(note);
  }

 private:
  std::string name_;
  NetworkType type_;
  std::vector<Layer> layers_;
  std::string bitwidth_note_;
};

}  // namespace bpvec::dnn
