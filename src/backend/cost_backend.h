// CostBackend — the unified cost-model interface.
//
// The paper's headline claims are comparative: spatial bit-parallel
// composability (the cycle-level Simulator) vs temporal bit-serial
// designs (Stripes/Loom, Fig. 1) vs a TensorRT-class GPU baseline
// (Fig. 9). A CostBackend prices a network into the common
// sim::RunResult shape so all comparators ride the same SimEngine batch
// path, the same result cache, and the same report tables.
//
// The interface is layer-granular on purpose: when memoize_layers() is
// true the engine memoizes price_layer results keyed by (backend
// fingerprint × layer fingerprint), so repeated blocks and shared
// networks price each unique layer once. The contract that makes the
// memo safe:
//
//   run(network)  ==  assemble(network, [price_layer(l) for l in layers])
//
// bit for bit — assemble must be a pure fold over the per-layer results
// (cached entries are exact copies, so reassembled runs are
// bit-identical to direct runs).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/arch/dram.h"
#include "src/common/hash.h"
#include "src/dnn/layer.h"
#include "src/dnn/network.h"
#include "src/sim/config.h"
#include "src/sim/simulator.h"

namespace bpvec::backend {

/// Folds every simulation-relevant platform knob into `f` (everything
/// sim::Simulator reads). Shared by Scenario::fingerprint and the
/// backend fingerprints.
void hash_platform(common::ConfigHash& f, const sim::AcceleratorConfig& c);

/// Folds every memory-system knob into `f`.
void hash_memory(common::ConfigHash& f, const arch::DramModel& m);

/// Shape/bits identity of one layer — the layer half of the engine's
/// layer-cache key. `time_chunk` is the recurrent time-batching bound of
/// the pricing platform (it shapes the GEMM view).
std::uint64_t layer_fingerprint(const dnn::Layer& layer, int time_chunk);

class CostBackend {
 public:
  virtual ~CostBackend() = default;

  /// Registry key and report/JSON label ("bpvec", "bit_serial", "gpu").
  virtual const std::string& name() const = 0;

  /// 64-bit hash over every knob that can change this backend's pricing
  /// (its own config plus whatever platform/memory state it uses). The
  /// engine folds it into disk-cache keys and layer-memo keys, so two
  /// different cost models of one scenario or layer never share an entry.
  /// (The scenario memo names a backend by its registry key instead.)
  virtual std::uint64_t fingerprint() const = 0;

  /// Prices one layer in isolation. Must be pure and re-entrant: the
  /// engine calls it from many threads and may memoize the result.
  virtual sim::LayerResult price_layer(const dnn::Layer& layer) const = 0;

  /// Folds per-layer results (in network layer order) into the common
  /// RunResult shape: totals plus the derived run metrics.
  virtual sim::RunResult assemble(const dnn::Network& network,
                                  std::vector<sim::LayerResult> layers)
      const = 0;

  /// Whether the engine memoizes price_layer. Worth it only when a layer
  /// costs more to price than to hash and look up; analytical models
  /// keep the default and are priced with run().
  virtual bool memoize_layers() const { return false; }

  /// Layer-memo key for one layer under this backend:
  /// backend_fingerprint × layer_fingerprint(layer, hash_time_chunk()).
  /// Callers hash many layers per scenario, so they compute fingerprint()
  /// once and pass it back in.
  std::uint64_t layer_key(std::uint64_t backend_fingerprint,
                          const dnn::Layer& layer) const {
    return common::hash_combine(backend_fingerprint,
                                layer_fingerprint(layer, hash_time_chunk()));
  }

  /// Prices the whole network: price_layer over every layer, then
  /// assemble. This is the reference ("direct") path the engine's
  /// layer-memo path must reproduce bit for bit.
  sim::RunResult run(const dnn::Network& network) const;

 protected:
  /// time_chunk used when hashing layers (only needs to be consistent
  /// per backend instance and covered by fingerprint()).
  virtual int hash_time_chunk() const { return 16; }
};

}  // namespace bpvec::backend
