// FunctionalBackend — the cost backend that *executes* what the others
// model.
//
// price_layer prices the layer through the cycle-level Simulator exactly
// like "bpvec", then actually runs a deterministic bounded probe of the
// layer through the bit-packed SIMD kernels (src/kernels) and
// cross-checks the results bit-for-bit, three ways:
//
//   packed kernels  ==  dnn reference operators  ==  scalar CVU datapath
//
// Agreement is the paper's Eq. 1–4 exactness property, enforced on every
// priced layer (a mismatch throws — pricing fails loudly rather than
// emit unverified numbers). Every MAC probe (conv, fc, recurrent) takes
// the same four steps through two shared helpers: draw and pack its
// weights through the cache, time the packed kernel, compare with the
// reference op, and run a check_rows × check_cols sub-block on the CVU,
// built straight from the cached values. On top of the modeled cycles
// the result carries measured_wall_s / measured_macs from the packed
// probe, giving reports a measured-vs-modeled column.
//
// Determinism contract: probe operands come from
// Rng(seed).fork(layer_fingerprint(layer)), split into two independent
// child streams — fork(0) for activations, fork(1) for weights — so the
// data, and every output except wall-clock, depends only on the layer's
// shape and bitwidths, never on its name, thread count, or invocation
// order. The weight stream feeds the process-wide WeightPlaneCache
// (kernels/weight_cache.h): the first probe of a layer draws and packs
// its weight planes, every later probe of the same (probe config, layer)
// key — zoo sweeps, DSE candidates, warm serve requests — reuses them
// without re-drawing or re-packing; the separate input stream is what
// makes skipping the draw safe. A probe costs milliseconds, so functional
// opts into the engine's layer memo; with assemble the same pure fold,
// it rides the scenario/layer memos and the disk cache unchanged: a warm
// run replays the measured numbers verbatim and executes zero layers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/backend/cost_backend.h"
#include "src/sim/simulator.h"

namespace bpvec::backend {

/// Probe bounds. Full-size zoo layers are too slow to execute end to end
/// (the scalar CVU cross-check especially), so each layer is downscaled
/// deterministically: output pixels / channels / features / time steps
/// are capped, but the accumulation depth K (in_c·kh·kw, in_features,
/// input+hidden) is always kept FULL — the dimension where packing,
/// sign-plane weighting, and carry behaviour can actually go wrong.
struct FunctionalConfig {
  std::uint64_t seed = 0x5EEDF00Dull;
  int max_side = 4;        // conv/pool probe output side (≤ 16 pixels)
  int max_channels = 64;   // output channels / features / hidden units
  int max_time_steps = 4;  // recurrent probe steps
  int check_rows = 2;      // CVU cross-check sub-block: GEMM rows (M)
  int check_cols = 8;      // CVU cross-check sub-block: GEMM cols (N)
};

class FunctionalBackend : public CostBackend {
 public:
  FunctionalBackend(FunctionalConfig functional, sim::AcceleratorConfig config,
                    arch::DramModel memory);

  const std::string& name() const override;
  std::uint64_t fingerprint() const override;
  sim::LayerResult price_layer(const dnn::Layer& layer) const override;
  sim::RunResult assemble(const dnn::Network& network,
                          std::vector<sim::LayerResult> layers) const override;
  /// A verified probe costs far more than a memo lookup.
  bool memoize_layers() const override { return true; }

  const FunctionalConfig& functional_config() const { return functional_; }

  /// The deterministically downscaled layer price_layer actually
  /// executes (exposed so tests can pin the probe shapes).
  dnn::Layer probe_layer(const dnn::Layer& layer) const;

  /// WeightPlaneCache key for `layer`'s probe weights: folds the
  /// functional seed, the probe bounds, and the layer fingerprint —
  /// everything the deterministic weight draw depends on. The SIMD
  /// variant is deliberately absent (packing is variant-independent).
  /// Exposed so tests can assert cache keying directly.
  std::uint64_t weight_key(const dnn::Layer& layer) const;

 protected:
  int hash_time_chunk() const override { return sim_.config().time_chunk; }

 private:
  FunctionalConfig functional_;
  sim::Simulator sim_;
};

}  // namespace bpvec::backend
