// WeightPlaneCache — process-wide memo of packed probe weights.
//
// Every functional probe of a given layer draws the SAME deterministic
// weights (Rng seeded from the layer fingerprint) and packs them into
// the same bit-planes. Zoo sweeps, DSE candidate storms, and warm serve
// requests therefore re-pack identical planes thousands of times; this
// cache pays the draw + pack once per (probe config, layer) key and
// hands every later probe a shared immutable entry.
//
// The cache is process-wide (like the Network/Backend registries)
// because probe weights are a pure function of the key: the key folds
// the functional seed, the probe bounds, and the layer fingerprint —
// everything the draw depends on — so two backends that agree on the key
// want byte-identical entries by construction. Packing is
// variant-independent (bit layout only), so the SIMD dispatch variant is
// deliberately NOT in the key: switching variants mid-process keeps the
// planes valid.
//
// Concurrency and counters: a common::Memo (see src/common/memo.h).
// Concurrent misses on one key may both build; the first insert wins and
// the duplicate (bit-identical by determinism) is dropped, so results
// never depend on the race. Hit/miss counters surface through EngineStats
// (engine::SimEngine::stats reads them) and are monotone, which keeps the
// serve layer's before/after delta semantics valid.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/memo.h"
#include "src/kernels/bitplane.h"

namespace bpvec::kernels {

/// One cached probe weight draw: the raw values (the reference operators
/// verify against them) plus their packed planes — one BitPlanes per
/// recurrent gate; conv/fc entries use planes[0].
struct PackedWeights {
  std::vector<std::int32_t> values;
  std::vector<BitPlanes> planes;
};

/// The process-wide memo of probe weights, keyed by
/// FunctionalBackend::weight_key. Entries are immutable and stay valid
/// across clear().
class WeightPlaneCache
    : public common::Memo<std::shared_ptr<const PackedWeights>> {
 public:
  /// Entry-count cap. Far above any real probe working set (the zoo has
  /// ~10² unique layers).
  static constexpr std::size_t kMaxEntries = 4096;

  static WeightPlaneCache& instance() {
    static WeightPlaneCache cache;
    return cache;
  }

 private:
  WeightPlaneCache() : Memo(kMaxEntries) {}
};

}  // namespace bpvec::kernels
