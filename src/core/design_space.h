// Design-space exploration over CVU geometries (slice width α, vector
// length L) — the machinery behind the paper's Fig. 4 and §III-B analysis.
#pragma once

#include <vector>

#include "src/arch/cvu_cost.h"
#include "src/bitslice/composition.h"

namespace bpvec::core {

struct DesignPoint {
  bitslice::CvuGeometry geometry;
  arch::Fig4Point cost;  // per-MAC, normalized to conventional 8-bit MAC

  /// Average NBVE utilization over a bitwidth mix (pairs of x/w bits with
  /// weights); 1.0 when every mode keeps all NBVEs busy.
  double mix_utilization = 1.0;
};

struct BitwidthMixEntry {
  int x_bits = 8;
  int w_bits = 8;
  double weight = 1.0;  // fraction of MACs at this mode
};

/// The α×L grid of candidate geometries (row-major: slice widths outer,
/// lanes inner — the iteration order of Fig. 4). Empty axes give an empty
/// grid. Every geometry is validated.
std::vector<bitslice::CvuGeometry> design_grid(
    const std::vector<int>& slice_widths, const std::vector<int>& lanes,
    int max_bits = 8);

/// Prices one geometry. Pure and re-entrant: builds its own cost model,
/// touches no shared mutable state — safe to call from many threads at
/// once (dse::GeometryEvaluator fans the grid out this way).
DesignPoint price_design_point(const bitslice::CvuGeometry& geometry);

/// Variant that also fills `mix_utilization` over a bitwidth mix.
DesignPoint price_design_point(const bitslice::CvuGeometry& geometry,
                               const std::vector<BitwidthMixEntry>& mix);

/// Sweeps slice widths × lanes and prices every point (sequentially; a
/// dse::GridStrategy over dse::geometry_space priced by
/// dse::GeometryEvaluator is the parallel equivalent and produces
/// bit-identical points).
std::vector<DesignPoint> explore_design_space(
    const std::vector<int>& slice_widths, const std::vector<int>& lanes,
    int max_bits = 8);

/// Utilization of a geometry averaged over a bitwidth mix.
double mix_utilization(const bitslice::CvuGeometry& geometry,
                       const std::vector<BitwidthMixEntry>& mix);

/// Picks the point minimizing power·area among points whose utilization
/// over `mix` stays ≥ `min_utilization` — formalizing the paper's
/// conclusion that 2-bit slicing with L = 16 is the sweet spot (4-bit
/// slicing is cheaper per CVU but under-utilized below 4-bit operands).
///
/// Edge cases (both throw bpvec::Error, never return a garbage point):
///   * empty `points` — "best_design: empty point set";
///   * every point below the bar — "best_design: no design point meets
///     min_utilization=<floor>", including the best utilization seen so
///     the caller can tell how far the bar missed. Catch the error (or
///     pre-filter) to treat "no admissible design" as a search outcome
///     rather than a failure.
DesignPoint best_design(const std::vector<DesignPoint>& points,
                        const std::vector<BitwidthMixEntry>& mix,
                        double min_utilization = 0.99);

}  // namespace bpvec::core
