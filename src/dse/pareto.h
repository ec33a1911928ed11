// Multi-objective metrics and the streaming Pareto frontier.
//
// A search ranks candidates on several objectives at once (the paper's
// own conclusion is a two-objective trade: power·area vs utilization —
// §III-B). The frontier keeps every candidate not dominated by another:
// `a` dominates `b` when `a` is at least as good on every objective and
// strictly better on at least one (direction-aware; kUtilization and
// the GOps metrics default to maximize, everything else to minimize).
//
// Semantics, exactly:
//   * dominated-point eviction — inserting a point that dominates
//     existing entries removes them; inserting a dominated point is a
//     no-op (kDominated).
//   * ties — candidates with identical objective vectors are mutually
//     non-dominating and are all kept (kJoined).
//   * duplicates — a candidate whose 64-bit key was already inserted is
//     dropped (kDuplicate) whatever its values; re-proposing a point
//     must not grow the frontier.
//   * infeasible — constraint-violating evaluations never enter
//     (kInfeasible).
//   * entries() is insertion order of the survivors; sorted() is the
//     canonical report order — lexicographic by direction-normalized
//     objective vector, ties broken by candidate key — a pure function
//     of the surviving set, independent of insertion order.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/core/design_space.h"
#include "src/dse/param_space.h"
#include "src/sim/simulator.h"

namespace bpvec::dse {

/// Everything a search can rank on. The per-MAC and utilization metrics
/// come from core::price_design_point over the candidate's CVU geometry;
/// the rest from its run_batch RunResult.
enum class Metric {
  kCycles,       // RunResult::total_cycles          (minimize)
  kEnergy,       // RunResult::energy_j              (minimize)
  kRuntime,      // RunResult::runtime_s             (minimize)
  kPower,        // RunResult::average_power_w       (minimize)
  kCoreArea,     // platform core area, µm²          (minimize)
  kMacPower,     // Fig. 4 normalized per-MAC power  (minimize)
  kMacArea,      // Fig. 4 normalized per-MAC area   (minimize)
  kUtilization,  // mix utilization over the search's bitwidth mix (maximize)
  kGopsPerW,     // RunResult::gops_per_w            (maximize)
  kGopsPerS,     // RunResult::gops_per_s            (maximize)
};

const char* to_string(Metric metric);
std::optional<Metric> metric_from_token(const std::string& token);
const std::vector<std::string>& metric_tokens();

/// The natural optimization direction (maximize for kUtilization and the
/// GOps metrics, minimize otherwise).
bool default_maximize(Metric metric);

struct Objective {
  Metric metric = Metric::kCycles;
  bool maximize = false;
};

/// Convenience: objective at the metric's natural direction.
Objective objective(Metric metric);

/// One evaluated candidate.
struct Evaluation {
  Candidate candidate;
  std::uint64_t key = 0;     // ParamSpace::candidate_key
  std::string id;            // scenario id, or the knob label
  core::DesignPoint design;  // Fig. 4 cost + mix utilization of the geometry
  double core_area_um2 = 0;  // platform core area
  /// Full run metrics; null for an evaluation built from a design point
  /// alone (fig4_design_space's cost-model frontier).
  std::shared_ptr<const sim::RunResult> result;
  /// Raw metric values in the search's objective order.
  std::vector<double> objectives;
  bool feasible = true;
};

/// True when `a` dominates `b` under `objectives` (sizes must match).
bool dominates(const std::vector<double>& a, const std::vector<double>& b,
               const std::vector<Objective>& objectives);

class ParetoFrontier {
 public:
  explicit ParetoFrontier(std::vector<Objective> objectives);

  enum class Insert { kJoined, kDominated, kDuplicate, kInfeasible };

  /// Streaming insert with the semantics documented above.
  Insert insert(const Evaluation& e);

  const std::vector<Objective>& objectives() const { return objectives_; }
  /// Surviving entries, insertion order.
  const std::vector<Evaluation>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }

  /// Canonical report order (see file comment).
  std::vector<Evaluation> sorted() const;

 private:
  std::vector<Objective> objectives_;
  std::vector<Evaluation> entries_;
  std::unordered_set<std::uint64_t> seen_keys_;  // every key ever inserted
};

}  // namespace bpvec::dse
