// The search driver: strategy → evaluator → Pareto frontier.
//
// run_search loops { propose → evaluate → frontier.insert → observe }
// until the strategy is exhausted or the evaluation budget is spent.
// ScenarioEvaluator prices every candidate on the full path: candidates
// materialize into engine::Scenarios and ride SimEngine::run_batch, so
// the scenario memo, the layer memo (for backends that opt in) and the
// persistent disk cache apply. Repeat-heavy strategies (random,
// hill_climb) re-propose candidates freely: the engine prices each
// unique scenario once (EngineStats::simulations_run stays below the
// candidate count) and warm disk-cached searches price nothing at all.
// The per-MAC metrics (mac_power, mac_area, utilization) come from
// core::price_design_point over each candidate's CVU geometry; the
// Fig. 4 sweep itself is a plain loop over that function
// (bench/fig4_design_space), not a search.
//
// Determinism: strategies are deterministic (see strategy.h), the
// evaluator is pure, and the frontier's canonical order is
// insertion-independent — a search outcome is a pure function of
// (space, strategy, seed, budget, objectives, constraints), at any
// thread count or cache state.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/dse/param_space.h"
#include "src/dse/pareto.h"
#include "src/dse/strategy.h"
#include "src/engine/sim_engine.h"

namespace bpvec::dse {

/// Feasibility constraints. Violating evaluations are still recorded in
/// the outcome (flagged infeasible) but never enter the frontier.
struct Constraints {
  std::optional<double> min_utilization;  // design.mix_utilization floor
  std::optional<double> max_power_w;      // RunResult::average_power_w cap
  std::optional<double> max_energy_j;
  std::optional<double> max_runtime_s;
  std::optional<std::int64_t> max_cycles;

  bool any() const;
};

/// Full-pipeline pricing through SimEngine::run_batch. Supports every
/// metric.
class ScenarioEvaluator {
 public:
  /// `mix` drives the kUtilization metric and the min_utilization
  /// constraint. Empty derives it from the base network: one entry per
  /// compute layer, weighted by the layer's MAC count (so utilization
  /// means "MAC-weighted average NBVE utilization over the workload").
  /// `generator` is the workload family the space's
  /// net_depth/net_width/net_bits axes vary (required iff the space has
  /// such an axis); candidates regenerate the network through it.
  ScenarioEvaluator(engine::SimEngine& engine, const ParamSpace& space,
                    engine::Scenario base, std::vector<Objective> objectives,
                    std::vector<core::BitwidthMixEntry> mix = {},
                    Constraints constraints = {},
                    std::optional<workload::GeneratorSpec> generator = {});

  /// Prices a batch: one Evaluation per candidate, same order.
  std::vector<Evaluation> evaluate(const std::vector<Candidate>& batch);

  /// The base mix (explicit, or derived from the base network). When a
  /// derived mix meets workload axes, evaluate() re-derives it per
  /// candidate from the regenerated network instead.
  const std::vector<core::BitwidthMixEntry>& mix() const { return mix_; }

 private:
  static std::vector<core::BitwidthMixEntry> derive_mix(
      const dnn::Network& network);

  engine::SimEngine& engine_;
  const ParamSpace& space_;
  engine::Scenario base_;
  std::vector<Objective> objectives_;
  std::vector<core::BitwidthMixEntry> mix_;
  bool mix_from_network_;
  Constraints constraints_;
  std::optional<workload::GeneratorSpec> generator_;
  /// Reused per-batch Scenario buffers (materialize_into keeps the
  /// previous candidate's heap capacities alive between batches).
  std::vector<engine::Scenario> scratch_;
};

struct SearchOptions {
  /// Max candidate evaluations; 0 = unlimited (the strategy decides).
  std::size_t budget = 0;
  /// Cooperative cancellation hook: checked before every
  /// propose/evaluate round. Returning true stops the search early; the
  /// outcome carries whatever was evaluated up to that point. Unset (the
  /// default) never stops, so existing searches are byte-identical. This
  /// is how a serving Session cancels an in-flight SearchRequest between
  /// engine batches without poisoning the shared engine's caches —
  /// everything already evaluated was priced normally and stays valid.
  std::function<bool()> should_stop;
};

struct SearchOutcome {
  std::vector<Objective> objectives;
  /// Every evaluation, in strategy proposal order.
  std::vector<Evaluation> evaluations;
  ParetoFrontier frontier;
  std::size_t candidates = 0;         // == evaluations.size()
  std::size_t unique_candidates = 0;  // distinct candidate keys
  std::size_t infeasible = 0;         // constraint-violating evaluations
};

SearchOutcome run_search(SearchStrategy& strategy,
                         ScenarioEvaluator& evaluator,
                         std::vector<Objective> objectives,
                         const SearchOptions& options = {});

}  // namespace bpvec::dse
