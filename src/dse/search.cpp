#include "src/dse/search.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "src/arch/cvu_cost.h"
#include "src/common/clock.h"
#include "src/common/error.h"

namespace bpvec::dse {

namespace {

/// Candidates per propose/evaluate round: one big parallel batch for
/// grid/random (hill_climb rounds are naturally smaller). Strategies
/// propose the same candidates at any batch size.
constexpr std::size_t kBatch = 256;

}  // namespace

bool Constraints::any() const {
  return min_utilization || max_power_w || max_energy_j || max_runtime_s ||
         max_cycles;
}

// ----- ScenarioEvaluator ---------------------------------------------

ScenarioEvaluator::ScenarioEvaluator(
    engine::SimEngine& engine, const ParamSpace& space,
    engine::Scenario base, std::vector<Objective> objectives,
    std::vector<core::BitwidthMixEntry> mix, Constraints constraints,
    std::optional<workload::GeneratorSpec> generator)
    : engine_(engine),
      space_(space),
      base_(std::move(base)),
      objectives_(std::move(objectives)),
      mix_(std::move(mix)),
      mix_from_network_(mix_.empty()),
      constraints_(constraints),
      generator_(std::move(generator)) {
  if (mix_from_network_) {
    mix_ = derive_mix(base_.network);
  }
}

std::vector<core::BitwidthMixEntry> ScenarioEvaluator::derive_mix(
    const dnn::Network& network) {
  // MAC-weighted bitwidth mix of the workload itself.
  std::vector<core::BitwidthMixEntry> mix;
  for (const dnn::Layer& layer : network.layers()) {
    if (!layer.is_compute()) continue;
    mix.push_back({layer.x_bits, layer.w_bits,
                   static_cast<double>(layer.macs())});
  }
  if (mix.empty()) mix.push_back({8, 8, 1.0});
  return mix;
}

std::vector<Evaluation> ScenarioEvaluator::evaluate(
    const std::vector<Candidate>& batch) {
  // Materialize into reused buffers (capacities survive across batches)
  // and report the construction wall time to the engine's phase timers
  // — the "construct" share of the dispatch-cost split.
  const auto t0 = common::SteadyClock::now();
  scratch_.resize(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    space_.materialize_into(batch[i], base_,
                            generator_ ? &*generator_ : nullptr,
                            scratch_[i]);
  }
  engine_.record_construct_seconds(common::seconds_since(t0));
  const std::vector<engine::Scenario>& scenarios = scratch_;
  std::vector<sim::RunResult> results = engine_.run_batch(scenarios);

  const arch::CvuCostModel cost;
  std::vector<Evaluation> out(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Evaluation& e = out[i];
    e.candidate = batch[i];
    e.key = space_.candidate_key(batch[i]);
    e.id = scenarios[i].id;
    // Workload axes regenerate the network per candidate, so a derived
    // mix must follow the candidate's actual layers (a frozen base mix
    // would score utilization/mac_power/mac_area — and the
    // min_utilization constraint — against the wrong bitwidths).
    const bool per_candidate = mix_from_network_ && generator_.has_value();
    std::vector<core::BitwidthMixEntry> regenerated;
    if (per_candidate) regenerated = derive_mix(scenarios[i].network);
    const std::vector<core::BitwidthMixEntry>& mix =
        per_candidate ? regenerated : mix_;
    e.design = core::price_design_point(scenarios[i].platform.cvu, mix);
    e.core_area_um2 = scenarios[i].platform.core_area_um2(cost);
    e.result = std::make_shared<const sim::RunResult>(std::move(results[i]));
    const sim::RunResult& r = *e.result;
    e.objectives.reserve(objectives_.size());
    for (const Objective& o : objectives_) {
      double v = 0;
      switch (o.metric) {
        case Metric::kCycles: v = static_cast<double>(r.total_cycles); break;
        case Metric::kEnergy: v = r.energy_j; break;
        case Metric::kRuntime: v = r.runtime_s; break;
        case Metric::kPower: v = r.average_power_w; break;
        case Metric::kCoreArea: v = e.core_area_um2; break;
        case Metric::kGopsPerW: v = r.gops_per_w; break;
        case Metric::kGopsPerS: v = r.gops_per_s; break;
        case Metric::kMacPower: v = e.design.cost.power_total(); break;
        case Metric::kMacArea: v = e.design.cost.area_total(); break;
        case Metric::kUtilization: v = e.design.mix_utilization; break;
      }
      e.objectives.push_back(v);
    }
    e.feasible =
        (!constraints_.min_utilization ||
         e.design.mix_utilization + 1e-12 >= *constraints_.min_utilization) &&
        (!constraints_.max_power_w ||
         r.average_power_w <= *constraints_.max_power_w) &&
        (!constraints_.max_energy_j ||
         r.energy_j <= *constraints_.max_energy_j) &&
        (!constraints_.max_runtime_s ||
         r.runtime_s <= *constraints_.max_runtime_s) &&
        (!constraints_.max_cycles || r.total_cycles <= *constraints_.max_cycles);
  }
  return out;
}

// ----- driver --------------------------------------------------------

SearchOutcome run_search(SearchStrategy& strategy,
                         ScenarioEvaluator& evaluator,
                         std::vector<Objective> objectives,
                         const SearchOptions& options) {
  ParetoFrontier frontier(objectives);
  SearchOutcome outcome{std::move(objectives), {}, std::move(frontier),
                        0,                    0,  0};

  std::unordered_set<std::uint64_t> unique_keys;
  while (options.budget == 0 || outcome.candidates < options.budget) {
    if (options.should_stop && options.should_stop()) break;
    std::size_t max_batch = kBatch;
    if (options.budget > 0) {
      max_batch = std::min(kBatch, options.budget - outcome.candidates);
    }
    const std::vector<Candidate> batch = strategy.propose(max_batch);
    if (batch.empty()) break;
    BPVEC_CHECK_MSG(batch.size() <= max_batch,
                    "strategy proposed more candidates than asked");

    std::vector<Evaluation> evals = evaluator.evaluate(batch);
    BPVEC_CHECK(evals.size() == batch.size());
    for (const Evaluation& e : evals) {
      unique_keys.insert(e.key);
      if (!e.feasible) ++outcome.infeasible;
      (void)outcome.frontier.insert(e);
    }
    strategy.observe(evals);
    outcome.candidates += evals.size();
    for (Evaluation& e : evals) {
      outcome.evaluations.push_back(std::move(e));
    }
  }
  outcome.unique_candidates = unique_keys.size();
  return outcome;
}

}  // namespace bpvec::dse
