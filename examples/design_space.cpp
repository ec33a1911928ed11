// Architect's view of the DSE subsystem: search CVU geometry and
// platform knobs together, on the real end-to-end cost of *your*
// workload, and read the answer off a Pareto frontier instead of a
// single scalar score.
//
// Three passes, cheapest to richest:
//   1. the classic Fig. 4 geometry sweep (cost model only, parallel,
//      bit-identical to core::explore_design_space) + best_design;
//   2. a full-pipeline grid search over geometry × batch size, priced by
//      SimEngine::run_batch (so the scenario/layer caches apply), with a
//      cycles/energy/area frontier;
//   3. the same space under a seeded hill-climb — far fewer evaluations,
//      same winner, deterministic via Rng::fork.
#include <cstdio>

#include "src/arch/cvu_cost.h"
#include "src/common/table.h"
#include "src/core/design_space.h"
#include "src/dnn/model_zoo.h"
#include "src/dse/search.h"
#include "src/engine/sim_engine.h"
#include "src/sim/config.h"

int main() {
  using namespace bpvec;

  // Your workload's bitwidth mix: mostly 4-bit with 8-bit edges and some
  // aggressive 2-bit weight layers (PACT/WRPN-style quantization).
  const std::vector<core::BitwidthMixEntry> mix{
      {8, 8, 0.10}, {4, 4, 0.65}, {8, 2, 0.15}, {2, 2, 0.10}};

  // ---- pass 1: geometry-only sweep (the Fig. 4 cost model) ----------
  // A grid over the geometry axes, priced on the engine's pool.
  engine::SimEngine eng;
  const dse::ParamSpace geometry =
      dse::geometry_space({1, 2, 4}, {1, 2, 4, 8, 16, 32});
  const std::vector<dse::Objective> per_mac{
      dse::objective(dse::Metric::kMacPower),
      dse::objective(dse::Metric::kMacArea)};
  dse::GridStrategy sweep(geometry);
  dse::GeometryEvaluator priced(eng, geometry, per_mac, mix);
  const auto points =
      dse::design_points(dse::run_search(sweep, priced, per_mac));

  Table t("CVU design space (per 8bx8b MAC, normalized to conventional)");
  t.set_header({"Geometry", "Power/op", "Area/op"});
  for (const auto& p : points) {
    t.add_row({p.geometry.to_string(), Table::ratio(p.cost.power_total()),
               Table::ratio(p.cost.area_total())});
  }
  t.print();

  const auto best = core::best_design(points, mix, /*min_utilization=*/0.9);
  std::printf("\nBest geometry for the mix: %s (bit-efficiency %.2f)\n",
              best.geometry.to_string().c_str(), best.mix_utilization);

  // Size an accelerator from it under the paper's 250 mW core budget.
  const arch::CvuCostModel cost;
  const double cvu_mw = cost.cvu_power_mw(best.geometry);
  const int cvus = static_cast<int>(250.0 / cvu_mw);
  std::printf("One CVU: %.2f mW, %.0f um^2  ->  %d CVUs fit a 250 mW core"
              " = %d MAC-equivalents\n",
              cvu_mw, cost.cvu_area_um2(best.geometry), cvus,
              cvus * best.geometry.lanes);

  // Compare against the paper's shipped configuration.
  const auto paper = sim::bpvec_accelerator();
  std::printf("Paper configuration: %d CVUs of %s = %lld MAC-equivalents\n",
              paper.num_pes(), paper.cvu.to_string().c_str(),
              static_cast<long long>(paper.equivalent_macs()));

  // ---- pass 2: full-pipeline search over geometry × batch size ------
  // Candidates materialize into Scenarios and ride run_batch, so the
  // objectives are real end-to-end numbers (cycles include the memory
  // system), not per-MAC proxies.
  dse::ParamSpace space;
  space.add_axis(dse::Knob::kCvuSliceBits, {1, 2, 4});
  space.add_axis(dse::Knob::kCvuLanes, {4, 8, 16});
  space.add_axis(dse::Knob::kBatchSize, {1, 4});

  const std::vector<dse::Objective> objectives{
      dse::objective(dse::Metric::kCycles),
      dse::objective(dse::Metric::kEnergy),
      dse::objective(dse::Metric::kCoreArea)};
  const engine::Scenario base = engine::make_scenario(
      engine::Platform::kBpvec, core::Memory::kDdr4,
      dnn::make_resnet18(dnn::BitwidthMode::kHeterogeneous));

  dse::GridStrategy grid(space);
  dse::ScenarioEvaluator evaluator(eng, space, base, objectives, mix);
  const auto outcome = dse::run_search(grid, evaluator, objectives);

  Table f("Pareto frontier: cycles / energy / core area (grid search)");
  f.set_header({"Candidate", "Mcycles", "Energy (mJ)", "Core area (mm^2)"});
  for (const auto& e : outcome.frontier.sorted()) {
    f.add_row({space.label(e.candidate),
               Table::num(static_cast<double>(e.result->total_cycles) / 1e6, 2),
               Table::num(e.result->energy_j * 1e3, 2),
               Table::num(e.core_area_um2 / 1e6, 3)});
  }
  std::printf("\nGrid search: %zu candidates, frontier %zu\n",
              outcome.candidates, outcome.frontier.size());
  f.print();

  // ---- pass 3: hill-climb reaches the same region much cheaper ------
  dse::HillClimbStrategy climb(space, /*restarts=*/2, /*seed=*/7, objectives);
  dse::ScenarioEvaluator evaluator2(eng, space, base, objectives, mix);
  const auto climbed = dse::run_search(climb, evaluator2, objectives);
  const auto stats = eng.stats();
  std::printf("\nHill-climb: %zu evaluations (%zu unique) vs %zu for the "
              "grid; engine simulated %zu scenarios total (%zu memo hits "
              "— repeats are cache-served).\n",
              climbed.candidates, climbed.unique_candidates,
              outcome.candidates, stats.simulations_run, stats.cache_hits);
  return 0;
}
