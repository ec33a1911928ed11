// DSE scaling: what a million-candidate search costs per candidate.
//
// Two measurements, emitted as BENCH_dse_scaling.json:
//
//   1. Search throughput — a grid search over an all-knob scenario space
//      (CVU geometry × batch size × bandwidth) on the heterogeneous
//      LSTM, run cold (fresh engine) and warm (same engine, repeated).
//      Reports candidates/sec for both, the dispatch-overhead fraction
//      (construct + hash + plan share of the engine's phase timers), and
//      warm_simulations — which must be 0: a repeated search is pure
//      cache service, no pricing at all (the CI gate asserts this).
//
//   2. Delta pricing — a single-axis net_bits sweep over a deep MLP
//      family (repeated width→width hidden layers, so every candidate
//      shares duplicate layers in-network), priced by the "functional"
//      backend, the one whose layers the engine memoizes. The search
//      runs on an engine (delta: each unique layer priced once), and
//      "full" is the backend contract's reference path, run() on every
//      candidate; delta_layers_priced must come out strictly below
//      full_layers_priced (the CI gate asserts this too).
#include <cstdio>

#include "bench/bench_common.h"
#include "src/backend/backend_registry.h"
#include "src/dse/search.h"
#include "src/workload/generators.h"
#include "src/workload/schema.h"

namespace {

using namespace bpvec;

const std::vector<dse::Objective> kObjectives{
    dse::objective(dse::Metric::kCycles),
    dse::objective(dse::Metric::kEnergy)};

/// Scenario-knob space for the throughput search: 3×3×2×3 = 54
/// candidates, every one a distinct platform/memory/batch pricing job.
dse::ParamSpace scaling_space() {
  dse::ParamSpace space;
  space.add_axis(dse::Knob::kCvuSliceBits, {1, 2, 4});
  space.add_axis(dse::Knob::kCvuLanes, {4, 8, 16});
  space.add_axis(dse::Knob::kBatchSize, {1, 4});
  space.add_axis(dse::Knob::kMemBandwidthGbps, {32, 64, 128});
  return space;
}

/// One grid pass of `space` against `base` on `engine`; returns wall
/// seconds (outcome discarded — the engine's stats are the measurement).
double run_grid(engine::SimEngine& engine, const dse::ParamSpace& space,
                const engine::Scenario& base,
                std::optional<workload::GeneratorSpec> generator = {}) {
  dse::GridStrategy strategy(space);
  dse::ScenarioEvaluator evaluator(engine, space, base, kObjectives, {}, {},
                                   std::move(generator));
  return bench::time_s([&] {
    (void)dse::run_search(strategy, evaluator, kObjectives);
  });
}

double dispatch_seconds(const engine::EngineStats& s) {
  return s.construct_s + s.hash_s + s.plan_s;
}

double total_phase_seconds(const engine::EngineStats& s) {
  return dispatch_seconds(s) + s.price_s + s.assemble_s;
}

}  // namespace

int main() {
  using namespace bpvec;
  using namespace bpvec::bench;

  BenchJson json("dse_scaling");
  bool ok = true;

  // ----- 1. search throughput, cold vs warm ---------------------------
  const dse::ParamSpace space = scaling_space();
  const engine::Scenario base = engine::make_scenario(
      engine::Platform::kBpvec, engine::Memory::kDdr4,
      dnn::make_lstm(dnn::BitwidthMode::kHeterogeneous));
  std::printf("DSE scaling: %zu-candidate grid over %zu axes\n",
              space.size(), space.num_axes());

  engine::SimEngine eng({/*num_threads=*/0});
  const double cold_s = run_grid(eng, space, base);
  const engine::EngineStats cold = eng.stats();
  const double warm_s = run_grid(eng, space, base);
  const engine::EngineStats warm = eng.stats();

  const double n = static_cast<double>(space.size());
  const double cold_cps = cold_s > 0 ? n / cold_s : 0.0;
  const double warm_cps = warm_s > 0 ? n / warm_s : 0.0;
  // Simulations the warm (repeated) search added on top of the cold one
  // — the whole point of the cache stack is that this is zero.
  const std::size_t warm_sims = warm.simulations_run - cold.simulations_run;
  ok = ok && warm_sims == 0;
  const double dispatch_fraction =
      total_phase_seconds(cold) > 0
          ? dispatch_seconds(cold) / total_phase_seconds(cold)
          : 0.0;

  json.add_metric("scaling_candidates", n);
  json.add_metric("cold_wall_s", cold_s);
  json.add_metric("warm_wall_s", warm_s);
  json.add_metric("cold_candidates_per_s", cold_cps);
  json.add_metric("warm_candidates_per_s", warm_cps);
  json.add_metric("warm_simulations", static_cast<double>(warm_sims));
  json.add_metric("dispatch_overhead_fraction", dispatch_fraction);
  json.add_metric("cold_simulations",
                  static_cast<double>(cold.simulations_run));
  json.add_metric("cold_layers_priced",
                  static_cast<double>(cold.layers_priced));
  json.set_engine_stats(cold);

  Table t1("grid search throughput (LSTM, 54-candidate scenario space)");
  t1.set_header({"Pass", "Wall s", "Cand/s", "Simulated"});
  t1.add_row({"cold", Table::num(cold_s, 3), Table::num(cold_cps, 0),
              std::to_string(cold.simulations_run)});
  t1.add_row({"warm", Table::num(warm_s, 3), Table::num(warm_cps, 0),
              std::to_string(warm_sims)});
  t1.print();

  // ----- 2. delta vs full pricing on a net_bits sweep -----------------
  workload::GeneratorSpec generator;
  generator.family = "mlp_family";
  generator.depth = 6;
  generator.width = 256;
  dse::ParamSpace bits_space;
  bits_space.add_axis(dse::Knob::kNetBits, {2, 4, 8});
  const engine::Scenario mlp_base = engine::make_scenario(
      "functional", engine::Platform::kBpvec, engine::Memory::kDdr4,
      workload::generate(generator));

  // Full: FunctionalBackend::run per candidate, every layer priced. An
  // untimed first pass fills the process-wide weight-plane cache, so
  // neither timed side pays the one-time weight packing.
  std::size_t full_layers_priced = 0;
  const auto price_full = [&] {
    full_layers_priced = 0;
    for (std::size_t c = 0; c < bits_space.size(); ++c) {
      const engine::Scenario s =
          bits_space.materialize(bits_space.at(c), mlp_base, &generator);
      (void)backend::BackendRegistry::instance()
          .create(s.backend, s.platform, s.memory)
          ->run(s.network);
      full_layers_priced += s.network.layers().size();
    }
  };
  price_full();

  engine::SimEngine delta_eng({/*num_threads=*/0});
  const double delta_s = run_grid(delta_eng, bits_space, mlp_base, generator);
  const engine::EngineStats delta = delta_eng.stats();
  const double full_s = time_s(price_full);
  // The deep MLP repeats its width→width hidden layer, so the delta
  // engine prices each unique layer once while the full loop prices
  // every layer of every candidate.
  const bool delta_fewer = delta.layers_priced < full_layers_priced;
  ok = ok && delta_fewer;

  json.add_metric("delta_layers_priced",
                  static_cast<double>(delta.layers_priced));
  json.add_metric("full_layers_priced",
                  static_cast<double>(full_layers_priced));
  json.add_metric("delta_wall_s", delta_s);
  json.add_metric("full_wall_s", full_s);
  json.add_metric("delta_strictly_fewer", delta_fewer ? 1.0 : 0.0);

  Table t2(
      "delta vs full pricing (functional, mlp_family d6 w256, net_bits "
      "sweep)");
  t2.set_header({"Path", "Wall s", "Layers priced", "Layer$ hits"});
  t2.add_row({"delta (engine layer memo)", Table::num(delta_s, 3),
              std::to_string(delta.layers_priced),
              std::to_string(delta.layer_cache_hits)});
  t2.add_row({"full (run per candidate)", Table::num(full_s, 3),
              std::to_string(full_layers_priced), "0"});
  t2.print();

  json.add_metric("ok", ok ? 1.0 : 0.0);
  json.write();

  if (warm_sims != 0) {
    std::printf("ERROR: warm repeated search priced %zu simulations "
                "(expected 0)\n",
                warm_sims);
  }
  if (!delta_fewer) {
    std::printf("ERROR: delta pricing (%zu layers) not below full (%zu)\n",
                delta.layers_priced, full_layers_priced);
  }
  if (ok) {
    std::printf(
        "cold %.0f cand/s, warm %.0f cand/s, dispatch overhead %.1f%%, "
        "delta %zu vs full %zu layers priced\n",
        cold_cps, warm_cps, 100.0 * dispatch_fraction, delta.layers_priced,
        full_layers_priced);
  }
  return ok ? 0 : 1;
}
