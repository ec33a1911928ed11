// DSE subsystem end to end: strategy determinism, grid-strategy
// bit-identity against the sequential core::explore_design_space path,
// engine-cache dedup of repeat-heavy searches, budgets, constraints, and
// the bpvec_run `search` subcommand (cold/warm byte-identity through the
// disk cache, --validate dry runs).
#include "src/dse/search.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "src/cli/driver.h"
#include "src/cli/manifest.h"
#include "src/common/error.h"
#include "src/core/design_space.h"
#include "src/dnn/model_zoo.h"
#include "src/engine/sim_engine.h"
#include "tests/run_result_identical.h"

namespace bpvec::dse {
namespace {

namespace fs = std::filesystem;

const std::vector<Objective> kGeomObjectives{
    objective(Metric::kMacPower), objective(Metric::kMacArea)};

std::vector<Objective> kScenObjectives() {
  return {objective(Metric::kCycles), objective(Metric::kEnergy)};
}

/// Small all-knob scenario space over the 1-layer LSTM (fast to price).
ParamSpace lstm_space() {
  ParamSpace space;
  space.add_axis(Knob::kCvuSliceBits, {2, 4});
  space.add_axis(Knob::kCvuLanes, {4, 16});
  return space;
}

engine::Scenario lstm_base() {
  return engine::make_scenario(engine::Platform::kBpvec, core::Memory::kDdr4,
                               dnn::make_lstm(dnn::BitwidthMode::kHeterogeneous));
}

// ----- grid bit-identity against the legacy path ---------------------

/// The parallel Fig. 4 sweep: a grid over geometry_space priced by
/// GeometryEvaluator on `eng`'s pool.
std::vector<core::DesignPoint> parallel_sweep(
    engine::SimEngine& eng, const std::vector<int>& alphas,
    const std::vector<int>& lanes,
    const std::vector<core::BitwidthMixEntry>& mix = {}) {
  const ParamSpace space = geometry_space(alphas, lanes);
  GridStrategy strategy(space);
  GeometryEvaluator evaluator(eng, space, kGeomObjectives, mix);
  return design_points(run_search(strategy, evaluator, kGeomObjectives));
}

TEST(GridSearch, BitIdenticalToLegacyExploreDesignSpace) {
  const std::vector<int> alphas{1, 2, 4};
  const std::vector<int> lanes{1, 2, 4, 8, 16};
  const std::vector<core::BitwidthMixEntry> mix{
      {8, 8, 0.2}, {4, 4, 0.6}, {2, 2, 0.2}};

  engine::SimEngine eng;
  const ParamSpace space = geometry_space(alphas, lanes);
  GridStrategy strategy(space);
  GeometryEvaluator evaluator(eng, space, kGeomObjectives, mix);
  const SearchOutcome outcome =
      run_search(strategy, evaluator, kGeomObjectives);
  const auto via_dse = design_points(outcome);

  // Legacy sequential pass: same grid, same pricing function.
  std::vector<core::DesignPoint> legacy;
  for (const auto& g : core::design_grid(alphas, lanes)) {
    legacy.push_back(core::price_design_point(g, mix));
  }
  ASSERT_EQ(via_dse.size(), legacy.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(via_dse[i].geometry.slice_bits, legacy[i].geometry.slice_bits);
    EXPECT_EQ(via_dse[i].geometry.lanes, legacy[i].geometry.lanes);
    // Exact double equality: identical arithmetic, not merely close.
    EXPECT_EQ(via_dse[i].cost.power_total(), legacy[i].cost.power_total());
    EXPECT_EQ(via_dse[i].cost.area_total(), legacy[i].cost.area_total());
    EXPECT_EQ(via_dse[i].mix_utilization, legacy[i].mix_utilization);
  }

  // Grid searches propose each point exactly once.
  EXPECT_EQ(outcome.candidates, space.size());
  EXPECT_EQ(outcome.unique_candidates, space.size());
}

TEST(GridSearch, ParallelSweepWithoutMixMatchesCoreSequential) {
  engine::SimEngine eng({4, true});
  const std::vector<int> alphas{1, 2, 4};
  const std::vector<int> lanes{1, 2, 4, 8, 16};
  const auto parallel = parallel_sweep(eng, alphas, lanes);
  const auto sequential = core::explore_design_space(alphas, lanes);
  ASSERT_EQ(parallel.size(), sequential.size());
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    EXPECT_EQ(parallel[i].geometry.slice_bits,
              sequential[i].geometry.slice_bits);
    EXPECT_EQ(parallel[i].geometry.lanes, sequential[i].geometry.lanes);
    EXPECT_EQ(parallel[i].cost.power_total(), sequential[i].cost.power_total());
    EXPECT_EQ(parallel[i].cost.area_total(), sequential[i].cost.area_total());
  }
}

TEST(GridSearch, ParallelSweepWithMixFindsThePaperOptimum) {
  engine::SimEngine eng({4, true});
  const std::vector<core::BitwidthMixEntry> mix{
      {8, 8, 0.2}, {4, 4, 0.6}, {8, 2, 0.1}, {2, 2, 0.1}};
  const auto points = parallel_sweep(eng, {1, 2, 4}, {1, 2, 4, 8, 16}, mix);
  for (const auto& p : points) {
    EXPECT_EQ(p.mix_utilization, core::mix_utilization(p.geometry, mix));
  }
  // best_design over the parallel points reproduces the paper's optimum.
  const auto best = core::best_design(points, mix, 0.99);
  EXPECT_EQ(best.geometry.slice_bits, 2);
  EXPECT_EQ(best.geometry.lanes, 16);
}

// ----- determinism ----------------------------------------------------

TEST(RandomSearch, DrawsAreIndependentOfBatchSize) {
  const ParamSpace space = lstm_space();
  auto keys_with_batch = [&](std::size_t batch) {
    engine::SimEngine eng;
    RandomStrategy strategy(space, /*samples=*/17, /*seed=*/99);
    GeometryEvaluator evaluator(eng, space, kGeomObjectives);
    SearchOptions options;
    options.batch_size = batch;
    const SearchOutcome outcome =
        run_search(strategy, evaluator, kGeomObjectives, options);
    std::vector<std::uint64_t> keys;
    for (const auto& e : outcome.evaluations) keys.push_back(e.key);
    return keys;
  };
  const auto one = keys_with_batch(1);
  const auto big = keys_with_batch(64);
  EXPECT_EQ(one, big);
  EXPECT_EQ(one.size(), 17u);
  // Different seed, different sequence.
  engine::SimEngine eng;
  RandomStrategy other(space, 17, /*seed=*/100);
  GeometryEvaluator evaluator(eng, space, kGeomObjectives);
  const auto outcome = run_search(other, evaluator, kGeomObjectives);
  std::vector<std::uint64_t> keys;
  for (const auto& e : outcome.evaluations) keys.push_back(e.key);
  EXPECT_NE(one, keys);
}

// ----- engine-cache dedup of repeat-heavy searches -------------------

TEST(ScenarioSearch, RepeatedCandidatesAreServedFromTheEngineCache) {
  const ParamSpace space = lstm_space();  // only 4 distinct candidates
  engine::SimEngine eng;
  RandomStrategy strategy(space, /*samples=*/20, /*seed=*/1);
  ScenarioEvaluator evaluator(eng, space, lstm_base(), kScenObjectives());
  const SearchOutcome outcome =
      run_search(strategy, evaluator, kScenObjectives());

  EXPECT_EQ(outcome.candidates, 20u);
  EXPECT_LE(outcome.unique_candidates, 4u);
  const auto stats = eng.stats();
  // The satellite guarantee: duplicates never re-simulate.
  EXPECT_EQ(stats.simulations_run, outcome.unique_candidates);
  EXPECT_LT(stats.simulations_run, outcome.candidates);
  EXPECT_EQ(stats.simulations_run + stats.cache_hits,
            stats.scenarios_submitted);
  // And the frontier deduped them: at most one entry per unique point.
  EXPECT_LE(outcome.frontier.size(), outcome.unique_candidates);
}

// ----- scenario search matches direct pricing ------------------------

TEST(ScenarioSearch, EvaluationsAreBitIdenticalToDirectRuns) {
  const ParamSpace space = lstm_space();
  engine::SimEngine eng;
  GridStrategy strategy(space);
  ScenarioEvaluator evaluator(eng, space, lstm_base(), kScenObjectives());
  const SearchOutcome outcome =
      run_search(strategy, evaluator, kScenObjectives());
  ASSERT_EQ(outcome.evaluations.size(), 4u);

  engine::SimEngine fresh;  // no shared cache with the search engine
  for (const auto& e : outcome.evaluations) {
    ASSERT_NE(e.result, nullptr);
    const engine::Scenario s = space.materialize(e.candidate, lstm_base());
    expect_bit_identical(*e.result, fresh.run(s));
  }
}

// ----- hill climb -----------------------------------------------------

TEST(HillClimb, FindsTheOptimumOfAMonotoneAxis) {
  // The 1-layer LSTM is memory-bound (cycles are flat across lanes), but
  // energy falls monotonically with lanes — so on this axis the local
  // optimum is global and a single climber must reach it.
  ParamSpace space;
  space.add_axis(Knob::kCvuLanes, {4, 8, 16});
  const std::vector<Objective> objectives{objective(Metric::kEnergy)};
  engine::SimEngine eng;
  HillClimbStrategy strategy(space, /*restarts=*/1, /*seed=*/5, objectives);
  ScenarioEvaluator evaluator(eng, space, lstm_base(), objectives);
  const SearchOutcome outcome = run_search(strategy, evaluator, objectives);

  ASSERT_EQ(outcome.frontier.size(), 1u);
  EXPECT_EQ(*space.value(outcome.frontier.entries()[0].candidate,
                         Knob::kCvuLanes),
            16.0);
  // It terminated on its own, without visiting... at most the whole axis.
  EXPECT_LE(outcome.unique_candidates, 3u);
}

TEST(HillClimb, DeterministicAcrossRuns) {
  const ParamSpace space = lstm_space();
  auto run_once = [&] {
    engine::SimEngine eng;
    HillClimbStrategy strategy(space, /*restarts=*/2, /*seed=*/11,
                               kScenObjectives());
    ScenarioEvaluator evaluator(eng, space, lstm_base(), kScenObjectives());
    const SearchOutcome outcome =
        run_search(strategy, evaluator, kScenObjectives());
    std::vector<std::uint64_t> keys;
    for (const auto& e : outcome.evaluations) keys.push_back(e.key);
    return keys;
  };
  EXPECT_EQ(run_once(), run_once());
}

// ----- population strategies (annealing / genetic) -------------------

/// The dse_smoke manifest's space: CVU geometry × memory bandwidth.
ParamSpace smoke_space() {
  ParamSpace space;
  space.add_axis(Knob::kCvuSliceBits, {1, 2, 4});
  space.add_axis(Knob::kCvuLanes, {4, 16});
  space.add_axis(Knob::kMemBandwidthGbps, {16, 64});
  return space;
}

/// The dse_smoke base: the 2-bit AlexNet on the BPVeC platform.
engine::Scenario smoke_base() {
  engine::Scenario s = engine::make_scenario(
      engine::Platform::kBpvec, core::Memory::kDdr4,
      dnn::make_alexnet(dnn::BitwidthMode::kHeterogeneous));
  for (dnn::Layer& layer : s.network.layers()) {
    layer.x_bits = 2;
    layer.w_bits = 2;
  }
  return s;
}

TEST(PopulationStrategies, ReachTheGridOptimumDeterministically) {
  // Ground truth: exhaustively score the 12-candidate dse_smoke space.
  const ParamSpace space = smoke_space();
  const std::vector<Objective> objectives = kScenObjectives();
  double best_score = std::numeric_limits<double>::infinity();
  std::uint64_t best_key = 0;
  {
    engine::SimEngine eng;
    GridStrategy grid(space);
    ScenarioEvaluator evaluator(eng, space, smoke_base(), objectives);
    const SearchOutcome outcome = run_search(grid, evaluator, objectives);
    EXPECT_EQ(outcome.candidates, space.size());
    for (const Evaluation& e : outcome.evaluations) {
      const double s = scalarize(objectives, e);
      if (s < best_score) {
        best_score = s;
        best_key = e.key;
      }
    }
  }

  // Both population strategies must visit that optimum within a modest
  // budget, and propose the exact same candidate sequence at any thread
  // count (determinism is a strategy property, not an engine accident).
  for (const char* token : {"annealing", "genetic"}) {
    std::vector<std::vector<std::uint64_t>> sequences;
    for (int threads : {1, 4}) {
      engine::EngineOptions engine_options;
      engine_options.num_threads = threads;
      engine::SimEngine eng(engine_options);
      StrategyOptions strategy_options;
      strategy_options.budget = 48;
      strategy_options.restarts = 4;
      strategy_options.population = 6;
      strategy_options.seed = 7;
      strategy_options.objectives = objectives;
      auto strategy = make_strategy(token, space, strategy_options);
      ScenarioEvaluator evaluator(eng, space, smoke_base(), objectives);
      const SearchOutcome outcome =
          run_search(*strategy, evaluator, objectives);

      double found = std::numeric_limits<double>::infinity();
      std::uint64_t found_key = 0;
      std::vector<std::uint64_t> keys;
      for (const Evaluation& e : outcome.evaluations) {
        keys.push_back(e.key);
        const double s = scalarize(objectives, e);
        if (s < found) {
          found = s;
          found_key = e.key;
        }
      }
      EXPECT_EQ(found, best_score)
          << token << " missed the grid optimum at " << threads
          << " threads";
      EXPECT_EQ(found_key, best_key) << token;
      // Repeat-heavy sampling rides the engine cache: every unique
      // candidate simulates exactly once.
      EXPECT_EQ(eng.stats().simulations_run, outcome.unique_candidates);
      sequences.push_back(std::move(keys));
    }
    EXPECT_EQ(sequences[0], sequences[1])
        << token << " proposals changed with the thread count";
  }
}

// ----- budgets and constraints ---------------------------------------

TEST(Search, BudgetCapsEvaluations) {
  const std::vector<int> alphas{1, 2, 4};
  const std::vector<int> lanes{1, 2, 4, 8, 16};
  engine::SimEngine eng;
  const ParamSpace space = geometry_space(alphas, lanes);
  GridStrategy strategy(space);
  GeometryEvaluator evaluator(eng, space, kGeomObjectives);
  SearchOptions options;
  options.budget = 5;
  const SearchOutcome outcome =
      run_search(strategy, evaluator, kGeomObjectives, options);
  EXPECT_EQ(outcome.candidates, 5u);
  // The five that ran are the first five grid points.
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(outcome.evaluations[i].key, space.candidate_key(space.at(i)));
  }
}

TEST(Search, ConstraintsExcludeFromFrontierButAreRecorded) {
  // 2-bit workload: 4-bit slicing pads 2→4 and drops to 0.25 bit
  // efficiency — below a 0.5 floor.
  engine::Scenario base = lstm_base();
  for (dnn::Layer& layer : base.network.layers()) {
    layer.x_bits = 2;
    layer.w_bits = 2;
  }
  const ParamSpace space = lstm_space();
  Constraints constraints;
  constraints.min_utilization = 0.5;
  engine::SimEngine eng;
  GridStrategy strategy(space);
  ScenarioEvaluator evaluator(eng, space, base, kScenObjectives(), {},
                              constraints);
  const SearchOutcome outcome =
      run_search(strategy, evaluator, kScenObjectives());
  EXPECT_EQ(outcome.candidates, 4u);
  EXPECT_EQ(outcome.infeasible, 2u);  // the two 4-bit-slice candidates
  for (const auto& e : outcome.frontier.entries()) {
    EXPECT_EQ(*space.value(e.candidate, Knob::kCvuSliceBits), 2.0);
  }
}

TEST(ScenarioSearch, WorkloadAxesSweepGeneratedFamilies) {
  // The workload axis rides the same search machinery as platform and
  // memory knobs: a grid over net_depth × net_width regenerates the MLP
  // family per candidate and prices each distinct network once.
  ParamSpace space;
  space.add_axis(Knob::kNetDepth, {2, 3});
  space.add_axis(Knob::kNetWidth, {16, 32});
  engine::SimEngine eng;
  GridStrategy strategy(space);
  const workload::GeneratorSpec generator{"mlp_family", 0, 0, "uniform:4",
                                          ""};
  ScenarioEvaluator evaluator(eng, space, lstm_base(), kScenObjectives(),
                              {}, {}, generator);
  const SearchOutcome outcome =
      run_search(strategy, evaluator, kScenObjectives());
  ASSERT_EQ(outcome.candidates, 4u);
  EXPECT_EQ(eng.stats().simulations_run, 4u);  // four distinct networks
  for (const Evaluation& e : outcome.evaluations) {
    ASSERT_NE(e.result, nullptr);
    EXPECT_EQ(e.result->network.rfind("mlp_family-", 0), 0u) << e.id;
    EXPECT_GT(e.result->total_cycles, 0);
  }
  // Wider and deeper nets do strictly more MACs in this family.
  EXPECT_LT(outcome.evaluations[0].result->total_macs,
            outcome.evaluations[3].result->total_macs);
  // A re-run is served entirely from the engine's scenario cache.
  GridStrategy again(space);
  ScenarioEvaluator evaluator2(eng, space, lstm_base(), kScenObjectives(),
                               {}, {}, generator);
  (void)run_search(again, evaluator2, kScenObjectives());
  EXPECT_EQ(eng.stats().simulations_run, 4u);
  EXPECT_EQ(eng.stats().cache_hits, 4u);
}

TEST(ScenarioSearch, DerivedMixFollowsTheRegeneratedNetwork) {
  // A net_bits sweep changes the workload's bitwidths per candidate; the
  // derived utilization mix (and the min_utilization constraint) must
  // score each candidate's own network, not the frozen base.
  ParamSpace space;
  space.add_axis(Knob::kCvuSliceBits, {4});  // 4-bit slices
  space.add_axis(Knob::kNetBits, {2, 8});
  engine::SimEngine eng;
  GridStrategy strategy(space);
  const workload::GeneratorSpec generator{"mlp_family", 2, 32, "", ""};
  const std::vector<Objective> objectives{objective(Metric::kCycles),
                                          objective(Metric::kUtilization)};
  ScenarioEvaluator evaluator(eng, space, lstm_base(), objectives, {}, {},
                              generator);
  const SearchOutcome outcome = run_search(strategy, evaluator, objectives);
  ASSERT_EQ(outcome.candidates, 2u);
  // On 4-bit slices a 2-bit workload wastes half of each operand slice
  // (utilization 0.25) while an 8-bit workload composes fully (1.0) —
  // visible only if the mix follows each candidate's regenerated net.
  EXPECT_DOUBLE_EQ(outcome.evaluations[0].design.mix_utilization, 0.25);
  EXPECT_DOUBLE_EQ(outcome.evaluations[1].design.mix_utilization, 1.0);
}

TEST(GeometryEvaluator, RejectsScenarioOnlyMetrics) {
  engine::SimEngine eng;
  const ParamSpace space = geometry_space({2}, {16});
  EXPECT_THROW(
      GeometryEvaluator(eng, space, {objective(Metric::kCycles)}), Error);
}

// ----- the bpvec_run search subcommand -------------------------------

class SearchCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "dse_cli_test_" +
           std::string(::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    manifest_path_ = dir_ + "/search.json";
    std::ofstream out(manifest_path_);
    out << R"({
      "name": "cli_search_test",
      "search": {
        "network": "lstm",
        "bitwidth_mode": "heterogeneous",
        "space": {"cvu_slice_bits": [2, 4], "cvu_lanes": [4, 16]},
        "strategy": "grid",
        "objectives": ["cycles", "energy", "mac_area"]
      }
    })";
  }
  void TearDown() override { fs::remove_all(dir_); }

  int run_cli(const std::vector<std::string>& args, std::string* out_text) {
    std::vector<const char*> argv{"bpvec_run"};
    for (const auto& a : args) argv.push_back(a.c_str());
    std::ostringstream out, err;
    const int rc = cli::main_cli(static_cast<int>(argv.size()), argv.data(),
                                 out, err);
    if (out_text != nullptr) *out_text = out.str() + err.str();
    return rc;
  }

  static std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  std::string dir_;
  std::string manifest_path_;
};

TEST_F(SearchCliTest, ColdAndWarmReportsAreByteIdentical) {
  const std::string cache = dir_ + "/cache";
  const std::string cold = dir_ + "/cold.json";
  const std::string warm = dir_ + "/warm.json";
  std::string text;
  ASSERT_EQ(run_cli({"search", manifest_path_, "--cache-dir", cache,
                     "--report", cold, "--deterministic-report",
                     "--no-table"},
                    &text),
            0)
      << text;
  ASSERT_EQ(run_cli({"search", manifest_path_, "--cache-dir", cache,
                     "--report", warm, "--deterministic-report",
                     "--no-table"},
                    &text),
            0)
      << text;
  const std::string cold_bytes = slurp(cold);
  EXPECT_FALSE(cold_bytes.empty());
  EXPECT_EQ(cold_bytes, slurp(warm));

  // The warm run priced nothing: every scenario came from disk.
  cli::DriverOptions options;
  options.manifest_path = manifest_path_;
  options.command = cli::Command::kSearch;
  options.cache_dir = cache;
  options.write_report = false;
  options.print_table = false;
  std::ostringstream sink;
  const cli::DriverResult result = cli::run_manifest(options, sink);
  EXPECT_EQ(result.stats.simulations_run, 0u);
  EXPECT_EQ(result.stats.disk_hits, 4u);
}

TEST_F(SearchCliTest, ValidatePricesNothingAndWritesNothing) {
  const std::string report = dir_ + "/report.json";
  std::string text;
  ASSERT_EQ(run_cli({"search", manifest_path_, "--validate", "--report",
                     report},
                    &text),
            0);
  EXPECT_NE(text.find("4 candidates"), std::string::npos) << text;
  EXPECT_NE(text.find("manifest OK"), std::string::npos) << text;
  EXPECT_FALSE(fs::exists(report));
}

TEST_F(SearchCliTest, GridModeOnSearchOnlyManifestFailsHelpfully) {
  std::string text;
  EXPECT_NE(run_cli({manifest_path_}, &text), 0);
  EXPECT_NE(text.find("search"), std::string::npos) << text;
}

TEST_F(SearchCliTest, ReportCarriesTheCanonicalFrontier) {
  const std::string report = dir_ + "/report.json";
  std::string text;
  ASSERT_EQ(run_cli({"search", manifest_path_, "--report", report,
                     "--deterministic-report", "--no-table"},
                    &text),
            0)
      << text;
  const auto doc = common::json::parse(slurp(report));
  EXPECT_EQ(doc.at("mode").as_string(), "search");
  EXPECT_EQ(doc.at("space_size").as_int(), 4);
  EXPECT_EQ(doc.at("candidates").as_int(), 4);
  EXPECT_EQ(doc.at("unique_candidates").as_int(), 4);
  ASSERT_GE(doc.at("frontier").size(), 1u);
  const auto& entry = doc.at("frontier").as_array()[0];
  EXPECT_TRUE(entry.find("knobs") != nullptr);
  EXPECT_TRUE(entry.find("objectives") != nullptr);
  EXPECT_TRUE(entry.at("metrics").find("total_cycles") != nullptr);
  // No run-dependent stats under --deterministic-report.
  EXPECT_EQ(doc.find("stats"), nullptr);
}

}  // namespace
}  // namespace bpvec::dse
