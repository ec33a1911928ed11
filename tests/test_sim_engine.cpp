#include "src/engine/sim_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/backend/backend_registry.h"
#include "src/dnn/model_zoo.h"
#include "src/engine/scenario.h"
#include "src/sim/simulator.h"
#include "tests/memo_bpvec_backend.h"
#include "tests/run_result_identical.h"

namespace bpvec::engine {
namespace {

// The Figs. 5–8 style grid: three platforms × two memories over a couple
// of networks — small enough for a unit test, rich enough to exercise
// every platform code path.
std::vector<Scenario> sample_grid() {
  std::vector<Scenario> grid;
  for (Platform p :
       {Platform::kTpuLike, Platform::kBitFusion, Platform::kBpvec}) {
    for (Memory m : {Memory::kDdr4, Memory::kHbm2}) {
      grid.push_back(make_scenario(
          p, m, dnn::make_alexnet(dnn::BitwidthMode::kHomogeneous8b)));
      grid.push_back(make_scenario(
          p, m, dnn::make_rnn(dnn::BitwidthMode::kHeterogeneous)));
    }
  }
  return grid;
}

TEST(SimEngine, RunBatchMatchesSequentialSimulateBitForBit) {
  const auto grid = sample_grid();
  SimEngine eng({/*num_threads=*/4});
  const auto batch = eng.run_batch(grid);

  ASSERT_EQ(batch.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto sequential =
        sim::Simulator(grid[i].platform, grid[i].memory).run(grid[i].network);
    expect_bit_identical(batch[i], sequential);
  }
}

TEST(SimEngine, ThreadCountDoesNotChangeResults) {
  const auto grid = sample_grid();
  SimEngine one({/*num_threads=*/1});
  SimEngine many({/*num_threads=*/8});
  const auto a = one.run_batch(grid);
  const auto b = many.run_batch(grid);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_bit_identical(a[i], b[i]);
  }
}

TEST(SimEngine, ResultsComeBackInInputOrder) {
  auto grid = sample_grid();
  SimEngine eng({2});
  const auto batch = eng.run_batch(grid);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(batch[i].platform, grid[i].platform.name);
    EXPECT_EQ(batch[i].network, grid[i].network.name());
    EXPECT_EQ(batch[i].memory, grid[i].memory.name);
  }
}

TEST(SimEngine, CacheServesRepeatedDesignPoints) {
  const auto grid = sample_grid();
  SimEngine eng({2});
  (void)eng.run_batch(grid);
  const auto after_first = eng.stats();
  EXPECT_EQ(after_first.scenarios_submitted, grid.size());
  EXPECT_EQ(after_first.simulations_run, grid.size());
  EXPECT_EQ(after_first.cache_hits, 0u);

  const auto again = eng.run_batch(grid);
  const auto after_second = eng.stats();
  EXPECT_EQ(after_second.simulations_run, grid.size());  // nothing new ran
  EXPECT_EQ(after_second.cache_hits, grid.size());

  const auto fresh = eng.run_batch(grid);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    expect_bit_identical(again[i], fresh[i]);
  }
}

TEST(SimEngine, DuplicatesWithinOneBatchSimulateOnce) {
  const auto one = make_scenario(
      Platform::kBpvec, Memory::kDdr4,
      dnn::make_alexnet(dnn::BitwidthMode::kHomogeneous8b));
  std::vector<Scenario> batch(5, one);
  SimEngine eng({2});
  const auto results = eng.run_batch(batch);
  EXPECT_EQ(eng.stats().simulations_run, 1u);
  EXPECT_EQ(eng.stats().cache_hits, 4u);
  for (const auto& r : results) {
    expect_bit_identical(r, results.front());
  }
}

TEST(SimEngine, ClearCacheForcesResimulation) {
  const auto one = make_scenario(
      Platform::kTpuLike, Memory::kHbm2,
      dnn::make_rnn(dnn::BitwidthMode::kHomogeneous8b));
  SimEngine eng({2});
  (void)eng.run(one);
  eng.clear_cache();
  (void)eng.run(one);
  EXPECT_EQ(eng.stats().simulations_run, 2u);
}

TEST(SimEngine, ScenarioMemoIsBounded) {
  // cap + 1 distinct design points overflow the scenario memo, which
  // clears before taking the last; the first must then re-price, and
  // re-price to the same bits.
  dnn::Network tiny("tiny", dnn::NetworkType::kCnn);
  tiny.add(dnn::make_fc("fc", {64, 64}));
  std::vector<Scenario> batch;
  for (std::size_t k = 0; k <= SimEngine::kMaxScenarioEntries; ++k) {
    sim::AcceleratorConfig cfg = sim::bpvec_accelerator();
    cfg.scratchpad_bytes += static_cast<std::int64_t>(k) * 64;
    batch.push_back(make_scenario(cfg, arch::ddr4(), tiny));
  }
  SimEngine eng({2});
  const auto first = eng.run_batch(batch);
  const std::size_t priced = eng.stats().simulations_run;
  EXPECT_EQ(priced, batch.size());
  const auto again = eng.run(batch.front());
  EXPECT_EQ(eng.stats().simulations_run, priced + 1);
  expect_bit_identical(again, first.front());
}

TEST(SimEngine, EmptyBatchIsFine) {
  SimEngine eng({2});
  EXPECT_TRUE(eng.run_batch({}).empty());
}

TEST(Scenario, FingerprintIsStableAndSensitive) {
  const auto base = make_scenario(
      Platform::kBpvec, Memory::kDdr4,
      dnn::make_alexnet(dnn::BitwidthMode::kHomogeneous8b));
  const auto same = make_scenario(
      Platform::kBpvec, Memory::kDdr4,
      dnn::make_alexnet(dnn::BitwidthMode::kHomogeneous8b));
  EXPECT_EQ(base.fingerprint(), same.fingerprint());

  auto bw = base;
  bw.memory.bandwidth_gbps *= 2;
  EXPECT_NE(base.fingerprint(), bw.fingerprint());

  auto spad = base;
  spad.platform.scratchpad_bytes += 1024;
  EXPECT_NE(base.fingerprint(), spad.fingerprint());

  auto net = base;
  net.network = dnn::make_alexnet(dnn::BitwidthMode::kHeterogeneous);
  EXPECT_NE(base.fingerprint(), net.fingerprint());

  auto platform = base;
  platform.platform = sim::tpu_like_baseline();
  EXPECT_NE(base.fingerprint(), platform.fingerprint());
}

TEST(Scenario, DefaultIdNamesBackendPlatformNetworkMemory) {
  const auto s = make_scenario(
      Platform::kBpvec, Memory::kHbm2,
      dnn::make_rnn(dnn::BitwidthMode::kHomogeneous8b));
  EXPECT_EQ(s.backend, "bpvec");
  EXPECT_EQ(s.id, "bpvec:" + s.platform.name + "/" + s.network.name() + "/" +
                      s.memory.name);
  const auto labeled = make_scenario(
      Platform::kBpvec, Memory::kHbm2,
      dnn::make_rnn(dnn::BitwidthMode::kHomogeneous8b), "custom-label");
  EXPECT_EQ(labeled.id, "custom-label");

  const auto serial = make_scenario(
      "bit_serial", Platform::kTpuLike, Memory::kDdr4,
      dnn::make_rnn(dnn::BitwidthMode::kHomogeneous8b));
  EXPECT_EQ(serial.backend, "bit_serial");
  EXPECT_EQ(serial.id.rfind("bit_serial:", 0), 0u);

  const auto gpu = make_gpu_scenario(
      dnn::make_rnn(dnn::BitwidthMode::kHomogeneous8b));
  EXPECT_EQ(gpu.backend, "gpu");
  EXPECT_EQ(gpu.id.rfind("gpu:", 0), 0u);
}

TEST(Scenario, MakeMemorySelectsThePaperMemorySystems) {
  EXPECT_EQ(make_memory(Memory::kDdr4).name, "DDR4");
  EXPECT_EQ(make_memory(Memory::kHbm2).name, "HBM2");
}

TEST(Scenario, FingerprintIncludesBackendId) {
  const auto net = dnn::make_alexnet(dnn::BitwidthMode::kHomogeneous8b);
  const auto bpvec =
      make_scenario(Platform::kTpuLike, Memory::kDdr4, net);
  auto serial = bpvec;
  serial.backend = "bit_serial";
  // Same platform/memory/network, different cost model: the fingerprints
  // must differ or the engine cache would serve one model's numbers for
  // the other.
  EXPECT_NE(bpvec.fingerprint(), serial.fingerprint());
}

// ---- Unified cost backends through the engine --------------------------

// The acceptance grid: a mixed {bpvec, bit_serial, bit_serial_loom, gpu}
// batch over two networks.
std::vector<Scenario> mixed_backend_grid() {
  std::vector<Scenario> grid;
  for (const auto& net :
       {dnn::make_alexnet(dnn::BitwidthMode::kHeterogeneous),
        dnn::make_lstm(dnn::BitwidthMode::kHomogeneous8b)}) {
    grid.push_back(make_scenario(Platform::kBpvec, Memory::kDdr4, net));
    grid.push_back(make_scenario("bit_serial", Platform::kTpuLike,
                                 Memory::kDdr4, net));
    grid.push_back(make_scenario("bit_serial_loom", Platform::kTpuLike,
                                 Memory::kDdr4, net));
    grid.push_back(make_gpu_scenario(net));
  }
  return grid;
}

TEST(SimEngineBackends, MixedBatchBitIdenticalToDirectBackendRuns) {
  const auto grid = mixed_backend_grid();
  SimEngine eng({/*num_threads=*/4});
  const auto batch = eng.run_batch(grid);
  ASSERT_EQ(batch.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto direct = backend::BackendRegistry::instance()
                            .create(grid[i].backend, grid[i].platform,
                                    grid[i].memory)
                            ->run(grid[i].network);
    expect_bit_identical(batch[i], direct);
    EXPECT_EQ(batch[i].backend, grid[i].backend);
  }
}

TEST(SimEngineBackends, SameScenarioDifferentBackendDoesNotCollide) {
  const auto net = dnn::make_alexnet(dnn::BitwidthMode::kHomogeneous8b);
  const auto bpvec =
      make_scenario(Platform::kTpuLike, Memory::kDdr4, net);
  const auto serial = make_scenario("bit_serial", Platform::kTpuLike,
                                    Memory::kDdr4, net);
  SimEngine eng({2});
  const auto results = eng.run_batch({bpvec, serial, bpvec, serial});
  EXPECT_EQ(eng.stats().simulations_run, 2u);  // one per backend
  EXPECT_EQ(eng.stats().cache_hits, 2u);
  EXPECT_EQ(results[0].backend, "bpvec");
  EXPECT_EQ(results[1].backend, "bit_serial");
  EXPECT_NE(results[0].total_cycles, results[1].total_cycles);
  expect_bit_identical(results[0], results[2]);
  expect_bit_identical(results[1], results[3]);
}

TEST(SimEngineBackends, LayerCacheBitIdenticalOnVsOffWithHits) {
  // Fig. 5-style grid: platforms × memories over networks with repeated
  // blocks (ResNet), priced by the memoizing wrapper ("on") and by plain
  // "bpvec" ("off") — the layer memo must fire and must not change a
  // single bit.
  std::vector<Scenario> grid;
  for (Platform p :
       {Platform::kTpuLike, Platform::kBitFusion, Platform::kBpvec}) {
    for (Memory m : {Memory::kDdr4, Memory::kHbm2}) {
      grid.push_back(make_scenario(
          p, m, dnn::make_resnet18(dnn::BitwidthMode::kHomogeneous8b)));
      grid.push_back(make_scenario(
          p, m, dnn::make_resnet50(dnn::BitwidthMode::kHeterogeneous)));
    }
  }
  std::vector<Scenario> memo_grid;
  for (const Scenario& s : grid) memo_grid.push_back(memoized(s));
  SimEngine with({2});
  SimEngine without({2});
  const auto a = with.run_batch(memo_grid);
  const auto b = without.run_batch(grid);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_bit_identical(a[i], b[i]);
  }
  EXPECT_GT(with.stats().layer_cache_hits, 0u);
  EXPECT_LT(with.stats().layers_priced, without.stats().layers_priced);
  EXPECT_EQ(without.stats().layer_cache_hits, 0u);
}

TEST(SimEngineBackends, ClearCacheDropsLayerCacheToo) {
  const auto one = memoized(make_scenario(
      Platform::kBpvec, Memory::kDdr4,
      dnn::make_alexnet(dnn::BitwidthMode::kHomogeneous8b)));
  SimEngine eng({2});
  (void)eng.run(one);
  const auto first = eng.stats().layers_priced;
  eng.clear_cache();
  (void)eng.run(one);
  // Cold layer memo again: the second run re-prices (at least the
  // unique layers; had clear_cache dropped only the scenario memo, the
  // layer memo would serve every layer and nothing would be re-priced).
  EXPECT_GE(eng.stats().layers_priced, first + 1);
}

TEST(SimEngineBackends, StatsStayConsistentUnderConcurrentRunBatch) {
  // Satellite audit: stats()/clear_cache() racing run_batch on one
  // engine. Correctness bar: no crashes/races (ASan job), every result
  // bit-identical to its direct run, and the final counters balance:
  // every submitted scenario was either priced or served from a cache.
  const auto grid = mixed_backend_grid();
  SimEngine eng({2});
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      const auto s = eng.stats();
      // A snapshot must never tear: hits+runs can trail submissions
      // (plan happens under the same lock) but never exceed them.
      EXPECT_LE(s.simulations_run + s.cache_hits, s.scenarios_submitted);
    }
  });

  constexpr int kRounds = 8;
  std::vector<std::thread> writers;
  std::vector<std::vector<sim::RunResult>> outs(3);
  for (int w = 0; w < 3; ++w) {
    writers.emplace_back([&, w] {
      for (int round = 0; round < kRounds; ++round) {
        outs[w] = eng.run_batch(grid);
        if (w == 0 && round == kRounds / 2) eng.clear_cache();
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  reader.join();

  for (const auto& out : outs) {
    ASSERT_EQ(out.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const auto direct = backend::BackendRegistry::instance()
                              .create(grid[i].backend, grid[i].platform,
                                      grid[i].memory)
                              ->run(grid[i].network);
      expect_bit_identical(out[i], direct);
    }
  }
  const auto s = eng.stats();
  EXPECT_EQ(s.scenarios_submitted, grid.size() * 3 * kRounds);
  EXPECT_EQ(s.simulations_run + s.cache_hits, s.scenarios_submitted);
}

/// Every field distinct; `scale` multiplies each value so two records
/// can be subtracted field by field. Doubles are dyadic, so differences
/// are exact.
EngineStats distinct_stats(std::size_t scale) {
  EngineStats s;
  s.scenarios_submitted = 1 * scale;
  s.simulations_run = 2 * scale;
  s.cache_hits = 3 * scale;
  s.layers_priced = 4 * scale;
  s.layer_cache_hits = 5 * scale;
  s.delta_scenarios = 6 * scale;
  s.disk_hits = 7 * scale;
  s.disk_misses = 8 * scale;
  s.disk_rejected = 9 * scale;
  s.disk_stores = 10 * scale;
  s.disk_store_failures = 11 * scale;
  s.disk_file_opens = 12 * scale;
  s.weight_cache_hits = 13 * scale;
  s.weight_cache_misses = 14 * scale;
  const double k = static_cast<double>(scale);
  s.construct_s = 0.5 * k;
  s.hash_s = 0.25 * k;
  s.plan_s = 0.125 * k;
  s.price_s = 2.5 * k;
  s.assemble_s = 4.75 * k;
  return s;
}

TEST(EngineStats, ToJsonKeysAndOrderArePinned) {
  // The CLI report's "stats" block, BENCH_*.json and the serve deltas
  // all print this object; its keys and their order are part of the
  // report bytes the goldens pin.
  EXPECT_EQ(to_json(distinct_stats(1)).dump(),
            "{\"scenarios_submitted\":1,\"simulations_run\":2,"
            "\"cache_hits\":3,\"layers_priced\":4,\"layer_cache_hits\":5,"
            "\"delta_scenarios\":6,\"disk_hits\":7,\"disk_misses\":8,"
            "\"disk_rejected\":9,\"disk_stores\":10,"
            "\"disk_store_failures\":11,\"disk_file_opens\":12,"
            "\"weight_cache_hits\":13,\"weight_cache_misses\":14,"
            "\"construct_s\":0.5,\"hash_s\":0.25,\"plan_s\":0.125,"
            "\"price_s\":2.5,\"assemble_s\":4.75}");
}

TEST(EngineStats, SubtractionCoversEveryField) {
  const EngineStats d = distinct_stats(3) - distinct_stats(1);
  const EngineStats want = distinct_stats(2);
  EXPECT_EQ(d.scenarios_submitted, want.scenarios_submitted);
  EXPECT_EQ(d.simulations_run, want.simulations_run);
  EXPECT_EQ(d.cache_hits, want.cache_hits);
  EXPECT_EQ(d.layers_priced, want.layers_priced);
  EXPECT_EQ(d.layer_cache_hits, want.layer_cache_hits);
  EXPECT_EQ(d.delta_scenarios, want.delta_scenarios);
  EXPECT_EQ(d.disk_hits, want.disk_hits);
  EXPECT_EQ(d.disk_misses, want.disk_misses);
  EXPECT_EQ(d.disk_rejected, want.disk_rejected);
  EXPECT_EQ(d.disk_stores, want.disk_stores);
  EXPECT_EQ(d.disk_store_failures, want.disk_store_failures);
  EXPECT_EQ(d.disk_file_opens, want.disk_file_opens);
  EXPECT_EQ(d.weight_cache_hits, want.weight_cache_hits);
  EXPECT_EQ(d.weight_cache_misses, want.weight_cache_misses);
  EXPECT_EQ(d.construct_s, want.construct_s);
  EXPECT_EQ(d.hash_s, want.hash_s);
  EXPECT_EQ(d.plan_s, want.plan_s);
  EXPECT_EQ(d.price_s, want.price_s);
  EXPECT_EQ(d.assemble_s, want.assemble_s);
}

}  // namespace
}  // namespace bpvec::engine
