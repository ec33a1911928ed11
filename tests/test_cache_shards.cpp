// Engine-cache stress tests (run under TSan and ASan+UBSan in CI — see
// those jobs' binary lists). The engine keeps its counters in one
// EngineStats record under one mutex: a batch commits its submissions
// and scenario-memo hits at plan time, before any disk probe, and the
// rest of its work at the end. These tests hammer run_batch /
// clear_cache / stats from concurrent threads and assert the counter
// contract sim_engine.h promises:
//
//   in every snapshot:
//     scenarios_submitted >= cache_hits + simulations_run + disk_hits
//   once every batch has returned:
//     scenarios_submitted == cache_hits + simulations_run + disk_hits
//
// The inequality is what a stats() snapshot taken while batches are in
// flight must keep: a batch's two commits, and the disk hits in between,
// must never show work without its submission.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "src/engine/scenario.h"
#include "src/engine/sim_engine.h"
#include "src/workload/generators.h"

namespace bpvec::engine {
namespace {

/// A cheap batch of distinct scenarios (tiny generated MLPs at several
/// widths × both memories).
std::vector<Scenario> tiny_batch() {
  std::vector<Scenario> batch;
  for (const int width : {8, 12, 16, 24}) {
    workload::GeneratorSpec spec;
    spec.family = "mlp_family";
    spec.depth = 2;
    spec.width = width;
    const dnn::Network net = workload::generate(spec);
    batch.push_back(make_scenario(Platform::kBpvec, Memory::kDdr4, net));
    batch.push_back(make_scenario(Platform::kBpvec, Memory::kHbm2, net));
  }
  return batch;
}

TEST(CacheShardsTest, PerShardCountersSumToStats) {
  const std::vector<Scenario> batch = tiny_batch();
  SimEngine eng({/*num_threads=*/2});
  (void)eng.run_batch(batch);  // all simulate
  (void)eng.run_batch(batch);  // all hit

  const EngineStats stats = eng.stats();
  EXPECT_EQ(stats.scenarios_submitted, 2 * batch.size());
  EXPECT_EQ(stats.cache_hits, batch.size());
  EXPECT_EQ(stats.simulations_run, batch.size());
}

TEST(CacheShardsTest, ClearCachePreservesCounters) {
  const std::vector<Scenario> batch = tiny_batch();
  SimEngine eng({/*num_threads=*/2});
  (void)eng.run_batch(batch);
  const EngineStats before = eng.stats();
  eng.clear_cache();
  const EngineStats after = eng.stats();
  EXPECT_EQ(after.scenarios_submitted, before.scenarios_submitted);
  EXPECT_EQ(after.simulations_run, before.simulations_run);
  EXPECT_EQ(after.cache_hits, before.cache_hits);
  // The entries are gone: the same batch re-simulates.
  (void)eng.run_batch(batch);
  EXPECT_EQ(eng.stats().simulations_run, 2 * batch.size());
}

// The TSan centerpiece: concurrent run_batch + clear_cache + stats on
// one engine. Any missing lock in the memo maps shows up as a TSan
// report; any counter-order bug shows up as a violated inequality.
TEST(CacheShardsTest, ConcurrentBatchesClearsAndStatsKeepInvariants) {
  const std::vector<Scenario> batch = tiny_batch();
  SimEngine eng({/*num_threads=*/2});

  constexpr int kRunners = 3;
  constexpr int kRounds = 12;
  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};

  std::vector<std::thread> runners;
  for (int t = 0; t < kRunners; ++t) {
    runners.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        const auto results = eng.run_batch(batch);
        if (results.size() != batch.size()) failed.store(true);
      }
    });
  }
  std::thread clearer([&] {
    while (!done.load(std::memory_order_acquire)) {
      eng.clear_cache();
      std::this_thread::yield();
    }
  });
  std::thread observer([&] {
    while (!done.load(std::memory_order_acquire)) {
      // Mid-flight snapshots must satisfy the inequality at every
      // instant.
      const EngineStats s = eng.stats();
      if (s.scenarios_submitted < s.cache_hits + s.simulations_run) {
        failed.store(true);
      }
      std::this_thread::yield();
    }
  });

  for (auto& t : runners) t.join();
  done.store(true, std::memory_order_release);
  clearer.join();
  observer.join();
  EXPECT_FALSE(failed.load());

  // Quiescent, no disk cache: exact aggregate accounting.
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.scenarios_submitted,
            static_cast<std::size_t>(kRunners) * kRounds * batch.size());
  EXPECT_EQ(s.scenarios_submitted, s.cache_hits + s.simulations_run);
}

// Same stress with the disk cache in the loop: the sealed-shard store
// path and pread load path join the race, and the invariant gains the
// disk term. Results must stay correct throughout.
TEST(CacheShardsTest, ConcurrentStressWithDiskCache) {
  const std::vector<Scenario> batch = tiny_batch();
  const std::string dir = "cache_shards_stress_disk";
  std::filesystem::remove_all(dir);
  {
    EngineOptions opts;
    opts.num_threads = 2;
    opts.disk_cache_dir = dir;
    SimEngine eng(opts);

    constexpr int kRunners = 3;
    constexpr int kRounds = 8;
    std::atomic<bool> done{false};
    std::atomic<bool> failed{false};
    std::vector<std::thread> runners;
    for (int t = 0; t < kRunners; ++t) {
      runners.emplace_back([&] {
        for (int round = 0; round < kRounds; ++round) {
          const auto results = eng.run_batch(batch);
          if (results.size() != batch.size()) failed.store(true);
        }
      });
    }
    std::thread clearer([&] {
      while (!done.load(std::memory_order_acquire)) {
        eng.clear_cache();
        const EngineStats s = eng.stats();
        if (s.scenarios_submitted <
            s.cache_hits + s.simulations_run + s.disk_hits) {
          failed.store(true);
        }
        std::this_thread::yield();
      }
    });
    for (auto& t : runners) t.join();
    done.store(true, std::memory_order_release);
    clearer.join();
    EXPECT_FALSE(failed.load());

    const EngineStats s = eng.stats();
    EXPECT_EQ(s.scenarios_submitted,
              s.cache_hits + s.simulations_run + s.disk_hits);
    EXPECT_EQ(s.disk_store_failures, 0u);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace bpvec::engine
