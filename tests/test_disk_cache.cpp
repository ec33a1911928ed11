// DiskCache tests: the packed-record round trip, hit/miss accounting,
// corrupt-shard tolerance, format-version and registry-generation
// invalidation, one-shard-per-batch sealing, compaction/inspection,
// foreign files in the directory, concurrent writers, and — the
// contract everything else leans on — run_batch bit-identity with the
// disk cache off, cold, and warm.
#include "src/engine/disk_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "src/common/error.h"
#include "src/dnn/model_zoo.h"
#include "src/engine/scenario.h"
#include "src/engine/sim_engine.h"
#include "src/sim/simulator.h"
#include "tests/run_result_identical.h"

namespace bpvec::engine {
namespace {

namespace fs = std::filesystem;

/// Fresh cache directory per test, removed on teardown. Lives under the
/// working directory (the build tree), not /tmp, so parallel ctest
/// shards with different working directories cannot collide.
class DiskCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "disk_cache_test_" +
           std::string(::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// The shard files currently in the directory, sorted.
  std::vector<std::string> shard_files() const {
    std::vector<std::string> files;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("shard-", 0) == 0) files.push_back(name);
    }
    std::sort(files.begin(), files.end());
    return files;
  }

  std::string dir_;
};

sim::RunResult sample_result() {
  const auto config = sim::bpvec_accelerator();
  return sim::Simulator(config, arch::ddr4())
      .run(dnn::make_alexnet(dnn::BitwidthMode::kHeterogeneous));
}

/// A second result distinguishable from sample_result() bit-for-bit.
sim::RunResult other_result() {
  sim::RunResult r = sample_result();
  r.runtime_s += 1.0;
  return r;
}

TEST_F(DiskCacheTest, BinarySerializationIsTheIdentity) {
  const sim::RunResult original = sample_result();
  common::binio::Writer w;
  run_result_encode(w, original);
  common::binio::Reader r(w.bytes().data(), w.size());
  const sim::RunResult round_tripped = run_result_decode(r);
  EXPECT_TRUE(r.done());
  expect_bit_identical(original, round_tripped);
}

TEST_F(DiskCacheTest, StoreThenLoadIsBitIdentical) {
  DiskCache cache(dir_);
  const sim::RunResult original = sample_result();
  ASSERT_TRUE(cache.store(/*key=*/42, /*generation=*/7, original));
  const auto loaded = cache.load(42, 7);
  ASSERT_NE(loaded, nullptr);
  expect_bit_identical(original, *loaded);
  const DiskCacheStats s = cache.stats();
  EXPECT_EQ(s.stores, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.rejected, 0u);
  EXPECT_EQ(s.shards, 1u);
  EXPECT_EQ(s.records, 1u);
}

TEST_F(DiskCacheTest, AbsentKeyIsAMiss) {
  DiskCache cache(dir_);
  EXPECT_EQ(cache.load(1234, 1), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST_F(DiskCacheTest, EntriesSurviveTheCacheObject) {
  const sim::RunResult original = sample_result();
  {
    DiskCache cache(dir_);
    ASSERT_TRUE(cache.store(9, 3, original));
  }
  DiskCache reopened(dir_);  // fresh object, same directory
  const auto loaded = reopened.load(9, 3);
  ASSERT_NE(loaded, nullptr);
  expect_bit_identical(original, *loaded);
}

TEST_F(DiskCacheTest, StoreBatchSealsOneShard) {
  DiskCache cache(dir_);
  const sim::RunResult a = sample_result();
  const sim::RunResult b = other_result();
  const std::vector<DiskCache::PendingStore> pending{
      {1, 1, &a}, {2, 1, &b}, {3, 1, &a}};
  EXPECT_EQ(cache.store_batch(pending), 3u);
  EXPECT_EQ(shard_files().size(), 1u);  // one seal, not one file per entry
  const DiskCacheStats s = cache.stats();
  EXPECT_EQ(s.shards, 1u);
  EXPECT_EQ(s.records, 3u);
  EXPECT_EQ(s.file_opens, 1u);  // the seal; loads reuse the open fd
  for (const std::uint64_t key : {1u, 2u, 3u}) {
    ASSERT_NE(cache.load(key, 1), nullptr) << "key " << key;
  }
  EXPECT_EQ(cache.stats().file_opens, 1u);
}

TEST_F(DiskCacheTest, WarmReopenIsOneFileOpenPerShard) {
  {
    DiskCache cache(dir_);
    const sim::RunResult r = sample_result();
    std::vector<DiskCache::PendingStore> pending;
    for (std::uint64_t key = 0; key < 20; ++key) {
      pending.push_back({key, 1, &r});
    }
    ASSERT_EQ(cache.store_batch(pending), 20u);
  }
  DiskCache warm(dir_);
  EXPECT_EQ(warm.stats().file_opens, 1u);  // the scan, not one per key
  for (std::uint64_t key = 0; key < 20; ++key) {
    ASSERT_NE(warm.load(key, 1), nullptr);
  }
  EXPECT_EQ(warm.stats().file_opens, 1u);
}

TEST_F(DiskCacheTest, LastWriterWinsAcrossShards) {
  const sim::RunResult first = sample_result();
  const sim::RunResult second = other_result();
  DiskCache cache(dir_);
  ASSERT_TRUE(cache.store(5, 1, first));
  ASSERT_TRUE(cache.store(5, 1, second));  // a later shard, same key
  const auto live = cache.load(5, 1);
  ASSERT_NE(live, nullptr);
  expect_bit_identical(second, *live);
  // The reopened index resolves the duplicate the same way.
  DiskCache reopened(dir_);
  const auto reloaded = reopened.load(5, 1);
  ASSERT_NE(reloaded, nullptr);
  expect_bit_identical(second, *reloaded);
}

TEST_F(DiskCacheTest, ChecksumRejectsAFlippedByte) {
  DiskCache cache(dir_);
  const sim::RunResult original = sample_result();
  ASSERT_TRUE(cache.store(5, 1, original));
  const std::string shard = cache.shard_paths().at(0);

  // Flip one payload byte in place (header is 8 bytes, then the u32
  // record length; +6 lands inside the record's key field).
  {
    std::fstream f(shard, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(8 + 4 + 6);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(8 + 4 + 6);
    f.write(&byte, 1);
  }
  // The open cache catches it at load time (pread + checksum)...
  EXPECT_EQ(cache.load(5, 1), nullptr);
  EXPECT_GE(cache.stats().rejected, 1u);
  // ...and a store heals the key via a fresh shard.
  ASSERT_TRUE(cache.store(5, 1, original));
  const auto healed = cache.load(5, 1);
  ASSERT_NE(healed, nullptr);
  expect_bit_identical(original, *healed);

  // A fresh scan rejects the corrupt record and serves the healed shard.
  DiskCache reopened(dir_);
  EXPECT_GE(reopened.stats().rejected, 1u);
  const auto reloaded = reopened.load(5, 1);
  ASSERT_NE(reloaded, nullptr);
  expect_bit_identical(original, *reloaded);
}

TEST_F(DiskCacheTest, GarbageShardIsRejectedAndNeverOverwritten) {
  fs::create_directories(dir_);
  const std::string garbage_path = dir_ + "/shard-0007.bpc";
  {
    std::ofstream out(garbage_path, std::ios::binary);
    out << "this is not a shard";
  }
  DiskCache cache(dir_);
  EXPECT_EQ(cache.stats().rejected, 1u);
  EXPECT_EQ(cache.stats().shards, 0u);
  // A store publishes ABOVE the garbage file's claimed number.
  ASSERT_TRUE(cache.store(1, 1, sample_result()));
  EXPECT_NE(cache.load(1, 1), nullptr);
  const std::vector<std::string> files = shard_files();
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0], "shard-0007.bpc");
  EXPECT_EQ(files[1], "shard-0008.bpc");
  std::string still_garbage;
  {
    std::ifstream in(garbage_path, std::ios::binary);
    std::getline(in, still_garbage);
  }
  EXPECT_EQ(still_garbage, "this is not a shard");
}

TEST_F(DiskCacheTest, TruncatedShardRejectsItsTail) {
  {
    DiskCache cache(dir_);
    ASSERT_TRUE(cache.store(5, 1, sample_result()));
  }
  const std::string shard = dir_ + "/" + shard_files().at(0);
  fs::resize_file(shard, fs::file_size(shard) - 4);  // torn final record
  DiskCache reopened(dir_);
  EXPECT_GE(reopened.stats().rejected, 1u);
  EXPECT_EQ(reopened.load(5, 1), nullptr);  // a miss, not a crash
}

TEST_F(DiskCacheTest, RefusesToStoreNonFiniteResults) {
  // A non-finite metric means the scenario itself is broken; persisting
  // it would serve the poison to every later run.
  DiskCache cache(dir_);
  sim::RunResult r = sample_result();
  r.gops_per_w = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(cache.store(8, 1, r));
  EXPECT_EQ(cache.stats().store_failures, 1u);
  EXPECT_TRUE(shard_files().empty());
  r.gops_per_w = 0.0;
  r.layers.front().utilization = std::nan("");
  EXPECT_FALSE(cache.store(8, 1, r));
  EXPECT_EQ(cache.stats().store_failures, 2u);
  EXPECT_EQ(cache.load(8, 1), nullptr);  // a miss, not a poisoned entry
}

TEST_F(DiskCacheTest, RejectsStaleGenerations) {
  DiskCache cache(dir_);
  ASSERT_TRUE(cache.store(6, /*generation=*/1, sample_result()));
  // Same key, different registration stamp — e.g. the backend was
  // re-registered with different knobs since the record was written.
  EXPECT_EQ(cache.load(6, /*generation=*/2), nullptr);
  EXPECT_EQ(cache.stats().rejected, 1u);
  EXPECT_NE(cache.load(6, 1), nullptr);
}

TEST_F(DiskCacheTest, ConcurrentWritersNeverTearARecord) {
  DiskCache cache(dir_);
  const sim::RunResult original = sample_result();
  constexpr int kWriters = 8;
  constexpr int kRounds = 8;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&cache, &original] {
      for (int r = 0; r < kRounds; ++r) {
        cache.store(77, 1, original);
        // Interleave loads: a reader must only ever see a complete
        // record (shards are sealed before link(2) publishes them) —
        // nullptr would count as rejected.
        const auto loaded = cache.load(77, 1);
        ASSERT_NE(loaded, nullptr);
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(cache.stats().rejected, 0u);
  EXPECT_EQ(cache.stats().stores,
            static_cast<std::size_t>(kWriters) * kRounds);
  const auto final_load = cache.load(77, 1);
  ASSERT_NE(final_load, nullptr);
  expect_bit_identical(original, *final_load);
}

// ----- maintenance ---------------------------------------------------

TEST_F(DiskCacheTest, CompactMergesShardsAndKeepsLiveRecords) {
  const sim::RunResult first = sample_result();
  const sim::RunResult second = other_result();
  {
    DiskCache cache(dir_);
    ASSERT_TRUE(cache.store(1, 1, first));
    ASSERT_TRUE(cache.store(2, 1, first));
    ASSERT_TRUE(cache.store(2, 1, second));  // supersedes the key-2 record
  }
  const CacheDirInfo before = inspect_cache_dir(dir_);
  EXPECT_EQ(before.shards.size(), 3u);
  EXPECT_EQ(before.records_total, 3u);
  EXPECT_EQ(before.live_records, 2u);

  const CompactResult r = compact_cache_dir(dir_);
  EXPECT_EQ(r.shards_before, 3u);
  EXPECT_EQ(r.shards_after, 1u);
  EXPECT_EQ(r.records_kept, 2u);
  EXPECT_EQ(r.records_dropped, 1u);
  EXPECT_EQ(shard_files().size(), 1u);

  // Compaction copies record payloads verbatim: loads are unchanged.
  DiskCache compacted(dir_);
  const auto one = compacted.load(1, 1);
  const auto two = compacted.load(2, 1);
  ASSERT_NE(one, nullptr);
  ASSERT_NE(two, nullptr);
  expect_bit_identical(first, *one);
  expect_bit_identical(second, *two);
}

TEST_F(DiskCacheTest, ForeignFilesAreIgnoredAndLeftInPlace) {
  const sim::RunResult a = sample_result();
  const sim::RunResult b = other_result();
  // A sealed shard holding key 77, re-filed under names the scanner must
  // not index: an unpublished temp file (its writer was killed before
  // link(2)) and a shard- name without a number. Plus a stray JSON file.
  {
    DiskCache donor(dir_);
    ASSERT_TRUE(donor.store(77, 1, a));
  }
  const fs::path dir(dir_);
  ASSERT_EQ(shard_files(), std::vector<std::string>{"shard-0000.bpc"});
  fs::copy_file(dir / "shard-0000.bpc", dir / "shard-x.bpc");
  fs::rename(dir / "shard-0000.bpc", dir / "tmp-4242-0.bpc");
  {
    std::ofstream out(dir / "0123456789abcdef.json");
    out << R"({"format_version": 2, "key": "0123456789abcdef"})";
  }
  const auto files = [&] {
    std::vector<std::string> names;
    for (const auto& entry : fs::directory_iterator(dir)) {
      names.push_back(entry.path().filename().string());
    }
    std::sort(names.begin(), names.end());
    return names;
  };

  const CacheDirInfo before = inspect_cache_dir(dir_);
  EXPECT_TRUE(before.shards.empty());
  EXPECT_EQ(before.records_total, 0u);
  EXPECT_EQ(before.live_records, 0u);
  EXPECT_EQ(before.rejected_total, 0u);
  EXPECT_EQ(before.bytes_total, 0u);

  {
    DiskCache cache(dir_);
    EXPECT_EQ(cache.stats().shards, 0u);
    EXPECT_EQ(cache.stats().rejected, 0u);
    EXPECT_EQ(cache.load(77, 1), nullptr);  // never published
    ASSERT_EQ(cache.store_batch({{1, 1, &a}, {2, 1, &b}}), 2u);
    const auto one = cache.load(1, 1);
    ASSERT_NE(one, nullptr);
    expect_bit_identical(a, *one);
  }
  EXPECT_EQ(files(),
            (std::vector<std::string>{"0123456789abcdef.json",
                                      "shard-0000.bpc", "shard-x.bpc",
                                      "tmp-4242-0.bpc"}));

  DiskCache reopened(dir_);
  EXPECT_EQ(reopened.stats().shards, 1u);
  EXPECT_EQ(reopened.stats().rejected, 0u);
  const auto two = reopened.load(2, 1);
  ASSERT_NE(two, nullptr);
  expect_bit_identical(b, *two);
  EXPECT_EQ(reopened.load(77, 1), nullptr);

  const CacheDirInfo after = inspect_cache_dir(dir_);
  ASSERT_EQ(after.shards.size(), 1u);
  EXPECT_EQ(after.live_records, 2u);
  EXPECT_EQ(after.rejected_total, 0u);
  EXPECT_EQ(after.bytes_total, after.shards[0].bytes);

  // Compaction replaces only real shards.
  EXPECT_EQ(compact_cache_dir(dir_).records_kept, 2u);
  EXPECT_EQ(files(),
            (std::vector<std::string>{"0123456789abcdef.json",
                                      "shard-0001.bpc", "shard-x.bpc",
                                      "tmp-4242-0.bpc"}));
}

// ----- engine integration --------------------------------------------

std::vector<Scenario> mixed_batch() {
  std::vector<Scenario> batch;
  for (const auto& net :
       {dnn::make_alexnet(dnn::BitwidthMode::kHeterogeneous),
        dnn::make_rnn(dnn::BitwidthMode::kHomogeneous8b)}) {
    batch.push_back(
        make_scenario(Platform::kTpuLike, core::Memory::kDdr4, net));
    batch.push_back(
        make_scenario(Platform::kBpvec, core::Memory::kHbm2, net));
    batch.push_back(make_scenario("bit_serial", Platform::kBpvec,
                                  core::Memory::kDdr4, net));
  }
  batch.push_back(
      make_gpu_scenario(dnn::make_resnet18(dnn::BitwidthMode::kHomogeneous8b)));
  return batch;
}

TEST_F(DiskCacheTest, RunBatchIsBitIdenticalColdWarmAndOff) {
  const auto batch = mixed_batch();

  EngineOptions off;
  off.num_threads = 2;
  const auto baseline = SimEngine(off).run_batch(batch);

  EngineOptions with_disk = off;
  with_disk.disk_cache_dir = dir_;

  // Cold: every scenario misses the disk, prices, and is persisted —
  // the whole batch sealed into ONE shard (one file open).
  SimEngine cold(with_disk);
  const auto cold_results = cold.run_batch(batch);
  const EngineStats cold_stats = cold.stats();
  EXPECT_EQ(cold_stats.disk_hits, 0u);
  EXPECT_EQ(cold_stats.disk_misses, batch.size());
  EXPECT_EQ(cold_stats.disk_stores, batch.size());
  EXPECT_EQ(cold_stats.disk_file_opens, 1u);
  EXPECT_EQ(cold_stats.simulations_run, batch.size());
  EXPECT_EQ(shard_files().size(), 1u);

  // Warm, new engine (fresh memo caches, same directory): every scenario
  // is served from disk off the one scanned shard, nothing simulates.
  SimEngine warm(with_disk);
  const auto warm_results = warm.run_batch(batch);
  const EngineStats warm_stats = warm.stats();
  EXPECT_EQ(warm_stats.disk_hits, batch.size());
  EXPECT_EQ(warm_stats.simulations_run, 0u);
  EXPECT_EQ(warm_stats.layers_priced, 0u);
  EXPECT_EQ(warm_stats.disk_file_opens, 1u);  // the scan — not one per key
  // The invariant the header promises.
  EXPECT_EQ(warm_stats.simulations_run + warm_stats.cache_hits +
                warm_stats.disk_hits,
            warm_stats.scenarios_submitted);

  ASSERT_EQ(cold_results.size(), baseline.size());
  ASSERT_EQ(warm_results.size(), baseline.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    expect_bit_identical(baseline[i], cold_results[i]);
    expect_bit_identical(baseline[i], warm_results[i]);
  }
}

TEST_F(DiskCacheTest, MemoCacheSitsAboveTheDiskCache) {
  const auto batch = mixed_batch();
  EngineOptions opts;
  opts.num_threads = 2;
  opts.disk_cache_dir = dir_;
  SimEngine eng(opts);
  (void)eng.run_batch(batch);
  // Second submission on the same engine: the in-memory scenario cache
  // answers; the disk is not even probed.
  (void)eng.run_batch(batch);
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.cache_hits, batch.size());
  EXPECT_EQ(s.disk_hits, 0u);
  EXPECT_EQ(s.disk_misses, batch.size());  // from the first run only
}

TEST_F(DiskCacheTest, DiskHitsFeedTheMemoCache) {
  const auto batch = mixed_batch();
  EngineOptions opts;
  opts.num_threads = 2;
  opts.disk_cache_dir = dir_;
  (void)SimEngine(opts).run_batch(batch);  // populate the directory

  SimEngine warm(opts);
  (void)warm.run_batch(batch);  // all from disk
  (void)warm.run_batch(batch);  // all from the memo cache now
  const EngineStats s = warm.stats();
  EXPECT_EQ(s.disk_hits, batch.size());
  EXPECT_EQ(s.cache_hits, batch.size());
  EXPECT_EQ(s.simulations_run, 0u);
}

TEST_F(DiskCacheTest, CorruptedShardRepricesAndHeals) {
  const auto batch = mixed_batch();
  EngineOptions opts;
  opts.num_threads = 2;
  opts.disk_cache_dir = dir_;
  (void)SimEngine(opts).run_batch(batch);

  // Vandalize every shard in the directory.
  for (const std::string& name : shard_files()) {
    std::ofstream out(dir_ + "/" + name, std::ios::trunc);
    out << "{\"broken\": true}";
  }
  SimEngine healed(opts);
  const auto results = healed.run_batch(batch);
  const EngineStats s = healed.stats();
  EXPECT_GE(s.disk_rejected, 1u);  // one reject per vandalized shard
  EXPECT_EQ(s.simulations_run, batch.size());  // all repriced
  EXPECT_EQ(s.disk_stores, batch.size());      // and re-persisted

  // The healed records serve the next engine.
  SimEngine warm(opts);
  const auto warm_results = warm.run_batch(batch);
  EXPECT_EQ(warm.stats().disk_hits, batch.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    expect_bit_identical(results[i], warm_results[i]);
  }
}

TEST_F(DiskCacheTest, ClearCacheLeavesTheDiskAlone) {
  const auto batch = mixed_batch();
  EngineOptions opts;
  opts.num_threads = 2;
  opts.disk_cache_dir = dir_;
  SimEngine eng(opts);
  (void)eng.run_batch(batch);
  eng.clear_cache();  // drops memo caches only
  (void)eng.run_batch(batch);
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.cache_hits, 0u);
  EXPECT_EQ(s.disk_hits, batch.size());  // disk survived
  EXPECT_EQ(s.simulations_run, batch.size());
}

TEST_F(DiskCacheTest, ConcurrentEnginesShareADirectorySafely) {
  // Two engines (standing in for two processes — same code path, the
  // atomicity comes from sealed-then-link publication) hammer one
  // directory concurrently.
  const auto batch = mixed_batch();
  EngineOptions opts;
  opts.num_threads = 2;
  opts.disk_cache_dir = dir_;
  SimEngine a(opts), b(opts);
  std::vector<sim::RunResult> ra, rb;
  std::thread ta([&] { ra = a.run_batch(batch); });
  std::thread tb([&] { rb = b.run_batch(batch); });
  ta.join();
  tb.join();
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    expect_bit_identical(ra[i], rb[i]);
  }
  // Nothing torn was ever observed.
  EXPECT_EQ(a.stats().disk_rejected + b.stats().disk_rejected, 0u);
}

TEST_F(DiskCacheTest, RejectsUnusableDirectory) {
  EXPECT_THROW(DiskCache(""), Error);
  // A path through a regular file cannot become a directory.
  {
    std::ofstream out(dir_, std::ios::trunc);
    out << "i am a file";
  }
  EXPECT_THROW(DiskCache(dir_ + "/sub"), Error);
  fs::remove(dir_);
}

}  // namespace
}  // namespace bpvec::engine
