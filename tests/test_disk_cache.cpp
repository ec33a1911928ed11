// DiskCache tests: the packed-record round trip, hit/miss accounting,
// corrupt-shard tolerance, format-version invalidation (a well-formed
// previous-format shard is rejected and left in place),
// one-shard-per-batch sealing, merging past the shard bound (and healing
// a merge killed before its unlinks), records larger than the scan's read
// buffer, merges that re-verify each record they copy, inspection,
// foreign files in the directory, concurrent writers, and — the contract
// everything else leans on — run_batch bit-identity with the disk cache
// off, cold, and warm.
#include "src/engine/disk_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
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

/// A result distinguishable from sample_result() bit-for-bit, one per
/// `salt`.
sim::RunResult other_result(double salt = 1.0) {
  sim::RunResult r = sample_result();
  r.runtime_s += salt;
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
  ASSERT_TRUE(cache.store(/*key=*/42, original));
  const auto loaded = cache.load(42);
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
  EXPECT_EQ(cache.load(1234), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST_F(DiskCacheTest, EntriesSurviveTheCacheObject) {
  const sim::RunResult original = sample_result();
  {
    DiskCache cache(dir_);
    ASSERT_TRUE(cache.store(9, original));
  }
  DiskCache reopened(dir_);  // fresh object, same directory
  const auto loaded = reopened.load(9);
  ASSERT_NE(loaded, nullptr);
  expect_bit_identical(original, *loaded);
}

TEST_F(DiskCacheTest, StoreBatchSealsOneShard) {
  DiskCache cache(dir_);
  const sim::RunResult a = sample_result();
  const sim::RunResult b = other_result();
  const std::vector<DiskCache::PendingStore> pending{
      {1, &a}, {2, &b}, {3, &a}};
  EXPECT_EQ(cache.store_batch(pending), 3u);
  EXPECT_EQ(shard_files().size(), 1u);  // one seal, not one file per entry
  const DiskCacheStats s = cache.stats();
  EXPECT_EQ(s.shards, 1u);
  EXPECT_EQ(s.records, 3u);
  EXPECT_EQ(s.file_opens, 1u);  // the seal; loads reuse the open fd
  for (const std::uint64_t key : {1u, 2u, 3u}) {
    ASSERT_NE(cache.load(key), nullptr) << "key " << key;
  }
  EXPECT_EQ(cache.stats().file_opens, 1u);
}

TEST_F(DiskCacheTest, WarmReopenIsOneFileOpenPerShard) {
  {
    DiskCache cache(dir_);
    const sim::RunResult r = sample_result();
    std::vector<DiskCache::PendingStore> pending;
    for (std::uint64_t key = 0; key < 20; ++key) {
      pending.push_back({key, &r});
    }
    ASSERT_EQ(cache.store_batch(pending), 20u);
  }
  DiskCache warm(dir_);
  EXPECT_EQ(warm.stats().file_opens, 1u);  // the scan, not one per key
  for (std::uint64_t key = 0; key < 20; ++key) {
    ASSERT_NE(warm.load(key), nullptr);
  }
  EXPECT_EQ(warm.stats().file_opens, 1u);
}

TEST_F(DiskCacheTest, LastWriterWinsAcrossShards) {
  const sim::RunResult first = sample_result();
  const sim::RunResult second = other_result();
  DiskCache cache(dir_);
  ASSERT_TRUE(cache.store(5, first));
  ASSERT_TRUE(cache.store(5, second));  // a later shard, same key
  const auto live = cache.load(5);
  ASSERT_NE(live, nullptr);
  expect_bit_identical(second, *live);
  // The reopened index resolves the duplicate the same way.
  DiskCache reopened(dir_);
  const auto reloaded = reopened.load(5);
  ASSERT_NE(reloaded, nullptr);
  expect_bit_identical(second, *reloaded);
}

TEST_F(DiskCacheTest, ChecksumRejectsAFlippedByte) {
  DiskCache cache(dir_);
  const sim::RunResult original = sample_result();
  ASSERT_TRUE(cache.store(5, original));
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
  EXPECT_EQ(cache.load(5), nullptr);
  EXPECT_GE(cache.stats().rejected, 1u);
  // ...and a store heals the key via a fresh shard.
  ASSERT_TRUE(cache.store(5, original));
  const auto healed = cache.load(5);
  ASSERT_NE(healed, nullptr);
  expect_bit_identical(original, *healed);

  // A fresh scan rejects the corrupt record and serves the healed shard.
  DiskCache reopened(dir_);
  EXPECT_GE(reopened.stats().rejected, 1u);
  const auto reloaded = reopened.load(5);
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
  ASSERT_TRUE(cache.store(1, sample_result()));
  EXPECT_NE(cache.load(1), nullptr);
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

TEST_F(DiskCacheTest, PreviousFormatShardIsRejectedAndLeftInPlace) {
  // A v4 shard: the same magic and record layout, format version 4. Its
  // records carried a single-chain checksum; the header alone rejects it.
  const sim::RunResult original = sample_result();
  std::string v4;
  {
    common::binio::Writer payload;
    payload.u64(42);  // key
    run_result_encode(payload, original);
    common::binio::Writer shard;
    for (const char c : {'B', 'P', 'C', '3'}) {
      shard.u8(static_cast<std::uint8_t>(c));
    }
    shard.u32(4);
    shard.str(payload.bytes());  // u32 payload_len + payload
    shard.u64(common::binio::checksum(payload.bytes()));
    v4 = shard.take();
  }
  fs::create_directories(dir_);
  const std::string v4_path = dir_ + "/shard-0000.bpc";
  std::ofstream(v4_path, std::ios::binary) << v4;
  const auto v4_bytes = [&] {
    std::ifstream in(v4_path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };

  DiskCache cache(dir_);
  EXPECT_EQ(cache.stats().rejected, 1u);  // the whole shard, once
  EXPECT_EQ(cache.stats().shards, 0u);
  EXPECT_EQ(cache.load(42), nullptr);
  ASSERT_TRUE(cache.store(42, original));  // seals the next number
  EXPECT_EQ(shard_files(),
            (std::vector<std::string>{"shard-0000.bpc", "shard-0001.bpc"}));
  // Enough seals to force a merge: it folds only the shards it indexed.
  for (std::uint64_t key = 100; key < 100 + DiskCache::kMaxShards; ++key) {
    ASSERT_TRUE(cache.store(key, other_result(key)));
  }
  EXPECT_EQ(cache.stats().shards, 1u);
  EXPECT_EQ(shard_files().front(), "shard-0000.bpc");
  EXPECT_EQ(v4_bytes(), v4);

  // Every open counts the old shard again and serves the v5 records.
  DiskCache reopened(dir_);
  EXPECT_EQ(reopened.stats().rejected, 1u);
  const auto loaded = reopened.load(42);
  ASSERT_NE(loaded, nullptr);
  expect_bit_identical(original, *loaded);
  EXPECT_EQ(inspect_cache_dir(dir_).rejected_total, 1u);
  EXPECT_EQ(v4_bytes(), v4);
}

TEST_F(DiskCacheTest, TruncatedShardRejectsItsTail) {
  {
    DiskCache cache(dir_);
    ASSERT_TRUE(cache.store(5, sample_result()));
  }
  const std::string shard = dir_ + "/" + shard_files().at(0);
  fs::resize_file(shard, fs::file_size(shard) - 4);  // torn final record
  DiskCache reopened(dir_);
  EXPECT_GE(reopened.stats().rejected, 1u);
  EXPECT_EQ(reopened.load(5), nullptr);  // a miss, not a crash
}

TEST_F(DiskCacheTest, RefusesToStoreNonFiniteResults) {
  // A non-finite metric means the scenario itself is broken; persisting
  // it would serve the poison to every later run.
  DiskCache cache(dir_);
  sim::RunResult r = sample_result();
  r.gops_per_w = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(cache.store(8, r));
  EXPECT_EQ(cache.stats().store_failures, 1u);
  EXPECT_TRUE(shard_files().empty());
  r.gops_per_w = 0.0;
  r.layers.front().utilization = std::nan("");
  EXPECT_FALSE(cache.store(8, r));
  EXPECT_EQ(cache.stats().store_failures, 2u);
  EXPECT_EQ(cache.load(8), nullptr);  // a miss, not a poisoned entry
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
        cache.store(77, original);
        // Interleave loads: a reader must only ever see a complete
        // record (shards are sealed before link(2) publishes them) —
        // nullptr would count as rejected.
        const auto loaded = cache.load(77);
        ASSERT_NE(loaded, nullptr);
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(cache.stats().rejected, 0u);
  EXPECT_EQ(cache.stats().stores,
            static_cast<std::size_t>(kWriters) * kRounds);
  const auto final_load = cache.load(77);
  ASSERT_NE(final_load, nullptr);
  expect_bit_identical(original, *final_load);
}

// ----- the shard bound ---------------------------------------------------

TEST_F(DiskCacheTest, SealsPastTheBoundMergeIntoOneShard) {
  std::vector<sim::RunResult> results;
  for (int k = 0; k < 28; ++k) results.push_back(other_result(k));
  std::size_t merges = 0;
  DiskCache cache(dir_);
  // 20 single-record seals, then 8 more that supersede keys 0..7.
  for (int seal = 0; seal < 28; ++seal) {
    const std::uint64_t key = seal < 20 ? seal : seal - 20;
    ASSERT_TRUE(cache.store(key, results[seal]));
    EXPECT_LE(cache.stats().shards, DiskCache::kMaxShards);
    EXPECT_LE(shard_files().size(), DiskCache::kMaxShards);
    if (seal > 0 && cache.stats().shards == 1) {
      ++merges;
      // The merged shard carries each live record once.
      const CacheDirInfo info = inspect_cache_dir(dir_);
      EXPECT_EQ(info.records_total, info.live_records) << "seal " << seal;
      EXPECT_EQ(info.live_records, std::min<std::size_t>(seal + 1, 20));
    }
  }
  EXPECT_EQ(merges, 3u);  // seals 9, 17 and 25
  EXPECT_EQ(cache.stats().records, 20u);

  // Merges copy records verbatim and the last writer wins.
  DiskCache fresh(dir_);
  EXPECT_EQ(fresh.stats().rejected, 0u);
  for (std::uint64_t key = 0; key < 20; ++key) {
    const auto loaded = fresh.load(key);
    ASSERT_NE(loaded, nullptr) << "key " << key;
    expect_bit_identical(results[key < 8 ? key + 20 : key], *loaded);
  }
}

TEST_F(DiskCacheTest, ReaderKeepsItsShardsAcrossAnotherCachesMerge) {
  std::vector<sim::RunResult> results;
  for (int k = 0; k < 9; ++k) results.push_back(other_result(k));
  DiskCache writer(dir_);
  for (std::uint64_t key = 0; key < 8; ++key) {
    ASSERT_TRUE(writer.store(key, results[key]));
  }
  DiskCache reader(dir_);
  ASSERT_EQ(reader.stats().shards, 8u);
  ASSERT_TRUE(writer.store(8, results[8]));  // merges and unlinks all 8
  ASSERT_EQ(shard_files().size(), 1u);
  for (std::uint64_t key = 0; key < 8; ++key) {
    const auto loaded = reader.load(key);
    ASSERT_NE(loaded, nullptr) << "key " << key;
    expect_bit_identical(results[key], *loaded);
  }
  EXPECT_EQ(reader.stats().rejected, 0u);
}

TEST_F(DiskCacheTest, MergeNeverDeletesAShardItDidNotIndex) {
  // `stale` scanned the empty dir, so its next seal reuses the first
  // shard name a merge frees. `b` indexed that name's earlier file; its
  // own merge must leave the new file alone.
  DiskCache stale(dir_);
  DiskCache a(dir_);
  ASSERT_TRUE(a.store(0, other_result(0)));
  DiskCache b(dir_);
  ASSERT_EQ(b.stats().shards, 1u);
  for (std::uint64_t key = 1; key <= DiskCache::kMaxShards; ++key) {
    ASSERT_TRUE(a.store(key, other_result(key)));
  }
  ASSERT_EQ(a.stats().shards, 1u);  // merged; shard-0000 is unlinked
  const sim::RunResult kept = other_result(100);
  ASSERT_TRUE(stale.store(100, kept));
  ASSERT_EQ(stale.shard_paths().at(0), dir_ + "/shard-0000.bpc");
  for (std::uint64_t key = 200; key < 200 + DiskCache::kMaxShards; ++key) {
    ASSERT_TRUE(b.store(key, other_result(key)));
  }
  ASSERT_EQ(b.stats().shards, 1u);  // merged what it indexed
  const auto loaded = DiskCache(dir_).load(100);
  ASSERT_NE(loaded, nullptr);
  expect_bit_identical(kept, *loaded);
}

TEST_F(DiskCacheTest, TwoCachesSealingPastTheBoundLoseNoKey) {
  constexpr std::uint64_t kSeals = 40;
  const sim::RunResult result = sample_result();
  DiskCache first(dir_);
  for (std::uint64_t key = 0; key < 3; ++key) {
    ASSERT_TRUE(first.store(key, result));
  }
  // The second cache indexes the first's three shards, so both merges
  // fold them.
  DiskCache second(dir_);
  const auto seal = [&result](const DiskCache& cache, std::uint64_t base) {
    for (std::uint64_t key = base; key < base + kSeals; ++key) {
      ASSERT_TRUE(cache.store(key, result));
      ASSERT_LE(cache.stats().shards, DiskCache::kMaxShards);
    }
  };
  std::thread ta([&] { seal(first, 1000); });
  std::thread tb([&] { seal(second, 2000); });
  ta.join();
  tb.join();

  DiskCache fresh(dir_);
  EXPECT_EQ(fresh.stats().rejected, 0u);
  for (const std::uint64_t base : {0u, 1000u, 2000u}) {
    for (std::uint64_t key = base; key < base + (base == 0 ? 3 : kSeals);
         ++key) {
      const auto loaded = fresh.load(key);
      ASSERT_NE(loaded, nullptr) << "key " << key;
      expect_bit_identical(result, *loaded);
    }
  }
}

TEST_F(DiskCacheTest, MergeKilledBetweenLinkAndUnlinksHeals) {
  // A merge publishes its shard with link(2) before it unlinks the shards
  // it folded. Rebuild the directory a kill between the two leaves: the
  // folded shards beside the merged one.
  std::vector<sim::RunResult> results;
  for (int k = 0; k < 10; ++k) results.push_back(other_result(k));
  const std::string saved = dir_ + "_folded";
  fs::remove_all(saved);
  {
    DiskCache cache(dir_);
    for (std::uint64_t key = 0; key < DiskCache::kMaxShards; ++key) {
      ASSERT_TRUE(cache.store(key, results[key]));
    }
    fs::create_directory(saved);
    for (const std::string& name : shard_files()) {
      fs::copy_file(dir_ + "/" + name, saved + "/" + name);
    }
    ASSERT_TRUE(cache.store(8, results[8]));  // merges all nine
    ASSERT_EQ(shard_files().size(), 1u);
  }
  for (const auto& entry : fs::directory_iterator(saved)) {
    fs::copy_file(entry.path(), dir_ + "/" + entry.path().filename().string());
  }
  fs::remove_all(saved);
  ASSERT_EQ(shard_files().size(), DiskCache::kMaxShards + 1);

  const auto expect_every_key = [&](std::uint64_t keys) {
    DiskCache fresh(dir_);
    EXPECT_EQ(fresh.stats().rejected, 0u);
    for (std::uint64_t key = 0; key < keys; ++key) {
      const auto loaded = fresh.load(key);
      ASSERT_NE(loaded, nullptr) << "key " << key;
      expect_bit_identical(results[key], *loaded);
    }
  };
  expect_every_key(9);
  {
    DiskCache cache(dir_);
    ASSERT_TRUE(cache.store(9, results[9]));  // merges back under the bound
    EXPECT_LE(cache.stats().shards, DiskCache::kMaxShards);
  }
  EXPECT_LE(shard_files().size(), DiskCache::kMaxShards);
  expect_every_key(10);
}

// ----- chunked scan and index merge -------------------------------------

/// A result whose record outgrows the scan's 64 KiB read buffer: 600
/// layers of at least 134 encoded bytes each.
sim::RunResult big_result() {
  sim::RunResult r = sample_result();
  const std::vector<sim::LayerResult> base = r.layers;
  for (std::size_t i = 0; r.layers.size() < 600; ++i) {
    sim::LayerResult l = base[i % base.size()];
    l.name += "_copy" + std::to_string(i);
    r.layers.push_back(std::move(l));
  }
  return r;
}

TEST_F(DiskCacheTest, RecordLargerThanTheScanBufferRoundTrips) {
  const sim::RunResult big = big_result();
  common::binio::Writer w;
  run_result_encode(w, big);
  ASSERT_GT(w.size(), 64u * 1024u);
  const sim::RunResult small = sample_result();
  {
    DiskCache cache(dir_);
    ASSERT_EQ(cache.store_batch({{1, &small}, {2, &big}, {3, &small}}), 3u);
  }
  {
    DiskCache reopened(dir_);
    EXPECT_EQ(reopened.stats().rejected, 0u);
    EXPECT_EQ(reopened.stats().records, 3u);
    const auto loaded = reopened.load(2);
    ASSERT_NE(loaded, nullptr);
    expect_bit_identical(big, *loaded);
    // Enough seals to force a merge, which carries the big record.
    for (std::uint64_t key = 10; key < 10 + DiskCache::kMaxShards; ++key) {
      ASSERT_TRUE(reopened.store(key, other_result(key)));
    }
    ASSERT_EQ(reopened.stats().shards, 1u);
    const auto merged = reopened.load(2);
    ASSERT_NE(merged, nullptr);
    expect_bit_identical(big, *merged);
  }
  DiskCache fresh(dir_);
  EXPECT_EQ(fresh.stats().rejected, 0u);
  EXPECT_EQ(fresh.stats().records, 3u + DiskCache::kMaxShards);
  for (const std::uint64_t key : {1u, 3u}) {
    const auto loaded = fresh.load(key);
    ASSERT_NE(loaded, nullptr) << "key " << key;
    expect_bit_identical(small, *loaded);
  }
  const auto loaded = fresh.load(2);
  ASSERT_NE(loaded, nullptr);
  expect_bit_identical(big, *loaded);
}

TEST_F(DiskCacheTest, ShardTruncatedInsideABigRecordServesTheRecordsBefore) {
  const sim::RunResult big = big_result();
  const sim::RunResult small = sample_result();
  {
    DiskCache cache(dir_);
    ASSERT_EQ(cache.store_batch({{1, &small}, {2, &small}, {3, &big}}), 3u);
  }
  // Cut 1 KiB off the end: inside the big record, which the scan must
  // read past its first 64 KiB buffer to find torn.
  const std::string shard = dir_ + "/" + shard_files().at(0);
  const std::uintmax_t cut = fs::file_size(shard) - 1024;
  ASSERT_GT(cut, 64u * 1024u);
  fs::resize_file(shard, cut);

  DiskCache reopened(dir_);
  EXPECT_EQ(reopened.stats().rejected, 1u);
  EXPECT_EQ(reopened.stats().records, 2u);
  for (const std::uint64_t key : {1u, 2u}) {
    const auto loaded = reopened.load(key);
    ASSERT_NE(loaded, nullptr) << "key " << key;
    expect_bit_identical(small, *loaded);
  }
  EXPECT_EQ(reopened.load(3), nullptr);
  const CacheDirInfo info = inspect_cache_dir(dir_);
  EXPECT_EQ(info.rejected_total, 1u);
  EXPECT_EQ(info.records_total, 2u);
  EXPECT_EQ(info.bytes_total, cut);
}

TEST_F(DiskCacheTest, MergeCopiesLiveRecordsVerbatimInShardOrder) {
  // Eight one-record shards: keys 0-6, then key 2 again (its first record
  // is dead). The merge a ninth seal forces must hold the header, every
  // live record byte for byte in (shard, offset) order, then the new one.
  const auto file_bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  DiskCache cache(dir_);
  const std::vector<std::uint64_t> keys{0, 1, 2, 3, 4, 5, 6, 2};
  std::string expected;
  for (std::size_t seal = 0; seal < keys.size(); ++seal) {
    ASSERT_TRUE(cache.store(keys[seal], other_result(seal)));
    const std::string shard = file_bytes(cache.shard_paths().back());
    if (seal == 0) expected = shard.substr(0, 8);  // the header
    if (seal != 2) expected += shard.substr(8);    // seal 7 replaces seal 2
  }
  ASSERT_TRUE(cache.store(8, other_result(8)));
  ASSERT_EQ(cache.shard_paths().size(), 1u);
  const std::string merged = file_bytes(cache.shard_paths().at(0));
  ASSERT_GT(merged.size(), expected.size());
  EXPECT_TRUE(merged.compare(0, expected.size(), expected) == 0);
  const auto loaded = DiskCache(dir_).load(8);
  ASSERT_NE(loaded, nullptr);
  expect_bit_identical(other_result(8), *loaded);
}

TEST_F(DiskCacheTest, MergeDropsARecordCorruptedSinceTheScan) {
  std::vector<sim::RunResult> results;
  for (int k = 0; k < 9; ++k) results.push_back(other_result(k));
  DiskCache cache(dir_);
  for (std::uint64_t key = 0; key < DiskCache::kMaxShards; ++key) {
    ASSERT_TRUE(cache.store(key, results[key]));
  }
  // Flip a payload byte of key 3's record (its own one-record shard)
  // after the cache indexed it.
  {
    std::fstream f(cache.shard_paths().at(3),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(8 + 4 + 40);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    f.seekp(8 + 4 + 40);
    f.write(&byte, 1);
  }
  ASSERT_TRUE(cache.store(8, results[8]));  // merges all nine
  ASSERT_EQ(cache.stats().shards, 1u);
  EXPECT_EQ(cache.stats().rejected, 1u);  // the dropped record
  EXPECT_EQ(cache.stats().records, 8u);
  const std::size_t misses = cache.stats().misses;
  EXPECT_EQ(cache.load(3), nullptr);
  EXPECT_EQ(cache.stats().misses, misses + 1);  // dropped, not indexed

  DiskCache reopened(dir_);
  EXPECT_EQ(reopened.stats().rejected, 0u);  // nothing bad was carried
  EXPECT_EQ(reopened.load(3), nullptr);
  for (std::uint64_t key = 0; key < 9; ++key) {
    if (key == 3) continue;
    const auto loaded = reopened.load(key);
    ASSERT_NE(loaded, nullptr) << "key " << key;
    expect_bit_identical(results[key], *loaded);
  }
}

// ----- inspection ------------------------------------------------------

TEST_F(DiskCacheTest, InspectRejectsAMissingOrUnreadableDirectory) {
  for (const std::string& bad : {dir_ + "/missing", dir_ + "/file"}) {
    fs::create_directories(dir_);
    std::ofstream(dir_ + "/file") << "not a directory";
    try {
      (void)inspect_cache_dir(bad);
      ADD_FAILURE() << "no error for " << bad;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(bad), std::string::npos)
          << e.what();
    }
  }
}

TEST_F(DiskCacheTest, ForeignFilesAreIgnoredAndLeftInPlace) {
  const sim::RunResult a = sample_result();
  const sim::RunResult b = other_result();
  // A sealed shard holding key 77, re-filed under names the scanner must
  // not index: an unpublished temp file (its writer was killed before
  // link(2)) and a shard- name without a number. Plus a stray JSON file.
  {
    DiskCache donor(dir_);
    ASSERT_TRUE(donor.store(77, a));
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
    EXPECT_EQ(cache.load(77), nullptr);  // never published
    ASSERT_EQ(cache.store_batch({{1, &a}, {2, &b}}), 2u);
    const auto one = cache.load(1);
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
  const auto two = reopened.load(2);
  ASSERT_NE(two, nullptr);
  expect_bit_identical(b, *two);
  EXPECT_EQ(reopened.load(77), nullptr);

  const CacheDirInfo after = inspect_cache_dir(dir_);
  ASSERT_EQ(after.shards.size(), 1u);
  EXPECT_EQ(after.live_records, 2u);
  EXPECT_EQ(after.rejected_total, 0u);
  EXPECT_EQ(after.bytes_total, after.shards[0].bytes);

  // A garbage-header shard joins them; then enough seals to force a
  // merge. The merge replaces only the shards its cache indexed.
  {
    std::ofstream out(dir / "shard-0009.bpc", std::ios::binary);
    out << "this is not a shard";
  }
  {
    DiskCache merger(dir_);
    EXPECT_EQ(merger.stats().shards, 1u);
    EXPECT_EQ(merger.stats().rejected, 1u);
    for (std::uint64_t key = 10; key < 10 + DiskCache::kMaxShards; ++key) {
      ASSERT_TRUE(merger.store(key, a));
    }
    EXPECT_EQ(merger.stats().shards, 1u);
  }
  EXPECT_EQ(files(),
            (std::vector<std::string>{"0123456789abcdef.json",
                                      "shard-0009.bpc", "shard-0017.bpc",
                                      "shard-x.bpc", "tmp-4242-0.bpc"}));
  std::string still_garbage;
  std::getline(std::ifstream(dir / "shard-0009.bpc"), still_garbage);
  EXPECT_EQ(still_garbage, "this is not a shard");
  DiskCache merged(dir_);
  ASSERT_NE(merged.load(2), nullptr);
  expect_bit_identical(b, *merged.load(2));
  EXPECT_EQ(merged.load(77), nullptr);
}

// ----- engine integration --------------------------------------------

std::vector<Scenario> mixed_batch() {
  std::vector<Scenario> batch;
  for (const auto& net :
       {dnn::make_alexnet(dnn::BitwidthMode::kHeterogeneous),
        dnn::make_rnn(dnn::BitwidthMode::kHomogeneous8b)}) {
    batch.push_back(
        make_scenario(Platform::kTpuLike, Memory::kDdr4, net));
    batch.push_back(
        make_scenario(Platform::kBpvec, Memory::kHbm2, net));
    batch.push_back(make_scenario("bit_serial", Platform::kBpvec,
                                  Memory::kDdr4, net));
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
