// common::Memo — the one in-memory memo behind the engine's scenario and
// layer caches and the process-wide weight-plane cache. Runs under TSan
// in CI (see the tsan job's binary list).
#include "src/common/memo.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

namespace bpvec::common {
namespace {

TEST(MemoTest, FirstInsertWins) {
  Memo<int> memo;
  EXPECT_FALSE(memo.find(1).has_value());
  EXPECT_TRUE(memo.insert(1, 10));
  EXPECT_FALSE(memo.insert(1, 11));
  EXPECT_EQ(*memo.find(1), 10);
  EXPECT_EQ(memo.get_or_build(1, [] { return 12; }), 10);
  EXPECT_EQ(memo.size(), 1u);
}

TEST(MemoTest, GetOrBuildCountsOneMissThenHits) {
  Memo<int> memo;
  int builds = 0;
  const auto build = [&] {
    ++builds;
    return 42;
  };
  EXPECT_EQ(memo.get_or_build(5, build), 42);
  EXPECT_EQ(memo.misses(), 1u);
  EXPECT_EQ(memo.hits(), 0u);
  EXPECT_EQ(memo.get_or_build(5, build), 42);
  EXPECT_EQ(memo.get_or_build(5, build), 42);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(memo.misses(), 1u);
  EXPECT_EQ(memo.hits(), 2u);
  // find() and insert() are uncounted lookups.
  (void)memo.find(5);
  (void)memo.insert(6, 1);
  EXPECT_EQ(memo.hits() + memo.misses(), 3u);
}

TEST(MemoTest, ClearDropsEntriesButKeepsCounters) {
  Memo<int> memo;
  (void)memo.get_or_build(1, [] { return 1; });
  (void)memo.get_or_build(1, [] { return 1; });
  memo.clear();
  EXPECT_EQ(memo.size(), 0u);
  EXPECT_FALSE(memo.find(1).has_value());
  EXPECT_EQ(memo.hits(), 1u);
  EXPECT_EQ(memo.misses(), 1u);
  // The next call rebuilds and keeps counting from where it was.
  (void)memo.get_or_build(1, [] { return 1; });
  EXPECT_EQ(memo.misses(), 2u);
}

TEST(MemoTest, CapClearsOnlyForANewKey) {
  constexpr std::size_t kCap = 4;
  Memo<int> memo(kCap);
  for (std::uint64_t k = 0; k < kCap; ++k) {
    EXPECT_TRUE(memo.insert(k, static_cast<int>(k)));
  }
  EXPECT_EQ(memo.size(), kCap);

  // A full map re-inserting a present key (a concurrent miss that lost
  // the race) keeps every entry.
  EXPECT_FALSE(memo.insert(2, 99));
  EXPECT_EQ(memo.size(), kCap);
  EXPECT_EQ(*memo.find(2), 2);
  EXPECT_EQ(memo.get_or_build(3, [] { return 99; }), 3);
  EXPECT_EQ(memo.size(), kCap);

  // A new key past the cap clears the map and leaves only itself.
  EXPECT_TRUE(memo.insert(kCap, 40));
  EXPECT_EQ(memo.size(), 1u);
  EXPECT_EQ(*memo.find(kCap), 40);
  EXPECT_FALSE(memo.find(0).has_value());

  // get_or_build on a new key goes through the same cap.
  for (std::uint64_t k = 10; memo.size() < kCap; ++k) {
    (void)memo.insert(k, 0);
  }
  EXPECT_EQ(memo.get_or_build(100, [] { return 7; }), 7);
  EXPECT_EQ(memo.size(), 1u);
}

TEST(MemoTest, UncappedMemoNeverClears) {
  Memo<int> memo;
  for (std::uint64_t k = 0; k < 5000; ++k) (void)memo.insert(k, 0);
  EXPECT_EQ(memo.size(), 5000u);
}

// Threads race get_or_build on a few shared keys (build-outside-the-lock,
// first insert wins) and on keys of their own, against a small cap so
// the wholesale clear joins the race. Every call must return the value
// its key determines.
TEST(MemoTest, ConcurrentGetOrBuildOnSharedAndDistinctKeys) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  constexpr std::uint64_t kShared = 3;
  Memo<std::shared_ptr<const std::uint64_t>> memo(/*max_entries=*/64);
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        const std::uint64_t key =
            r % 2 == 0 ? static_cast<std::uint64_t>(r) % kShared
                       : 1000 + static_cast<std::uint64_t>(t) * kRounds + r;
        const auto v = memo.get_or_build(key, [key] {
          return std::make_shared<const std::uint64_t>(key * 3);
        });
        if (*v != key * 3) wrong.fetch_add(1);
        if (const auto seen = memo.find(key); seen && **seen != key * 3) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(memo.hits() + memo.misses(),
            static_cast<std::uint64_t>(kThreads) * kRounds);
  EXPECT_LE(memo.size(), 64u);
  // Each distinct key missed at least once.
  EXPECT_GE(memo.misses(), kShared + kThreads * kRounds / 2);
}

}  // namespace
}  // namespace bpvec::common
