#include "src/common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/common/error.h"

namespace bpvec::common {
namespace {

TEST(ThreadPool, ReportsThreadCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3);
  ThreadPool auto_pool(0);
  EXPECT_GE(auto_pool.num_threads(), 1);
}

TEST(ThreadPool, RejectsTooManyThreadsBeforeStartingAny) {
  try {
    ThreadPool pool(ThreadPool::kMaxThreads + 1);
    FAIL() << "expected a bpvec::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "at most " + std::to_string(ThreadPool::kMaxThreads)),
              std::string::npos)
        << e.what();
  }
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, SingleThreadPoolCompletes) {
  // The caller lends a hand, so even a 1-thread pool drains a large batch.
  ThreadPool pool(1);
  std::atomic<int> sum{0};
  pool.parallel_for(100, [&](std::size_t i) {
    sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, PropagatesLowestIndexException) {
  ThreadPool pool(4);
  try {
    pool.parallel_for(64, [&](std::size_t i) {
      if (i == 7 || i == 40) {
        throw std::runtime_error("boom " + std::to_string(i));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 7");
  }
}

TEST(ThreadPool, AllTasksRunEvenWhenSomeThrow) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallel_for(50,
                                 [&](std::size_t i) {
                                   ran.fetch_add(1);
                                   if (i % 2 == 0) throw Error("even");
                                 }),
               Error);
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPool, SingleChunkRunsEveryIndexOnTheCallerAndRethrowsLowest) {
  ThreadPool pool(4);
  std::vector<int> ran(16, 0);
  std::atomic<int> off_caller{0};
  const std::thread::id caller = std::this_thread::get_id();
  try {
    pool.parallel_for(
        16,
        [&](std::size_t i) {
          ++ran[i];
          if (std::this_thread::get_id() != caller) off_caller.fetch_add(1);
          if (i == 3 || i == 11) {
            throw std::runtime_error("boom " + std::to_string(i));
          }
        },
        /*grain=*/16);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 3");
  }
  EXPECT_EQ(ran, std::vector<int>(16, 1));
  EXPECT_EQ(off_caller.load(), 0);
}

TEST(ThreadPool, SubmitExecutesDetachedWork) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 16; ++i) {
    pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (done.load() < 16 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(done.load(), 16);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  // Queued detached tasks run to completion before the pool dies — the
  // destructor drains, it does not drop.
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&done] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        done.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }  // ~ThreadPool
  EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPool, WorkIsStolenAcrossQueues) {
  // One slow index pins whichever thread claimed its chunk; the other
  // lanes must keep claiming the remaining chunks around it. This is a
  // liveness test: it must simply finish.
  ThreadPool pool(4);
  std::atomic<int> slow{0}, fast{0};
  pool.parallel_for(128, [&](std::size_t i) {
    if (i == 0) {
      // One long task pins a worker; the rest must be stolen/shared.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      slow.fetch_add(1);
    } else {
      fast.fetch_add(1);
    }
  });
  EXPECT_EQ(slow.load(), 1);
  EXPECT_EQ(fast.load(), 127);
}

TEST(ThreadPool, NestedSequentialParallelForsReuseThePool) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> n{0};
    pool.parallel_for(37, [&](std::size_t) { n.fetch_add(1); });
    ASSERT_EQ(n.load(), 37);
  }
}

TEST(ThreadPool, CallerNeverRunsAForeignTask) {
  // Both workers parked, one detached task queued behind them: a
  // parallel_for from this thread must run its own chunks only, never the
  // queued task (e.g. a served request nested inside another's batch).
  std::latch parked(2), release(1);
  std::promise<std::thread::id> foreign_ran_on;
  ThreadPool pool(2);
  for (int w = 0; w < 2; ++w) {
    pool.submit([&] {
      parked.count_down();
      release.wait();
    });
  }
  parked.wait();
  pool.submit(
      [&] { foreign_ran_on.set_value(std::this_thread::get_id()); });
  std::atomic<int> ran{0};
  pool.parallel_for(4, [&](std::size_t) { ran.fetch_add(1); });
  release.count_down();
  EXPECT_EQ(ran.load(), 4);
  EXPECT_NE(foreign_ran_on.get_future().get(), std::this_thread::get_id());
}

TEST(ThreadPool, ParallelForInsideASubmittedTaskCompletesWhileWorkersAreBusy) {
  // One worker parked, the other running the task that calls
  // parallel_for: no worker is free, so the nested caller must claim
  // every chunk itself.
  std::latch parked(1), release(1);
  std::promise<int> nested_sum;
  ThreadPool pool(2);
  pool.submit([&] {
    parked.count_down();
    release.wait();
  });
  parked.wait();
  pool.submit([&] {
    std::atomic<int> sum{0};
    pool.parallel_for(
        64, [&](std::size_t i) { sum.fetch_add(static_cast<int>(i)); }, 4);
    nested_sum.set_value(sum.load());
  });
  auto done = nested_sum.get_future();
  const bool finished =
      done.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  release.count_down();
  ASSERT_TRUE(finished) << "nested parallel_for did not finish";
  EXPECT_EQ(done.get(), 2016);
}

}  // namespace
}  // namespace bpvec::common
