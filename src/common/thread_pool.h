// Thread pool behind SimEngine, the packed kernels and bpvec_serve's
// request queue: one FIFO (a deque, one mutex, one condvar) feeds every
// worker. parallel_for's caller and helper tasks claim chunks from a
// shared counter, so a caller never runs a task someone else submitted.
//
// Determinism contract: the pool schedules *when* a task runs, never what
// it computes. Tasks must not share mutable state; anything stochastic
// derives from an injected per-task bpvec::Rng stream (see Rng::fork), so
// batch results are bit-identical regardless of thread count or
// interleaving.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bpvec::common {

class ThreadPool {
 public:
  /// Most workers a pool accepts; an automatic count is clamped to it.
  static constexpr int kMaxThreads = 256;

  /// `num_threads <= 0` uses std::thread::hardware_concurrency(). Throws
  /// bpvec::Error above kMaxThreads, before any thread starts.
  explicit ThreadPool(int num_threads = 0);
  /// Drains every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Queues `fn` (FIFO). An exception escaping a detached task is
  /// swallowed (use parallel_for when failures must reach a caller).
  void submit(std::function<void()> fn);

  /// Runs fn(0) … fn(n-1) in chunks of `grain` consecutive indices and
  /// blocks until every call has returned. The caller claims chunks too
  /// (last chunk first), so a k-thread pool uses k+1 lanes and a call
  /// from inside a task finishes even while every worker is busy. A call
  /// that fits in one chunk runs on the caller alone. Every index runs
  /// even when some throw; the lowest index's exception is rethrown in
  /// the caller.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                    std::size_t grain = 1);

 private:
  void worker_loop();

  std::deque<std::function<void()>> tasks_;  // guarded by mu_
  std::mutex mu_;
  std::condition_variable wake_;
  bool shutdown_ = false;  // guarded by mu_
  std::vector<std::thread> workers_;
};

}  // namespace bpvec::common
