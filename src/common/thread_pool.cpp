#include "src/common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <memory>
#include <string>

#include "src/common/error.h"

namespace bpvec::common {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads > kMaxThreads) {
    throw Error("thread pool: " + std::to_string(num_threads) +
                " threads requested; at most " + std::to_string(kMaxThreads));
  }
  if (num_threads <= 0) {
    num_threads = std::clamp(
        static_cast<int>(std::thread::hardware_concurrency()), 1, kMaxThreads);
  }
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  wake_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::submit(std::function<void()> fn) {
  BPVEC_CHECK(fn != nullptr);
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(fn));
  }
  wake_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      // Queued tasks are taken before the shutdown flag is honoured, so
      // destruction drains the queue instead of dropping it.
      wake_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
      if (tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    try {
      task();
    } catch (...) {  // a detached task owns its error handling
    }
  }
}

namespace {

constexpr std::size_t kNoError = std::numeric_limits<std::size_t>::max();

/// Runs fn(lo) … fn(hi-1), every index even when some throw. Returns the
/// lowest throwing index with its exception in `error`, or kNoError.
std::size_t run_range(const std::function<void(std::size_t)>& fn,
                      std::size_t lo, std::size_t hi,
                      std::exception_ptr& error) {
  std::size_t error_index = kNoError;
  for (std::size_t i = lo; i < hi; ++i) {
    try {
      fn(i);
    } catch (...) {
      if (error_index == kNoError) {
        error_index = i;
        error = std::current_exception();
      }
    }
  }
  return error_index;
}

// One parallel_for call; chunks are claimed last-first. A helper that
// starts after the last claim never touches `fn`, so it may outlive the call.
struct ForState {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t n = 0, grain = 0, chunks = 0;
  std::atomic<std::size_t> claimed{0};
  std::mutex mu;  // guards done, error_index, error
  std::condition_variable all_done;
  std::size_t done = 0, error_index = kNoError;
  std::exception_ptr error;

  void run_chunk(std::size_t chunk) {
    std::exception_ptr chunk_error;
    const std::size_t at = run_range(*fn, chunk * grain,
                                     std::min(n, (chunk + 1) * grain),
                                     chunk_error);
    std::lock_guard<std::mutex> lock(mu);
    if (at < error_index) {
      error_index = at;
      error = std::move(chunk_error);
    }
    if (++done == chunks) all_done.notify_all();
  }

  void claim_and_run() {
    for (std::size_t c; (c = claimed.fetch_add(1)) < chunks;) {
      run_chunk(chunks - 1 - c);
    }
  }
};

}  // namespace

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t grain) {
  if (n == 0) return;
  BPVEC_CHECK(fn != nullptr);
  grain = std::max<std::size_t>(grain, 1);
  if (n <= grain) {
    // One chunk: the caller runs it, with no shared state and no helper.
    std::exception_ptr error;
    if (run_range(fn, 0, n, error) != kNoError) std::rethrow_exception(error);
    return;
  }
  auto state = std::make_shared<ForState>();
  state->fn = &fn;
  state->n = n;
  state->grain = grain;
  state->chunks = (n + grain - 1) / grain;
  state->claimed = 1;  // the caller's claim on the last chunk comes first

  const std::size_t helpers =
      std::min(state->chunks - 1, static_cast<std::size_t>(num_threads()));
  for (std::size_t h = 0; h < helpers; ++h) {
    submit([state] { state->claim_and_run(); });
  }
  state->run_chunk(state->chunks - 1);
  state->claim_and_run();

  // Only chunks other threads claimed can still run. Take the error out of
  // the state: a late helper may drop the state's last reference.
  std::unique_lock<std::mutex> lock(state->mu);
  state->all_done.wait(lock, [&] { return state->done == state->chunks; });
  if (std::exception_ptr error = std::move(state->error)) {
    std::rethrow_exception(error);
  }
}

}  // namespace bpvec::common
