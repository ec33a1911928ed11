// Session — one warm engine serving many requests.
//
// A Session owns one SimEngine (thread pool + scenario/layer memo
// caches + optional disk cache) and the process-wide Network/Backend
// registries' warm contents, and serves typed Request objects against
// them for the process's lifetime.
//
// Two front ends share it — this is the enforced single code path:
//   * run_manifest (src/serve/driver.h, bpvec_run) constructs a fresh
//     Session per invocation: batch semantics, cold memo caches, the
//     disk cache still persists;
//   * Server keeps one Session for the daemon's lifetime and
//     multiplexes socket requests onto it — repeat manifests are served
//     from the warm caches (a warm repeat's delta shows
//     simulations_run == 0).
//
// Accounting: every Response carries the per-request EngineStats delta
// (engine snapshot before/after, subtracted — see the operator contract
// in sim_engine.h for concurrency caveats) and the fleet-wide cumulative
// counters. The report's optional "stats" block is the DELTA, which for
// a fresh Session equals the engine totals.
//
// Concurrency: price/search/validate/list are safe to call from any
// thread concurrently (SimEngine::run_batch is concurrency-safe; the
// registries and the session's own history are mutex-guarded). submit()
// queues a request closure onto the engine's ThreadPool — the same pool
// that prices the batches. A nested parallel_for claims its own chunks
// and never runs another queued request, so queued requests cannot
// deadlock the pool or run inside one another.
//
// Cancellation: cooperative, between engine batches. price() runs its
// scenario list in fixed-size batches and checks the token before each;
// search() threads the token into dse::SearchOptions::should_stop,
// checked before each propose/evaluate round. A cancelled request
// returns Response::cancelled with no report; everything priced before
// the check stays in the caches (it was priced normally), so the engine
// is immediately reusable.
#pragma once

#include <cstddef>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "src/common/json.h"
#include "src/engine/sim_engine.h"
#include "src/serve/request.h"

namespace bpvec::serve {

struct SessionOptions {
  /// Engine pool workers; <= 0: hardware concurrency. The calling thread
  /// computes too, so threads + 1 chunks can run at once.
  int threads = 0;
  /// Persistent result-cache directory (engine disk cache); empty = off.
  std::string cache_dir;
};

class Session {
 public:
  explicit Session(SessionOptions options = {});

  // Request execution. All throw bpvec::Error on invalid input (bad
  // manifest contents, missing search block, unknown tokens) — the
  // server maps those to structured error envelopes, the CLI prints
  // them. A thrown request does not appear in the latency history.
  Response price(const PriceRequest& request, CancelToken token = {});
  Response search(const SearchRequest& request, CancelToken token = {});
  Response validate(const ValidateRequest& request);
  Response list();

  /// Registers a workload-schema network file into the process-wide
  /// NetworkRegistry (the CLI's --network-file / the envelope's
  /// "network_files"). Idempotent for identical content.
  void register_network_file(const std::string& path);

  /// Queues `work` onto the engine's ThreadPool and returns its future.
  /// Exceptions thrown by `work` surface through the future. This is how
  /// the server runs requests while its connection thread streams
  /// heartbeats; the server's work returns the final reply, so a
  /// Response's scenarios and results are freed on the pool thread that
  /// built them.
  template <class Work>
  auto submit(Work work) -> std::future<decltype(work())> {
    using Result = decltype(work());
    auto task =
        std::make_shared<std::packaged_task<Result()>>(std::move(work));
    std::future<Result> future = task->get_future();
    engine().pool().submit([task] { (*task)(); });
    return future;
  }

  /// The shared engine (constructed lazily on first use, so validate/
  /// list-only sessions never spin up a thread pool).
  engine::SimEngine& engine();

  /// Cumulative engine counters; all-zero before the engine exists.
  engine::EngineStats fleet_stats();

  /// The {"op":"stats"} document: per-op request counters and latency
  /// (completed/cancelled counts, total/last/max wall seconds), the
  /// fleet-wide cumulative engine counters, and derived cache hit rates
  /// (scenario memo, layer memo, disk). Run-dependent by nature.
  common::json::Value stats_json();

 private:
  struct OpCounters {
    std::size_t completed = 0;
    std::size_t cancelled = 0;
    double total_wall_s = 0.0;
    double last_wall_s = 0.0;
    double max_wall_s = 0.0;
  };

  /// Appends one served request to the latency history.
  void record(const char* op, const Response& response);

  SessionOptions options_;
  mutable std::mutex mu_;  // guards engine_ creation and history_
  std::unique_ptr<engine::SimEngine> engine_;
  std::map<std::string, OpCounters> history_;
};

}  // namespace bpvec::serve
