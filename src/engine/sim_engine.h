// SimEngine — the parallel batch simulation engine.
//
// The paper's evaluation is a pile of embarrassingly parallel scenario
// matrices (Fig. 4's α×L sweep, Figs. 5–9's platform×network×memory
// grids — now × cost backend: the Fig. 9 GPU roofline and the Fig. 1
// bit-serial baselines ride the same batch as the cycle simulator).
// SimEngine prices whole batches at once on a work-stealing thread pool
// and memoizes at three granularities:
//
//   * scenario cache — keyed by Scenario::fingerprint × the backend
//     key's registry generation (re-registering a backend abandons its
//     stale entries); repeated design points price once. Fingerprints
//     are structural on the workload axis (names excluded), so a JSON
//     copy of a zoo network dedupes against the builtin; run_batch
//     restores each scenario's own network/layer labels on the way out.
//   * layer cache — keyed by backend fingerprint × layer shape/bits
//     fingerprint; ResNet's repeated blocks and networks shared across
//     scenarios price each unique layer once (a wall-clock win on the
//     Fig. 5–9 grids even single-threaded). run_batch prices at this
//     granularity: each batch collects the unique missing layer keys
//     across all of its scenarios, prices each exactly once, and
//     assembles every scenario from the shared results — so a candidate
//     that differs from an already-priced neighbor in one axis re-prices
//     only the layers that axis actually changed (delta pricing; see
//     EngineStats::delta_scenarios).
//   * disk cache (optional, EngineOptions::disk_cache_dir) — persistent
//     scenario-level results keyed by Scenario::fingerprint × the
//     resolved backend instance's fingerprint, below the memo caches:
//     probed only for scenarios the in-memory caches miss, and fed back
//     into the scenario cache on hit. Survives the process — warm
//     `bpvec_run --cache-dir` replays serve whole grids without
//     simulating (see src/engine/disk_cache.h for the staleness and
//     atomicity story).
//
// Guarantees:
//   * run_batch results are bit-identical to resolving each scenario's
//     CostBackend and calling run() directly (for "bpvec" scenarios,
//     that is bit-identical to a sequential sim::Simulator loop), for
//     any thread count and any cache configuration. Each job is a pure
//     function of its Scenario; cached layer results are exact copies
//     and assemble() is a pure fold, so reassembly cannot drift.
//   * Results come back in input order, one per input scenario, even
//     when the caches deduplicate the actual pricing work.
//
// Thread safety: concurrent run_batch/stats/clear_cache calls on one
// engine are safe (see tests/test_sim_engine.cpp racing test and
// tests/test_cache_shards.cpp stress test). Both memo caches are
// lock-striped into kCacheShards shards keyed by fingerprint bits
// (src/engine/cache_shards.h), so concurrent sessions and the parallel
// probe phases stop contending on global locks. The scenario counters
// are tallied per shard under the same shard locks and summed by
// stats(); each scenario's ticks land on one shard, so the summed
// snapshot still satisfies the engine invariant (see cache_shards.h for
// the counter contract). Layer counters stay relaxed atomics.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "src/backend/cost_backend.h"
#include "src/common/json.h"
#include "src/engine/cache_shards.h"
#include "src/engine/disk_cache.h"
#include "src/engine/scenario.h"
#include "src/engine/thread_pool.h"
#include "src/sim/simulator.h"

namespace bpvec::engine {

struct EngineStats {
  std::size_t scenarios_submitted = 0;
  std::size_t simulations_run = 0;  // actual backend run invocations
  std::size_t cache_hits = 0;       // served from the scenario cache
  std::size_t layers_priced = 0;    // actual price_layer invocations
  std::size_t layer_cache_hits = 0; // layers served from the layer cache
  /// Simulations assembled as a delta: at least one layer came from the
  /// layer cache (or from another scenario in the same batch) instead of
  /// being re-priced. delta_scenarios <= simulations_run.
  std::size_t delta_scenarios = 0;
  // Disk-cache counters (all zero when no disk cache is configured).
  // Per engine: simulations_run + cache_hits + disk_hits ==
  // scenarios_submitted once every run_batch has returned.
  std::size_t disk_hits = 0;        // scenarios served from disk
  std::size_t disk_misses = 0;      // probed but absent
  std::size_t disk_rejected = 0;    // corrupt or stale entries skipped
  std::size_t disk_stores = 0;      // fresh results persisted
  std::size_t disk_store_failures = 0;  // refused/failed persists
  std::size_t disk_file_opens = 0;  // shard files opened (scan + seals)
  // Packed weight-plane cache counters (kernels::WeightPlaneCache — the
  // functional backend's persistent probe-weight memo). The cache is
  // process-wide, so these are process totals snapshotted per engine;
  // they are monotone like every other counter, which keeps the serve
  // layer's before/after delta semantics exact. Zero unless functional
  // scenarios have been priced.
  std::size_t weight_cache_hits = 0;
  std::size_t weight_cache_misses = 0;
  // Phase timers (seconds of wall clock, accumulated per batch): where a
  // search actually spends its time. construct_s is fed by callers that
  // build Scenarios for the engine (ScenarioEvaluator's materialize
  // pass, via record_construct_seconds); the rest are run_batch's own
  // phases: fingerprint hashing, serial cache planning, backend pricing
  // (disk probes + layer pricing), and per-scenario reassembly.
  double construct_s = 0.0;
  double hash_s = 0.0;
  double plan_s = 0.0;
  double price_s = 0.0;
  double assemble_s = 0.0;
};

/// Counters as a JSON object (the BENCH_*.json "engine_stats" block and
/// the CLI report's "stats" block share this shape).
common::json::Value to_json(const EngineStats& stats);

/// Field-wise difference of two snapshots of one engine: the work done
/// between them. This is how a serving Session attributes engine work to
/// a single request on a shared warm engine (snapshot before, snapshot
/// after, subtract). All counters are monotone, so with serial requests
/// the delta is exact; concurrent requests' deltas overlap (each request
/// sees every counter tick that landed between its two snapshots). The
/// phase timers subtract too — exact when `before` is the zero state
/// (the batch CLI's fresh-engine case), approximate otherwise (floating
/// accumulation).
EngineStats operator-(const EngineStats& after, const EngineStats& before);

struct EngineOptions {
  int num_threads = 0;              // <= 0: hardware concurrency
  bool cache_enabled = true;        // scenario-level result memoization
  bool layer_cache_enabled = true;  // layer-granular memoization
  /// Non-empty: persist scenario results under this directory and serve
  /// repeats from it across processes (created on demand).
  std::string disk_cache_dir{};
};

class SimEngine {
 public:
  explicit SimEngine(EngineOptions options = {});

  /// Prices every scenario through its cost backend, in parallel, and
  /// returns results in input order. Duplicate fingerprints within the
  /// batch (and across batches, while the cache lives) price once and
  /// fan back out.
  std::vector<sim::RunResult> run_batch(const std::vector<Scenario>& batch);

  /// Single-scenario convenience (still consults/feeds the caches).
  sim::RunResult run(const Scenario& scenario);

  /// Counter snapshot, safe to call concurrently with run_batch. Shard
  /// tallies are read one shard lock at a time; every scenario's ticks
  /// live on a single shard, so the summed counters still satisfy the
  /// engine invariant (see cache_shards.h).
  EngineStats stats() const;

  /// Per-shard scenario-counter snapshot (exposed for the shard stress
  /// test, which asserts the counter invariant per shard, not just in
  /// aggregate).
  std::array<ScenarioShardCounters, kCacheShards> scenario_shard_counters()
      const;

  /// Drops both in-memory caches (scenario and layer). The disk cache is
  /// untouched — it belongs to the directory, not the engine; delete the
  /// directory to invalidate it. Counters are preserved (they describe
  /// work done, not cache contents).
  void clear_cache();

  int num_threads() const { return pool_.num_threads(); }
  ThreadPool& pool() { return pool_; }

  /// The persistent cache layer, or nullptr when not configured.
  const DiskCache* disk_cache() const { return disk_.get(); }

  /// Adds caller-side Scenario construction time to the construct_s
  /// phase timer (ScenarioEvaluator reports its materialize pass here so
  /// one EngineStats block carries the whole dispatch-cost split).
  void record_construct_seconds(double seconds);

  /// Runs fn(0..n-1) on the pool at the batch grain — the engine's one
  /// scheduling policy, shared with callers that fan their own work out
  /// (dse::GeometryEvaluator). A single unit skips the pool (the run()
  /// fast path: no queue round-trip for one job).
  void for_each(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  /// Indices per pool task for a batch of `jobs` parallel units:
  /// jobs / (threads × 4), so each worker has ~4 stealable tasks.
  std::size_t batch_grain(std::size_t jobs) const;

  ThreadPool pool_;
  bool cache_enabled_;
  bool layer_cache_enabled_;
  std::unique_ptr<DiskCache> disk_;  // null when not configured

  // Striped scenario cache + per-shard counter tallies (cache_shards.h).
  // When the scenario cache is disabled no fingerprints exist, so all
  // counter ticks land on shard 0.
  ScenarioCacheShards scenario_cache_;

  // Phase timers accumulate under their own lock — they are batch-scoped
  // wall-clock sums, not per-scenario ticks, so they never belonged to a
  // fingerprint shard.
  struct PhaseTimers {
    double construct_s = 0.0;
    double hash_s = 0.0;
    double plan_s = 0.0;
    double price_s = 0.0;
    double assemble_s = 0.0;
  };
  mutable std::mutex timer_mu_;
  PhaseTimers timers_;

  // Striped layer cache: reader-writer locked per shard (hits only probe
  // + copy), stored by value — LayerResults are small (a RunResult is
  // bulky and stays behind a shared_ptr above).
  LayerCacheShards layer_cache_;
  std::atomic<std::size_t> layers_priced_{0};
  std::atomic<std::size_t> layer_cache_hits_{0};
};

}  // namespace bpvec::engine
