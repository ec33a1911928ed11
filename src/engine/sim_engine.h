// SimEngine — the parallel batch simulation engine.
//
// The paper's evaluation is a pile of embarrassingly parallel scenario
// matrices (Figs. 5–9's platform×network×memory grids — now × cost
// backend: the Fig. 9 GPU roofline and the Fig. 1 bit-serial baselines
// ride the same batch as the cycle simulator). Fig. 4's α×L sweep is
// closed-form cost-model pricing and does not run on the engine.
// SimEngine prices whole batches at once on a ThreadPool (one FIFO queue)
// behind up to three caches:
//
//   * scenario memo — keyed by Scenario::fingerprint, which names the
//     backend by its registry key (a key names one factory for the life
//     of the process); repeated design points price once. Fingerprints
//     are structural on the workload axis (names excluded), so a JSON
//     copy of a zoo network dedupes against the builtin; run_batch
//     restores each scenario's own network/layer labels on the way out.
//   * layer memo — only for backends whose memoize_layers() is true
//     (analytical ones price a layer faster than a lookup and call
//     CostBackend::run). Keyed by backend × layer shape/bits
//     fingerprint: each batch prices every unique missing layer key
//     once and assembles its scenarios from the shared results, so a
//     neighbor that differs in one axis re-prices only the layers that
//     axis changed (delta pricing; see EngineStats::delta_scenarios).
//   * disk cache (optional, EngineOptions::disk_cache_dir) — persistent
//     scenario-level results keyed by Scenario::fingerprint × the
//     resolved backend instance's fingerprint, below the memos: probed
//     only for scenarios the scenario memo misses, and fed back into it
//     on hit. Survives the process — warm `bpvec_run --cache-dir`
//     replays serve whole grids without simulating (see
//     src/engine/disk_cache.h for the format-version and atomicity
//     story).
//
// Guarantees:
//   * run_batch results are bit-identical to resolving each scenario's
//     CostBackend and calling run() directly (for "bpvec" scenarios,
//     that is bit-identical to a sequential sim::Simulator loop), for
//     any thread count and any cache state. Each job is a pure function
//     of its Scenario; cached layer results are exact copies and
//     assemble() is a pure fold, so reassembly cannot drift.
//   * Results come back in input order, one per input scenario, even
//     when the caches deduplicate the actual pricing work.
//
// Thread safety: concurrent run_batch/stats/clear_cache calls on one
// engine are safe (see tests/test_sim_engine.cpp racing test and
// tests/test_cache_shards.cpp stress test). Both memo caches are
// common::Memo maps, each behind one reader-writer lock. The engine's
// counters are one EngineStats record behind one mutex: a batch commits
// its submissions and scenario-memo hits at plan time and the rest of
// its work once at the end, and stats() copies the record and reads the
// disk cache's counters under that lock. A batch probes the disk cache
// only after its plan commit, so every snapshot satisfies
// scenarios_submitted >= cache_hits + simulations_run + disk_hits.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/backend/cost_backend.h"
#include "src/common/json.h"
#include "src/common/memo.h"
#include "src/common/thread_pool.h"
#include "src/engine/disk_cache.h"
#include "src/engine/scenario.h"
#include "src/sim/simulator.h"

namespace bpvec::engine {

struct EngineStats {
  std::size_t scenarios_submitted = 0;
  std::size_t simulations_run = 0;  // actual backend run invocations
  std::size_t cache_hits = 0;       // served from the scenario cache
  std::size_t layers_priced = 0;    // actual price_layer invocations
  std::size_t layer_cache_hits = 0; // layers served from the layer memo
  /// Simulations assembled as a delta: at least one layer came from the
  /// layer memo (or from another scenario in the same batch) instead of
  /// being re-priced. delta_scenarios <= simulations_run.
  std::size_t delta_scenarios = 0;
  // Disk-cache counters (all zero when no disk cache is configured).
  // Per engine: simulations_run + cache_hits + disk_hits ==
  // scenarios_submitted once every run_batch has returned.
  std::size_t disk_hits = 0;        // scenarios served from disk
  std::size_t disk_misses = 0;      // probed but absent
  std::size_t disk_rejected = 0;    // corrupt records, foreign shards
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
  // (disk probes + pricing), and per-scenario reassembly.
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
  /// Pool workers; <= 0: hardware concurrency. The calling thread
  /// computes too (ThreadPool::parallel_for), so num_threads + 1 chunks
  /// can run at once.
  int num_threads = 0;
  /// Non-empty: persist scenario results under this directory and serve
  /// repeats from it across processes (created on demand).
  std::string disk_cache_dir{};
};

class SimEngine {
 public:
  /// Memo caps (a full memo clears, see common::Memo): far above the
  /// largest committed batch, engine_scaling's ~1.3k scenarios.
  static constexpr std::size_t kMaxScenarioEntries = 8192;
  static constexpr std::size_t kMaxLayerEntries = 65536;

  explicit SimEngine(EngineOptions options = {});

  /// Prices every scenario through its cost backend, in parallel, and
  /// returns results in input order. Duplicate fingerprints within the
  /// batch (and across batches, while the cache lives) price once and
  /// fan back out.
  std::vector<sim::RunResult> run_batch(const std::vector<Scenario>& batch);

  /// Single-scenario convenience (still consults/feeds the caches).
  sim::RunResult run(const Scenario& scenario);

  /// Counter snapshot, safe to call concurrently with run_batch; it
  /// satisfies the engine invariant (see the thread safety note above).
  EngineStats stats() const;

  /// Drops both in-memory memos (scenario and layer). The disk cache is
  /// untouched — it belongs to the directory, not the engine; delete the
  /// directory to invalidate it. Counters are preserved (they describe
  /// work done, not cache contents).
  void clear_cache();

  int num_threads() const { return pool_.num_threads(); }
  common::ThreadPool& pool() { return pool_; }

  /// The persistent cache layer, or nullptr when not configured.
  const DiskCache* disk_cache() const { return disk_.get(); }

  /// Adds caller-side Scenario construction time to the construct_s
  /// phase timer (ScenarioEvaluator reports its materialize pass here so
  /// one EngineStats block carries the whole dispatch-cost split).
  void record_construct_seconds(double seconds);

 private:
  /// Runs fn(0..n-1) on the pool at the batch grain — the schedule of
  /// every run_batch phase. A single unit runs on the caller (see
  /// ThreadPool::parallel_for).
  void for_each(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Indices per parallel_for chunk for a batch of `jobs` parallel units:
  /// jobs / (threads × 4), so each worker claims ~4 chunks.
  std::size_t batch_grain(std::size_t jobs) const;

  /// Adds every field of `work` to stats_ under stats_mu_.
  void commit(const EngineStats& work);

  // Before pool_: scan shards before threads start (growing the fd table
  // of a threaded process waits in synchronize_rcu).
  std::unique_ptr<DiskCache> disk_;  // null when not configured
  common::ThreadPool pool_;

  // Scenario cache: Scenario::fingerprint → shared result.
  common::Memo<std::shared_ptr<const sim::RunResult>> scenario_cache_{
      kMaxScenarioEntries};
  // Layer memo, stored by value — LayerResults are small (a RunResult
  // is bulky and stays behind a shared_ptr above).
  common::Memo<sim::LayerResult> layer_cache_{kMaxLayerEntries};

  // The engine's own counters and phase timers. The disk and weight-plane
  // fields stay zero here; stats() reads them from their caches.
  mutable std::mutex stats_mu_;
  EngineStats stats_;
};

}  // namespace bpvec::engine
