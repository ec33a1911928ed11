#include "src/engine/sim_engine.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/backend/backend_registry.h"
#include "src/common/error.h"
#include "src/common/hash.h"
#include "src/kernels/weight_cache.h"

namespace bpvec::engine {

namespace {

using SteadyClock = std::chrono::steady_clock;

double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

}  // namespace

common::json::Value to_json(const EngineStats& stats) {
  common::json::Value v = common::json::Value::object();
  v.set("scenarios_submitted", stats.scenarios_submitted);
  v.set("simulations_run", stats.simulations_run);
  v.set("cache_hits", stats.cache_hits);
  v.set("layers_priced", stats.layers_priced);
  v.set("layer_cache_hits", stats.layer_cache_hits);
  v.set("delta_scenarios", stats.delta_scenarios);
  v.set("disk_hits", stats.disk_hits);
  v.set("disk_misses", stats.disk_misses);
  v.set("disk_rejected", stats.disk_rejected);
  v.set("disk_stores", stats.disk_stores);
  v.set("disk_store_failures", stats.disk_store_failures);
  v.set("disk_file_opens", stats.disk_file_opens);
  v.set("weight_cache_hits", stats.weight_cache_hits);
  v.set("weight_cache_misses", stats.weight_cache_misses);
  v.set("construct_s", stats.construct_s);
  v.set("hash_s", stats.hash_s);
  v.set("plan_s", stats.plan_s);
  v.set("price_s", stats.price_s);
  v.set("assemble_s", stats.assemble_s);
  return v;
}

EngineStats operator-(const EngineStats& after, const EngineStats& before) {
  EngineStats d;
  d.scenarios_submitted = after.scenarios_submitted - before.scenarios_submitted;
  d.simulations_run = after.simulations_run - before.simulations_run;
  d.cache_hits = after.cache_hits - before.cache_hits;
  d.layers_priced = after.layers_priced - before.layers_priced;
  d.layer_cache_hits = after.layer_cache_hits - before.layer_cache_hits;
  d.delta_scenarios = after.delta_scenarios - before.delta_scenarios;
  d.disk_hits = after.disk_hits - before.disk_hits;
  d.disk_misses = after.disk_misses - before.disk_misses;
  d.disk_rejected = after.disk_rejected - before.disk_rejected;
  d.disk_stores = after.disk_stores - before.disk_stores;
  d.disk_store_failures = after.disk_store_failures - before.disk_store_failures;
  d.disk_file_opens = after.disk_file_opens - before.disk_file_opens;
  d.weight_cache_hits = after.weight_cache_hits - before.weight_cache_hits;
  d.weight_cache_misses = after.weight_cache_misses - before.weight_cache_misses;
  d.construct_s = after.construct_s - before.construct_s;
  d.hash_s = after.hash_s - before.hash_s;
  d.plan_s = after.plan_s - before.plan_s;
  d.price_s = after.price_s - before.price_s;
  d.assemble_s = after.assemble_s - before.assemble_s;
  return d;
}

SimEngine::SimEngine(EngineOptions options)
    : disk_(options.disk_cache_dir.empty()
                ? nullptr
                : std::make_unique<DiskCache>(options.disk_cache_dir)),
      pool_(options.num_threads) {}

std::size_t SimEngine::batch_grain(std::size_t jobs) const {
  // ~4 chunks per worker: micro-scale jobs amortize the claim overhead
  // while load balancing still has slack.
  const std::size_t lanes = static_cast<std::size_t>(pool_.num_threads()) * 4;
  return std::max<std::size_t>(1, jobs / std::max<std::size_t>(1, lanes));
}

void SimEngine::for_each(std::size_t n,
                         const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (n == 1) {
    // run() and tiny batches skip the pool entirely: no helper task, no
    // queue round-trip, no wake. Identical semantics (parallel_for
    // runs caller-side too and rethrows the same exceptions).
    fn(0);
    return;
  }
  pool_.parallel_for(n, fn, batch_grain(n));
}

void SimEngine::record_construct_seconds(double seconds) {
  std::lock_guard<std::mutex> lock(timer_mu_);
  timers_.construct_s += seconds;
}

std::vector<sim::RunResult> SimEngine::run_batch(
    const std::vector<Scenario>& batch) {
  std::vector<sim::RunResult> results(batch.size());
  if (batch.empty()) return results;

  // Snapshot each backend key's factory once per batch, so jobs construct
  // outside the registry lock. Scenarios the caches serve never construct
  // a backend at all. Unknown backend keys fail loudly here, before any
  // pricing.
  auto t_phase = SteadyClock::now();
  auto& registry = backend::BackendRegistry::instance();
  std::unordered_map<std::string, backend::BackendFactory> factories;
  for (const Scenario& s : batch) {
    if (factories.count(s.backend) == 0) {
      factories.emplace(s.backend, registry.resolve(s.backend));
    }
  }
  double plan_s = seconds_since(t_phase);

  // Scenario fingerprints key the scenario memo (a backend key names one
  // factory for the life of the process). They are pure per-scenario
  // work — hash them on the pool so the cache feature doesn't serialize
  // the parallel region. Each scenario hashes its whole network here,
  // O(layers) apiece.
  t_phase = SteadyClock::now();
  std::vector<std::uint64_t> prints(batch.size());
  for_each(batch.size(),
           [&](std::size_t i) { prints[i] = batch[i].fingerprint(); });
  const double hash_s = seconds_since(t_phase);

  // Plan: resolve each scenario against the cache, keeping only the first
  // occurrence of each fingerprint as a real job; later occurrences alias
  // the job's slot.
  struct Slot {
    bool cached = false;
    std::size_t job = 0;  // index into `jobs` when !cached
  };
  std::vector<Slot> slots(batch.size());
  std::vector<std::size_t> jobs;  // batch indices that actually price
  std::vector<std::shared_ptr<const sim::RunResult>> hits(batch.size());

  t_phase = SteadyClock::now();
  // Submissions are counted before any hit or simulation of this batch
  // (the counter order stats() relies on).
  scenarios_submitted_ += batch.size();
  // Serial in-input-order probe + dedup: a cache hit or an in-batch
  // duplicate of an earlier miss is a hit; the rest become jobs.
  std::size_t batch_hits = 0;
  std::unordered_map<std::uint64_t, std::size_t> first_job;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (auto hit = scenario_cache_.find(prints[i])) {
      hits[i] = std::move(*hit);
      slots[i].cached = true;
      ++batch_hits;
      continue;
    }
    if (auto it = first_job.find(prints[i]); it != first_job.end()) {
      slots[i].job = it->second;  // duplicate within this batch
      ++batch_hits;
      continue;
    }
    first_job.emplace(prints[i], jobs.size());
    slots[i].job = jobs.size();
    jobs.push_back(i);
  }
  cache_hits_ += batch_hits;
  plan_s += seconds_since(t_phase);

  // Pricing pipeline over the unique jobs, in four phases. Each job
  // constructs and owns its backend instance. A job whose backend does
  // not memoize layers prices with be->run(network) in phase 1; the
  // rest go through the layer memo (phases 2–4), whose cached layer
  // results are exact copies and whose assemble() is a pure fold, so
  // every result is bit-identical to a direct be->run(network) for any
  // cache state, any thread count, and any batch composition. The disk
  // cache sits below the scenario memo: only memo misses probe it, a hit
  // skips pricing entirely (the loaded result is bit-identical by the
  // DiskCache contract), and a miss prices then persists.
  struct JobState {
    std::unique_ptr<backend::CostBackend> be;
    bool disk_served = false;
    bool memoized = false;  // prices through the layer memo (phases 2–4)
    bool delta = false;     // assembled with at least one cached layer
    std::uint64_t disk_key = 0;
    std::vector<std::uint64_t> keys;       // per-layer memo keys
    std::vector<sim::LayerResult> layers;  // assembled per-layer results
    /// (layer index, unique-miss index) pairs still needing a price.
    std::vector<std::pair<std::size_t, std::size_t>> need;
  };
  std::vector<JobState> state(jobs.size());
  std::vector<std::shared_ptr<const sim::RunResult>> fresh(jobs.size());
  std::atomic<std::size_t> probe_hits{0};

  // Phase 1 — per job: construct the backend, probe the disk cache, then
  // either price the whole network directly or probe the layer memo for
  // every layer key (pool threads probe concurrently under the memo's
  // reader lock).
  t_phase = SteadyClock::now();
  for_each(jobs.size(), [&](std::size_t j) {
    const std::size_t i = jobs[j];
    const Scenario& s = batch[i];
    JobState& js = state[j];
    js.be = factories.at(s.backend)(s.platform, s.memory);
    BPVEC_CHECK_MSG(js.be != nullptr,
                    "backend factory returned null for: " + s.backend);
    if (disk_ != nullptr) {
      // Key: scenario fingerprint × this backend instance's own
      // fingerprint — both stable across processes, and the latter
      // covers every pricing knob of the instance.
      js.disk_key = common::hash_combine(prints[i], js.be->fingerprint());
      if (auto cached = disk_->load(js.disk_key)) {
        results[i] = *cached;
        js.disk_served = true;
        // Reuse the loaded copy as the scenario memo's shared entry —
        // no second deep copy of the layer vector per warm scenario.
        fresh[j] = std::move(cached);
        return;
      }
    }
    const auto& net_layers = s.network.layers();
    if (!js.be->memoize_layers()) {
      layers_priced_.fetch_add(net_layers.size(), std::memory_order_relaxed);
      results[i] = js.be->run(s.network);
      fresh[j] = std::make_shared<const sim::RunResult>(results[i]);
      return;
    }
    js.memoized = true;
    const std::uint64_t be_print = js.be->fingerprint();
    js.keys.resize(net_layers.size());
    js.layers.resize(net_layers.size());
    for (std::size_t k = 0; k < net_layers.size(); ++k) {
      js.keys[k] = js.be->layer_key(be_print, net_layers[k]);
      if (auto hit = layer_cache_.find(js.keys[k])) {
        js.layers[k] = std::move(*hit);
        // The fingerprint deliberately ignores names so ResNet's
        // repeated blocks share an entry; restore this layer's own.
        js.layers[k].name = net_layers[k].name;
        continue;
      }
      js.need.emplace_back(k, 0);
    }
    probe_hits.fetch_add(net_layers.size() - js.need.size(),
                         std::memory_order_relaxed);
  });
  double price_s = seconds_since(t_phase);

  // Phase 2 — serial dedup: collect the unique missing layer keys across
  // the batch's memoizing jobs. A key shared by several jobs (a net_depth
  // sweep's common prefix, repeated blocks across candidates) prices
  // exactly once — this is what makes a warm neighbor a *delta*: only the
  // layers its changed axis actually touched are re-priced.
  t_phase = SteadyClock::now();
  struct MissRef {
    std::size_t job;
    std::size_t layer;
  };
  std::vector<MissRef> unique;
  std::vector<std::size_t> memo_jobs;  // indices into `jobs`
  std::size_t aliased = 0;
  std::unordered_map<std::uint64_t, std::size_t> owner;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    JobState& js = state[j];
    if (!js.memoized) continue;
    memo_jobs.push_back(j);
    std::size_t owned = 0;
    for (auto& [layer, miss] : js.need) {
      const std::uint64_t key = js.keys[layer];
      auto it = owner.find(key);
      if (it == owner.end()) {
        it = owner.emplace(key, unique.size()).first;
        unique.push_back({j, layer});
        ++owned;
      } else {
        ++aliased;
      }
      miss = it->second;
    }
    // Fewer layers priced here than the network has = a delta assembly
    // (the rest came from the memo or a batch sibling).
    js.delta = owned < js.keys.size();
  }
  plan_s += seconds_since(t_phase);

  // Phase 3 — price the unique misses in parallel at *layer*
  // granularity (balances uneven networks better than per-scenario
  // fan-out), then publish them to the layer memo. Which backend
  // instance prices a shared key is irrelevant: equal keys mean equal
  // backend and layer fingerprints, and fingerprints cover every pricing
  // knob.
  t_phase = SteadyClock::now();
  std::vector<sim::LayerResult> priced(unique.size());
  if (!unique.empty()) {
    for_each(unique.size(), [&](std::size_t u) {
      const MissRef ref = unique[u];
      const Scenario& s = batch[jobs[ref.job]];
      priced[u] =
          state[ref.job].be->price_layer(s.network.layers()[ref.layer]);
    });
    layers_priced_.fetch_add(unique.size(), std::memory_order_relaxed);
    for (std::size_t u = 0; u < unique.size(); ++u) {
      layer_cache_.insert(state[unique[u].job].keys[unique[u].layer],
                          priced[u]);
    }
  }
  layer_cache_hits_.fetch_add(
      probe_hits.load(std::memory_order_relaxed) + aliased,
      std::memory_order_relaxed);
  price_s += seconds_since(t_phase);

  // Phase 4 — assemble each memoizing job from its cached + freshly
  // priced layers and make the scenario memo's shared copy. Fresh
  // results are persisted in one store_batch afterwards: the whole batch
  // seals a single new shard file instead of writing one file per
  // scenario.
  t_phase = SteadyClock::now();
  for_each(memo_jobs.size(), [&](std::size_t m) {
    const std::size_t j = memo_jobs[m];
    const std::size_t i = jobs[j];
    const Scenario& s = batch[i];
    JobState& js = state[j];
    const auto& net_layers = s.network.layers();
    for (const auto& [layer, miss] : js.need) {
      js.layers[layer] = priced[miss];
      js.layers[layer].name = net_layers[layer].name;
    }
    results[i] = js.be->assemble(s.network, std::move(js.layers));
    fresh[j] = std::make_shared<const sim::RunResult>(results[i]);
  });
  if (disk_ != nullptr) {
    std::vector<DiskCache::PendingStore> pending;
    pending.reserve(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (state[j].disk_served) continue;
      // `results` is sized once up front, so the pointers stay stable
      // for the duration of the call.
      pending.push_back(
          DiskCache::PendingStore{state[j].disk_key, &results[jobs[j]]});
    }
    if (!pending.empty()) disk_->store_batch(pending);
  }

  // Fan cached/duplicate slots out from the shared copies (usually few).
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (slots[i].cached) {
      results[i] = *hits[i];
    } else if (jobs[slots[i].job] != i) {
      results[i] = *fresh[slots[i].job];  // in-batch duplicate
    }
  }

  // Scenario fingerprints are structural (workload::network_fingerprint
  // excludes names), so a cache or disk hit may carry the labels of a
  // structurally identical network priced earlier. Restore each
  // scenario's own network/layer names — for freshly priced scenarios
  // this rewrites the values the backend already set, so every result is
  // bit-identical to a direct run of its own scenario.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const dnn::Network& net = batch[i].network;
    results[i].network = net.name();
    if (results[i].layers.size() == net.layers().size()) {
      for (std::size_t k = 0; k < results[i].layers.size(); ++k) {
        results[i].layers[k].name = net.layers()[k].name;
      }
    }
  }
  const double assemble_s = seconds_since(t_phase);

  // Accounted after the fact so disk-served jobs don't inflate
  // simulations_run; counters lag work, so a mid-batch snapshot still
  // sees simulations_run + cache_hits <= scenarios_submitted.
  std::size_t batch_sims = 0;
  std::size_t batch_deltas = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (!state[j].disk_served) ++batch_sims;
    if (state[j].delta) ++batch_deltas;
    scenario_cache_.insert(prints[jobs[j]], std::move(fresh[j]));
  }
  simulations_run_ += batch_sims;
  delta_scenarios_ += batch_deltas;
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    timers_.hash_s += hash_s;
    timers_.plan_s += plan_s;
    timers_.price_s += price_s;
    timers_.assemble_s += assemble_s;
  }
  return results;
}

sim::RunResult SimEngine::run(const Scenario& scenario) {
  return run_batch({scenario}).front();
}

EngineStats SimEngine::stats() const {
  EngineStats s;
  // Read order: disk counters, then hits, simulations and deltas, then
  // scenarios_submitted last. Every hit, simulation or disk hit is
  // ticked after its scenario's submission, so whatever this snapshot
  // sees of the former, it sees the submissions behind them — keeping
  // scenarios_submitted >= cache_hits + simulations_run + disk_hits at
  // every instant. The reverse order could catch a tick whose
  // submission it missed.
  if (disk_ != nullptr) {
    const DiskCacheStats d = disk_->stats();
    s.disk_hits = d.hits;
    s.disk_misses = d.misses;
    s.disk_rejected = d.rejected;
    s.disk_stores = d.stores;
    s.disk_store_failures = d.store_failures;
    s.disk_file_opens = d.file_opens;
  }
  s.cache_hits = cache_hits_.load();
  s.simulations_run = simulations_run_.load();
  s.delta_scenarios = delta_scenarios_.load();
  s.scenarios_submitted = scenarios_submitted_.load();
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    s.construct_s = timers_.construct_s;
    s.hash_s = timers_.hash_s;
    s.plan_s = timers_.plan_s;
    s.price_s = timers_.price_s;
    s.assemble_s = timers_.assemble_s;
  }
  s.layers_priced = layers_priced_.load(std::memory_order_relaxed);
  s.layer_cache_hits = layer_cache_hits_.load(std::memory_order_relaxed);
  s.weight_cache_hits = kernels::WeightPlaneCache::instance().hits();
  s.weight_cache_misses = kernels::WeightPlaneCache::instance().misses();
  return s;
}

void SimEngine::clear_cache() {
  scenario_cache_.clear();
  layer_cache_.clear();
}

}  // namespace bpvec::engine
