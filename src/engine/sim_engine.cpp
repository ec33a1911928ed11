#include "src/engine/sim_engine.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <shared_mutex>
#include <string>
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
    : pool_(options.num_threads),
      cache_enabled_(options.cache_enabled),
      layer_cache_enabled_(options.layer_cache_enabled),
      disk_(options.disk_cache_dir.empty()
                ? nullptr
                : std::make_unique<DiskCache>(options.disk_cache_dir)) {}

std::size_t SimEngine::batch_grain(std::size_t jobs) const {
  // ~4 stealable tasks per worker: micro-scale jobs amortize queue
  // overhead while load balancing still has slack.
  const std::size_t lanes = static_cast<std::size_t>(pool_.num_threads()) * 4;
  return std::max<std::size_t>(1, jobs / std::max<std::size_t>(1, lanes));
}

void SimEngine::for_each(std::size_t n,
                         const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (n == 1) {
    // run() and tiny batches skip the pool entirely: no task allocation,
    // no queue round-trip, no wake. Identical semantics (parallel_for
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

  // Snapshot each backend key's (factory, generation) once per batch.
  // Cache keys fold the generation into the scenario hash (which
  // already covers the backend id + platform + memory + network), and
  // jobs construct from the snapshotted factory — so a re-registration,
  // even one racing this batch, can neither serve stale results nor
  // cache one registration's numbers under another's stamp. Scenarios
  // the cache serves never construct a backend at all. Unknown backend
  // keys fail loudly here, before any pricing.
  auto t_phase = SteadyClock::now();
  auto& registry = backend::BackendRegistry::instance();
  std::unordered_map<std::string, backend::BackendRegistry::Resolved>
      resolved;
  std::vector<std::uint64_t> generations(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    auto it = resolved.find(batch[i].backend);
    if (it == resolved.end()) {
      it = resolved.emplace(batch[i].backend,
                            registry.resolve(batch[i].backend)).first;
    }
    generations[i] = it->second.generation;
  }
  double plan_s = seconds_since(t_phase);

  // Scenario fingerprints are pure per-scenario work — hash them on the
  // pool so the cache feature doesn't serialize the parallel region. The
  // disk cache keys off the raw fingerprint (registry generations are
  // process-local; the disk key instead folds the backend instance's own
  // fingerprint, see below), the memo cache folds the generation in.
  // Networks memoize their structural fingerprint, so a batch of
  // candidates copied off one base scenario hashes the workload once.
  t_phase = SteadyClock::now();
  const bool need_prints = cache_enabled_ || disk_ != nullptr;
  std::vector<std::uint64_t> raw_prints(batch.size());
  std::vector<std::uint64_t> prints(batch.size());
  if (need_prints) {
    for_each(batch.size(), [&](std::size_t i) {
      raw_prints[i] = batch[i].fingerprint();
      prints[i] = common::hash_combine(raw_prints[i], generations[i]);
    });
  }
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
  if (!cache_enabled_) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      slots[i].job = jobs.size();
      jobs.push_back(i);
    }
    // No fingerprints to stripe on — all counter ticks land on shard 0
    // (cache_shards.h counter contract).
    auto& sh = scenario_cache_.shard(0);
    std::lock_guard<std::mutex> lock(sh.mu);
    sh.counters.scenarios_submitted += batch.size();
  } else {
    // Probe shard by shard: bucket the batch by fingerprint shard and
    // take each touched shard's lock exactly once, counting submissions
    // and hits under it (submitted before hits — the per-shard counter
    // invariant). Concurrent batches touching disjoint shards never
    // contend.
    std::array<std::vector<std::size_t>, kCacheShards> by_shard;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      by_shard[cache_shard_of(prints[i])].push_back(i);
    }
    std::vector<char> found(batch.size(), 0);
    for (std::size_t s = 0; s < kCacheShards; ++s) {
      if (by_shard[s].empty()) continue;
      auto& sh = scenario_cache_.shard(s);
      std::lock_guard<std::mutex> lock(sh.mu);
      sh.counters.scenarios_submitted += by_shard[s].size();
      for (const std::size_t i : by_shard[s]) {
        if (auto it = sh.map.find(prints[i]); it != sh.map.end()) {
          hits[i] = it->second;
          found[i] = 1;
          ++sh.counters.cache_hits;
        }
      }
    }
    // Serial in-input-order dedup of the misses; an in-batch duplicate
    // is a cache hit on its fingerprint's shard (applied in one more
    // locking round below so the dedup itself stays lock-free).
    std::array<std::size_t, kCacheShards> dup_hits{};
    std::unordered_map<std::uint64_t, std::size_t> first_job;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (found[i]) {
        slots[i].cached = true;
        continue;
      }
      if (auto it = first_job.find(prints[i]); it != first_job.end()) {
        slots[i].job = it->second;  // duplicate within this batch
        ++dup_hits[cache_shard_of(prints[i])];
        continue;
      }
      first_job.emplace(prints[i], jobs.size());
      slots[i].job = jobs.size();
      jobs.push_back(i);
    }
    for (std::size_t s = 0; s < kCacheShards; ++s) {
      if (dup_hits[s] == 0) continue;
      auto& sh = scenario_cache_.shard(s);
      std::lock_guard<std::mutex> lock(sh.mu);
      sh.counters.cache_hits += dup_hits[s];
    }
  }
  plan_s += seconds_since(t_phase);

  // Delta-pricing pipeline over the unique jobs, in four phases. Each
  // job constructs and owns its backend instance; cached layer results
  // are exact copies and assemble() is a pure fold, so every result is
  // bit-identical to a direct be.run(network) for any cache state, any
  // thread count, and any batch composition. The disk cache sits below
  // the memo caches: only memo misses probe it, a hit skips pricing
  // entirely (the loaded result is bit-identical by the DiskCache
  // contract), and a miss prices then persists.
  struct JobState {
    std::unique_ptr<backend::CostBackend> be;
    bool disk_served = false;
    bool delta = false;  // assembled with at least one cached layer
    std::uint64_t disk_key = 0;
    std::vector<std::uint64_t> keys;       // per-layer cache keys
    std::vector<sim::LayerResult> layers;  // assembled per-layer results
    /// (layer index, unique-miss index) pairs still needing a price.
    std::vector<std::pair<std::size_t, std::size_t>> need;
  };
  std::vector<JobState> state(jobs.size());
  std::vector<std::shared_ptr<const sim::RunResult>> fresh(
      cache_enabled_ ? jobs.size() : 0);
  std::atomic<std::size_t> probe_hits{0};

  // Phase 1 — per job: construct the backend, probe the disk cache, and
  // probe the layer cache for every layer key (one reader lock per job;
  // pool threads probe concurrently).
  t_phase = SteadyClock::now();
  for_each(jobs.size(), [&](std::size_t j) {
    const std::size_t i = jobs[j];
    const Scenario& s = batch[i];
    JobState& js = state[j];
    js.be = resolved.at(s.backend).factory(s.platform, s.memory);
    BPVEC_CHECK_MSG(js.be != nullptr,
                    "backend factory returned null for: " + s.backend);
    if (disk_ != nullptr) {
      // Key: scenario fingerprint × this backend instance's own
      // fingerprint — both stable across processes, and the latter
      // covers every pricing knob, so two registrations of one key
      // with different models can never share an entry.
      js.disk_key = common::hash_combine(raw_prints[i], js.be->fingerprint());
      if (auto cached = disk_->load(js.disk_key, generations[i])) {
        results[i] = *cached;
        js.disk_served = true;
        // Reuse the loaded copy as the memo cache's shared entry —
        // no second deep copy of the layer vector per warm scenario.
        if (cache_enabled_) fresh[j] = std::move(cached);
        return;
      }
    }
    if (!layer_cache_enabled_) return;  // phase 4 prices via be->run
    const auto& net_layers = s.network.layers();
    const std::uint64_t be_print = js.be->fingerprint();
    js.keys.resize(net_layers.size());
    js.layers.resize(net_layers.size());
    for (std::size_t k = 0; k < net_layers.size(); ++k) {
      js.keys[k] = js.be->layer_key(be_print, net_layers[k]);
    }
    for (std::size_t k = 0; k < net_layers.size(); ++k) {
      // One reader lock per key, on the key's own shard — concurrent
      // jobs probing different shards never serialize.
      auto& sh = layer_cache_.shard_for(js.keys[k]);
      std::shared_lock<std::shared_mutex> lock(sh.mu);
      if (auto it = sh.map.find(js.keys[k]); it != sh.map.end()) {
        js.layers[k] = it->second;
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
  // the whole batch. A key shared by several jobs (a net_depth sweep's
  // common prefix, repeated blocks across candidates) prices exactly
  // once — this is what makes a warm neighbor a *delta*: only the layers
  // its changed axis actually touched are re-priced.
  t_phase = SteadyClock::now();
  struct MissRef {
    std::size_t job;
    std::size_t layer;
  };
  std::vector<MissRef> unique;
  std::vector<std::uint64_t> unique_keys;
  std::size_t aliased = 0;
  if (layer_cache_enabled_) {
    std::unordered_map<std::uint64_t, std::size_t> owner;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      JobState& js = state[j];
      if (js.disk_served) continue;
      std::size_t owned = 0;
      for (auto& [layer, miss] : js.need) {
        const std::uint64_t key = js.keys[layer];
        auto it = owner.find(key);
        if (it == owner.end()) {
          it = owner.emplace(key, unique.size()).first;
          unique.push_back({j, layer});
          unique_keys.push_back(key);
          ++owned;
        } else {
          ++aliased;
        }
        miss = it->second;
      }
      // Fewer layers priced here than the network has = a delta
      // assembly (the rest came from the cache or a batch sibling).
      js.delta = owned < js.keys.size();
    }
  }
  plan_s += seconds_since(t_phase);

  // Phase 3 — price the unique misses in parallel at *layer*
  // granularity (balances uneven networks better than per-scenario
  // fan-out), then publish them to the layer cache under one writer
  // lock per batch. Which backend instance prices a shared key is
  // irrelevant: equal keys mean equal backend and layer fingerprints,
  // and fingerprints cover every pricing knob.
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
    // Publish shard by shard: bucket the fresh keys and take each
    // touched shard's writer lock exactly once per batch.
    std::array<std::vector<std::size_t>, kCacheShards> publish;
    for (std::size_t u = 0; u < unique.size(); ++u) {
      publish[cache_shard_of(unique_keys[u])].push_back(u);
    }
    for (std::size_t s = 0; s < kCacheShards; ++s) {
      if (publish[s].empty()) continue;
      auto& sh = layer_cache_.shard(s);
      std::unique_lock<std::shared_mutex> lock(sh.mu);
      for (const std::size_t u : publish[s]) {
        sh.map.emplace(unique_keys[u], priced[u]);
      }
    }
  }
  layer_cache_hits_.fetch_add(
      probe_hits.load(std::memory_order_relaxed) + aliased,
      std::memory_order_relaxed);
  price_s += seconds_since(t_phase);

  // Phase 4 — assemble each job from its cached + freshly priced layers
  // (or fully price it when the layer cache is disabled) and make the
  // scenario cache's shared copy. Fresh results are persisted in one
  // store_batch afterwards: the whole batch seals a single new shard
  // file instead of writing one file per scenario.
  t_phase = SteadyClock::now();
  for_each(jobs.size(), [&](std::size_t j) {
    const std::size_t i = jobs[j];
    const Scenario& s = batch[i];
    JobState& js = state[j];
    if (js.disk_served) return;
    if (!layer_cache_enabled_) {
      layers_priced_.fetch_add(s.network.layers().size(),
                               std::memory_order_relaxed);
      results[i] = js.be->run(s.network);
    } else {
      const auto& net_layers = s.network.layers();
      for (const auto& [layer, miss] : js.need) {
        js.layers[layer] = priced[miss];
        js.layers[layer].name = net_layers[layer].name;
      }
      results[i] = js.be->assemble(s.network, std::move(js.layers));
    }
    if (cache_enabled_) {
      fresh[j] = std::make_shared<const sim::RunResult>(results[i]);
    }
  });
  if (disk_ != nullptr) {
    std::vector<DiskCache::PendingStore> pending;
    pending.reserve(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (state[j].disk_served) continue;
      // `results` is sized once up front, so the pointers stay stable
      // for the duration of the call.
      pending.push_back(DiskCache::PendingStore{
          state[j].disk_key, generations[jobs[j]], &results[jobs[j]]});
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

  {
    // Accounted after the fact so disk-served jobs don't inflate
    // simulations_run; the mid-batch invariant simulations_run +
    // cache_hits <= scenarios_submitted still holds per shard (counters
    // lag work, and each job ticks the shard its fingerprint was
    // submitted on — shard 0 when the cache is disabled).
    std::array<std::vector<std::size_t>, kCacheShards> by_shard;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const std::size_t s =
          cache_enabled_ ? cache_shard_of(prints[jobs[j]]) : 0;
      by_shard[s].push_back(j);
    }
    for (std::size_t s = 0; s < kCacheShards; ++s) {
      if (by_shard[s].empty()) continue;
      auto& sh = scenario_cache_.shard(s);
      std::lock_guard<std::mutex> lock(sh.mu);
      for (const std::size_t j : by_shard[s]) {
        if (!state[j].disk_served) ++sh.counters.simulations_run;
        if (state[j].delta) ++sh.counters.delta_scenarios;
        if (cache_enabled_) {
          sh.map.emplace(prints[jobs[j]], std::move(fresh[j]));
        }
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    timers_.hash_s += hash_s;
    timers_.plan_s += plan_s;
    // With the layer cache off, phase 4 is full pricing, not reassembly
    // — attribute its wall time accordingly.
    if (layer_cache_enabled_) {
      timers_.price_s += price_s;
      timers_.assemble_s += assemble_s;
    } else {
      timers_.price_s += price_s + assemble_s;
    }
  }
  return results;
}

sim::RunResult SimEngine::run(const Scenario& scenario) {
  return run_batch({scenario}).front();
}

EngineStats SimEngine::stats() const {
  EngineStats s;
  // Disk counters read BEFORE the scenario tallies: a scenario's submit
  // tick precedes its disk probe, so any disk hit in this snapshot has
  // its submit included in the (later-read) shard totals — keeping the
  // mid-flight invariant scenarios_submitted >= cache_hits +
  // simulations_run + disk_hits. The reverse order could catch a probe
  // whose submit the totals missed.
  if (disk_ != nullptr) {
    const DiskCacheStats d = disk_->stats();
    s.disk_hits = d.hits;
    s.disk_misses = d.misses;
    s.disk_rejected = d.rejected;
    s.disk_stores = d.stores;
    s.disk_store_failures = d.store_failures;
    s.disk_file_opens = d.file_opens;
  }
  const ScenarioShardCounters t = scenario_cache_.totals();
  s.scenarios_submitted = t.scenarios_submitted;
  s.simulations_run = t.simulations_run;
  s.cache_hits = t.cache_hits;
  s.delta_scenarios = t.delta_scenarios;
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

std::array<ScenarioShardCounters, kCacheShards>
SimEngine::scenario_shard_counters() const {
  return scenario_cache_.per_shard();
}

void SimEngine::clear_cache() {
  scenario_cache_.clear();
  layer_cache_.clear();
}

}  // namespace bpvec::engine
