#include "src/engine/sim_engine.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/backend/backend_registry.h"
#include "src/common/clock.h"
#include "src/common/error.h"
#include "src/common/hash.h"
#include "src/kernels/weight_cache.h"

namespace bpvec::engine {

namespace {

using common::seconds_since;
using common::SteadyClock;

/// Calls fn(json_key, &EngineStats::field) for every field, in report
/// order. to_json, operator- and SimEngine::commit walk this one list,
/// so a new counter is added to the struct and here.
template <typename Fn>
void for_each_field(Fn&& fn) {
  fn("scenarios_submitted", &EngineStats::scenarios_submitted);
  fn("simulations_run", &EngineStats::simulations_run);
  fn("cache_hits", &EngineStats::cache_hits);
  fn("layers_priced", &EngineStats::layers_priced);
  fn("layer_cache_hits", &EngineStats::layer_cache_hits);
  fn("delta_scenarios", &EngineStats::delta_scenarios);
  fn("disk_hits", &EngineStats::disk_hits);
  fn("disk_misses", &EngineStats::disk_misses);
  fn("disk_rejected", &EngineStats::disk_rejected);
  fn("disk_stores", &EngineStats::disk_stores);
  fn("disk_store_failures", &EngineStats::disk_store_failures);
  fn("disk_file_opens", &EngineStats::disk_file_opens);
  fn("weight_cache_hits", &EngineStats::weight_cache_hits);
  fn("weight_cache_misses", &EngineStats::weight_cache_misses);
  fn("construct_s", &EngineStats::construct_s);
  fn("hash_s", &EngineStats::hash_s);
  fn("plan_s", &EngineStats::plan_s);
  fn("price_s", &EngineStats::price_s);
  fn("assemble_s", &EngineStats::assemble_s);
}

}  // namespace

common::json::Value to_json(const EngineStats& stats) {
  common::json::Value v = common::json::Value::object();
  for_each_field(
      [&](const char* key, auto field) { v.set(key, stats.*field); });
  return v;
}

EngineStats operator-(const EngineStats& after, const EngineStats& before) {
  EngineStats d;
  for_each_field([&](const char*, auto field) {
    d.*field = after.*field - before.*field;
  });
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
  pool_.parallel_for(n, fn, batch_grain(n));
}

void SimEngine::commit(const EngineStats& work) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  for_each_field([&](const char*, auto field) {
    stats_.*field += work.*field;
  });
}

void SimEngine::record_construct_seconds(double seconds) {
  EngineStats work;
  work.construct_s = seconds;
  commit(work);
}

std::vector<sim::RunResult> SimEngine::run_batch(
    const std::vector<Scenario>& batch) {
  std::vector<sim::RunResult> results(batch.size());
  if (batch.empty()) return results;

  // Snapshot each backend key's factory once per batch, so jobs construct
  // outside the registry lock. Scenarios the caches serve never construct
  // a backend at all. Unknown backend keys fail loudly here, before any
  // pricing. `work` collects this batch's share of the engine's counters;
  // it is committed once, at the end.
  EngineStats work;
  auto t_phase = SteadyClock::now();
  auto& registry = backend::BackendRegistry::instance();
  std::unordered_map<std::string, backend::BackendFactory> factories;
  for (const Scenario& s : batch) {
    if (factories.count(s.backend) == 0) {
      factories.emplace(s.backend, registry.resolve(s.backend));
    }
  }
  work.plan_s = seconds_since(t_phase);

  // Scenario fingerprints key the scenario memo (a backend key names one
  // factory for the life of the process). They are pure per-scenario
  // work — hash them on the pool so the cache feature doesn't serialize
  // the parallel region. Each scenario hashes its whole network here,
  // O(layers) apiece.
  t_phase = SteadyClock::now();
  std::vector<std::uint64_t> prints(batch.size());
  for_each(batch.size(),
           [&](std::size_t i) { prints[i] = batch[i].fingerprint(); });
  work.hash_s = seconds_since(t_phase);

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
  // Serial in-input-order probe + dedup: a cache hit or an in-batch
  // duplicate of an earlier miss is a hit; the rest become jobs.
  EngineStats planned;
  planned.scenarios_submitted = batch.size();
  std::unordered_map<std::uint64_t, std::size_t> first_job;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (auto hit = scenario_cache_.find(prints[i])) {
      hits[i] = std::move(*hit);
      slots[i].cached = true;
      ++planned.cache_hits;
      continue;
    }
    if (auto it = first_job.find(prints[i]); it != first_job.end()) {
      slots[i].job = it->second;  // duplicate within this batch
      ++planned.cache_hits;
      continue;
    }
    first_job.emplace(prints[i], jobs.size());
    slots[i].job = jobs.size();
    jobs.push_back(i);
  }
  // Committed before any disk probe of this batch, so a snapshot never
  // sees a disk hit without its submission.
  commit(planned);
  work.plan_s += seconds_since(t_phase);

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
  });
  work.price_s = seconds_since(t_phase);

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
  work.plan_s += seconds_since(t_phase);

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
    for (std::size_t u = 0; u < unique.size(); ++u) {
      layer_cache_.insert(state[unique[u].job].keys[unique[u].layer],
                          priced[u]);
    }
  }
  work.price_s += seconds_since(t_phase);

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
  work.assemble_s = seconds_since(t_phase);

  // Accounted after the fact so disk-served jobs don't inflate
  // simulations_run. A layer is priced once per unique miss, or once per
  // layer of a job priced directly; every other layer came from the memo
  // or a batch sibling.
  work.layers_priced = unique.size();
  work.layer_cache_hits = aliased;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const JobState& js = state[j];
    if (!js.disk_served) ++work.simulations_run;
    if (js.delta) ++work.delta_scenarios;
    if (js.memoized) {
      work.layer_cache_hits += js.keys.size() - js.need.size();
    } else if (!js.disk_served) {
      work.layers_priced += batch[jobs[j]].network.layers().size();
    }
    scenario_cache_.insert(prints[jobs[j]], std::move(fresh[j]));
  }
  commit(work);
  return results;
}

sim::RunResult SimEngine::run(const Scenario& scenario) {
  return run_batch({scenario}).front();
}

EngineStats SimEngine::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  EngineStats s = stats_;
  if (disk_ != nullptr) {
    const DiskCacheStats d = disk_->stats();
    s.disk_hits = d.hits;
    s.disk_misses = d.misses;
    s.disk_rejected = d.rejected;
    s.disk_stores = d.stores;
    s.disk_store_failures = d.store_failures;
    s.disk_file_opens = d.file_opens;
  }
  s.weight_cache_hits = kernels::WeightPlaneCache::instance().hits();
  s.weight_cache_misses = kernels::WeightPlaneCache::instance().misses();
  return s;
}

void SimEngine::clear_cache() {
  scenario_cache_.clear();
  layer_cache_.clear();
}

}  // namespace bpvec::engine
