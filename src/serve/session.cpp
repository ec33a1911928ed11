#include "src/serve/session.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>
#include <vector>

#include "src/backend/backend_registry.h"
#include "src/cli/report.h"
#include "src/common/error.h"
#include "src/dse/strategy.h"
#include "src/workload/generators.h"
#include "src/workload/network_registry.h"
#include "src/workload/schema.h"

namespace bpvec::serve {

namespace {

using SteadyClock = std::chrono::steady_clock;

double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

}  // namespace

Session::Session(SessionOptions options) : options_(std::move(options)) {}

engine::SimEngine& Session::engine() {
  std::lock_guard<std::mutex> lock(mu_);
  if (engine_ == nullptr) {
    engine::EngineOptions engine_options;
    engine_options.num_threads = options_.threads;
    engine_options.disk_cache_dir = options_.cache_dir;
    engine_ = std::make_unique<engine::SimEngine>(engine_options);
  }
  return *engine_;
}

engine::EngineStats Session::fleet_stats() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (engine_ == nullptr) return {};
  }
  // The engine, once constructed, lives as long as the session; taking
  // its stats outside the session lock avoids holding two locks at once.
  return engine_->stats();
}

void Session::register_network_file(const std::string& path) {
  dnn::Network net = workload::load_network(path);
  std::string key = net.name();
  workload::NetworkRegistry::instance().register_network(std::move(key),
                                                         std::move(net));
}

std::future<Response> Session::submit(std::function<Response()> work) {
  auto task =
      std::make_shared<std::packaged_task<Response()>>(std::move(work));
  std::future<Response> future = task->get_future();
  engine().pool().submit([task] { (*task)(); });
  return future;
}

void Session::record(const char* op, const Response& response) {
  std::lock_guard<std::mutex> lock(mu_);
  OpCounters& c = history_[op];
  if (response.cancelled) {
    ++c.cancelled;
  } else {
    ++c.completed;
  }
  c.total_wall_s += response.wall_s;
  c.last_wall_s = response.wall_s;
  c.max_wall_s = std::max(c.max_wall_s, response.wall_s);
}

Response Session::price(const PriceRequest& request, CancelToken token) {
  const auto start = SteadyClock::now();
  const cli::Manifest& manifest = request.manifest;
  if (manifest.grids.empty()) {
    throw Error("manifest \"" + manifest.name +
                "\" has no grids (send a search request for its \"search\" "
                "block)");
  }
  // expand() registers the manifest's declared workloads (idempotently)
  // before any token resolves — same as the batch CLI always did.
  std::vector<engine::Scenario> scenarios = cli::expand(manifest);
  engine::SimEngine& eng = engine();
  const engine::EngineStats before = eng.stats();

  Response response;
  std::vector<sim::RunResult> results;
  results.reserve(scenarios.size());
  const std::size_t chunk =
      request.chunk > 0 ? request.chunk : options_.price_chunk;
  for (std::size_t i = 0; i < scenarios.size(); i += chunk) {
    if (token.cancelled()) {
      response.cancelled = true;
      break;
    }
    const std::size_t n = std::min(chunk, scenarios.size() - i);
    if (i == 0 && n == scenarios.size()) {
      // Whole batch in one engine call: the common case (and the batch
      // CLI's historical behavior) — no sub-range copies.
      results = eng.run_batch(scenarios);
      break;
    }
    const std::vector<engine::Scenario> part(scenarios.begin() + i,
                                             scenarios.begin() + i + n);
    std::vector<sim::RunResult> priced = eng.run_batch(part);
    for (sim::RunResult& r : priced) results.push_back(std::move(r));
  }

  response.fleet = eng.stats();
  response.delta = response.fleet - before;
  if (!response.cancelled) {
    response.report =
        cli::build_report(manifest.name, scenarios, results, response.delta,
                          !request.deterministic_report);
    response.scenarios = std::move(scenarios);
    response.results = std::move(results);
  }
  response.wall_s = seconds_since(start);
  record("price", response);
  return response;
}

Response Session::search(const SearchRequest& request, CancelToken token) {
  const auto start = SteadyClock::now();
  const cli::Manifest& manifest = request.manifest;
  if (!manifest.search.has_value()) {
    throw Error("manifest \"" + manifest.name + "\" has no \"search\" block");
  }
  // Declared workloads may be the search's base network.
  (void)cli::register_workloads(manifest);
  const cli::SearchSpec& spec = *manifest.search;
  const dse::ParamSpace space = cli::search_space(spec);
  engine::Scenario base = cli::search_base_scenario(spec);
  engine::SimEngine& eng = engine();
  const engine::EngineStats before = eng.stats();

  dse::StrategyOptions strategy_options;
  strategy_options.budget = spec.budget;
  strategy_options.restarts = spec.restarts;
  strategy_options.population = spec.population;
  strategy_options.seed = spec.seed;
  strategy_options.objectives = spec.objectives;
  auto strategy = dse::make_strategy(spec.strategy, space,
                                     std::move(strategy_options));
  dse::ScenarioEvaluator evaluator(eng, space, std::move(base),
                                   spec.objectives, spec.mix,
                                   spec.constraints, spec.workload);
  dse::SearchOptions search_options;
  search_options.budget = spec.budget;
  search_options.should_stop = [token] { return token.cancelled(); };
  dse::SearchOutcome outcome = dse::run_search(*strategy, evaluator,
                                               spec.objectives,
                                               search_options);

  Response response;
  response.fleet = eng.stats();
  response.delta = response.fleet - before;
  if (token.cancelled()) {
    response.cancelled = true;
  } else {
    response.report =
        cli::build_search_report(manifest.name, spec, space, outcome,
                                 response.delta,
                                 !request.deterministic_report);
    response.search = std::move(outcome);
  }
  response.wall_s = seconds_since(start);
  record("search", response);
  return response;
}

Response Session::validate(const ValidateRequest& request) {
  const auto start = SteadyClock::now();
  const cli::Manifest& manifest = request.manifest;
  Response response;
  std::ostringstream out;
  if (request.search) {
    if (!manifest.search.has_value()) {
      throw Error("manifest \"" + manifest.name +
                  "\" has no \"search\" block");
    }
    (void)cli::register_workloads(manifest);
    const cli::SearchSpec& spec = *manifest.search;
    const dse::ParamSpace space = cli::search_space(spec);
    const engine::Scenario base = cli::search_base_scenario(spec);
    out << "Manifest: " << manifest.name << " (search)\n"
        << "space: " << space.size() << " candidates over "
        << space.num_axes() << " axes\nstrategy: " << spec.strategy;
    if (spec.budget > 0) out << ", budget " << spec.budget;
    if (spec.strategy == "hill_climb" || spec.strategy == "annealing") {
      out << ", restarts " << spec.restarts;
    }
    if (spec.strategy == "genetic") {
      out << ", population " << spec.population;
    }
    out << "\nbase scenario: " << base.id << "\nmanifest OK\n";
  } else {
    if (manifest.grids.empty()) {
      throw Error("manifest \"" + manifest.name + "\" has no grids");
    }
    response.scenarios = cli::expand(manifest);
    out << "Manifest: " << manifest.name << "\n"
        << manifest.grids.size() << " grids, " << response.scenarios.size()
        << " scenarios\nmanifest OK\n";
  }
  response.text = out.str();
  response.wall_s = seconds_since(start);
  record("validate", response);
  return response;
}

Response Session::list() {
  const auto start = SteadyClock::now();
  std::ostringstream out;
  auto line = [&](const char* what, const std::vector<std::string>& tokens) {
    out << what;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      out << (i == 0 ? "" : ", ") << tokens[i];
    }
    out << "\n";
  };
  line("backends:            ", backend::BackendRegistry::instance().keys());
  line("platforms:           ", cli::platform_tokens());
  line("memories:            ", cli::memory_tokens());
  line("bitwidth_modes:      ", cli::bitwidth_mode_tokens());
  line("networks:            ",
       workload::NetworkRegistry::instance().tokens());
  line("workload_generators: ", workload::generator_tokens());
  line("search_knobs:        ", dse::knob_tokens());
  line("metrics:             ", dse::metric_tokens());
  line("strategies:          ", dse::strategy_tokens());
  out << "\nNetwork/platform/memory/mode tokens match case- and "
         "separator-insensitively;\nbackend keys are exact registry "
         "strings. A grid's \"networks\" axis also accepts\nthe meta "
         "tokens \"all\" (the six Table I models) and \"workloads\" "
         "(every network\nthe manifest's \"workloads\" block declares)."
         "\n";
  Response response;
  response.text = out.str();
  response.wall_s = seconds_since(start);
  record("list", response);
  return response;
}

common::json::Value Session::stats_json() {
  using common::json::Value;
  const engine::EngineStats fleet = fleet_stats();
  Value v = Value::object();
  Value requests = Value::object();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [op, c] : history_) {
      Value o = Value::object();
      o.set("completed", c.completed);
      o.set("cancelled", c.cancelled);
      o.set("total_wall_s", c.total_wall_s);
      o.set("last_wall_s", c.last_wall_s);
      o.set("max_wall_s", c.max_wall_s);
      requests.set(op, std::move(o));
    }
  }
  v.set("requests", std::move(requests));
  v.set("fleet", engine::to_json(fleet));
  auto rate = [](std::size_t hits, std::size_t total) {
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  };
  Value rates = Value::object();
  rates.set("scenario_memo",
            rate(fleet.cache_hits, fleet.scenarios_submitted));
  rates.set("layer_memo",
            rate(fleet.layer_cache_hits,
                 fleet.layer_cache_hits + fleet.layers_priced));
  rates.set("disk", rate(fleet.disk_hits, fleet.disk_hits + fleet.disk_misses));
  rates.set("weight_plane",
            rate(fleet.weight_cache_hits,
                 fleet.weight_cache_hits + fleet.weight_cache_misses));
  v.set("cache_hit_rates", std::move(rates));
  // Disk-cache shard/size gauges (operator visibility: how many shard
  // files the warm path rides, whether a compaction is due, whether
  // stores are failing). Present only once the engine has a disk cache.
  const engine::DiskCache* disk = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (engine_ != nullptr) disk = engine_->disk_cache();
  }
  if (disk != nullptr) {
    const engine::DiskCacheStats d = disk->stats();
    Value dc = Value::object();
    dc.set("shards", d.shards);
    dc.set("records", d.records);
    dc.set("file_opens", d.file_opens);
    dc.set("hits", d.hits);
    dc.set("misses", d.misses);
    dc.set("rejected", d.rejected);
    dc.set("stores", d.stores);
    dc.set("store_failures", d.store_failures);
    v.set("disk_cache", std::move(dc));
  }
  return v;
}

}  // namespace bpvec::serve
