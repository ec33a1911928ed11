// Shared helpers for the figure/table reproduction binaries: table
// formatting glue, a wall-clock timer, and machine-readable
// BENCH_<name>.json emission so the perf trajectory is tracked across PRs.
#pragma once

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/arch/dram.h"
#include "src/common/error.h"
#include "src/common/json.h"
#include "src/common/mathutil.h"
#include "src/common/table.h"
#include "src/dnn/model_zoo.h"
#include "src/engine/scenario.h"
#include "src/engine/sim_engine.h"
#include "src/sim/simulator.h"

namespace bpvec::bench {

/// Runs `net` on `config` + `mem` and returns the result.
inline sim::RunResult run(const sim::AcceleratorConfig& config,
                          const arch::DramModel& mem,
                          const dnn::Network& net) {
  return sim::Simulator(config, mem).run(net);
}

/// Wall-clock seconds of fn().
template <typename Fn>
double time_s(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Accumulates one benchmark's machine-readable record and writes it to
/// `BENCH_<name>.json` in the working directory. Schema:
///   {"bench": ...,
///    "engine_stats": {simulations_run, cache_hits, layer counters...},
///    "scenarios": [{"id": ..., "backend": ..., numeric fields...}, ...],
///    "metrics": {...}}
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  /// One simulated scenario row (cycles, energy, throughput).
  void add_result(const std::string& id, const sim::RunResult& r) {
    common::json::Value row = common::json::Value::object();
    row.set("id", id);
    row.set("platform", r.platform);
    row.set("network", r.network);
    row.set("memory", r.memory);
    row.set("backend", r.backend);
    row.set("total_cycles", r.total_cycles);
    row.set("total_macs", r.total_macs);
    row.set("runtime_s", r.runtime_s);
    row.set("energy_j", r.energy_j);
    row.set("gops_per_s", r.gops_per_s);
    row.set("gops_per_w", r.gops_per_w);
    scenarios_.push_back(std::move(row));
  }

  /// Generic row for non-simulation scenarios (e.g. Fig. 4 design points).
  void add_entry(
      const std::string& id,
      const std::vector<std::pair<std::string, double>>& fields) {
    common::json::Value row = common::json::Value::object();
    row.set("id", id);
    for (const auto& [key, value] : fields) row.set(key, value);
    scenarios_.push_back(std::move(row));
  }

  /// Named summary metric (geomeans, crossover points, …).
  void add_metric(const std::string& key, double value) {
    metrics_.set(key, value);
  }

  /// String-valued metric (e.g. the runtime-selected SIMD variant).
  void add_metric(const std::string& key, const std::string& value) {
    metrics_.set(key, value);
  }

  /// Engine counters after the batch — lets the perf trajectory attribute
  /// speedups to scenario-level vs layer-level vs disk caching.
  void set_engine_stats(const engine::EngineStats& stats) {
    engine_stats_ = stats;
    has_engine_stats_ = true;
  }

  /// Writes BENCH_<name>.json (and says so on stdout).
  void write() const {
    using common::json::Value;
    Value doc = Value::object();
    doc.set("bench", name_);
    if (has_engine_stats_) doc.set("engine_stats", to_json(engine_stats_));
    Value scenarios = Value::array();
    for (const Value& row : scenarios_) scenarios.push_back(row);
    doc.set("scenarios", std::move(scenarios));
    doc.set("metrics", metrics_);

    const std::string path = "BENCH_" + name_ + ".json";
    std::ofstream out(path);
    out << doc.dump(1);
    out.flush();  // surface disk errors before declaring success
    if (out.good()) {
      std::printf("[bench] wrote %s\n", path.c_str());
    } else {
      std::printf("[bench] WARNING: could not write %s\n", path.c_str());
    }
  }

 private:
  std::string name_;
  std::vector<common::json::Value> scenarios_;
  common::json::Value metrics_ = common::json::Value::object();
  engine::EngineStats engine_stats_;
  bool has_engine_stats_ = false;
};

/// Prices `batch` through the engine, records every scenario plus the
/// engine stats in `json`, and returns the results.
inline std::vector<sim::RunResult> price_batch(
    engine::SimEngine& eng, const std::vector<engine::Scenario>& batch,
    BenchJson& json) {
  std::vector<sim::RunResult> results = eng.run_batch(batch);
  json.set_engine_stats(eng.stats());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    json.add_result(batch[i].id, results[i]);
  }
  return results;
}

/// Speedup of b over a in cycles (a is the reference/denominator design).
inline double speedup(const sim::RunResult& reference,
                      const sim::RunResult& candidate) {
  return static_cast<double>(reference.total_cycles) /
         static_cast<double>(candidate.total_cycles);
}

}  // namespace bpvec::bench
