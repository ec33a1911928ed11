#include "src/cli/report.h"

#include <cmath>
#include <utility>

#include "src/cli/manifest.h"
#include "src/common/error.h"
#include "src/engine/disk_cache.h"
#include "src/kernels/simd.h"

namespace bpvec::cli {

using common::json::Value;

namespace {

Value scenario_row(const engine::Scenario& scenario,
                   const sim::RunResult& r) {
  Value row = Value::object();
  row.set("id", scenario.id);
  row.set("backend", r.backend);
  row.set("platform", r.platform);
  row.set("network", r.network);
  row.set("memory", r.memory);
  row.set("total_cycles", r.total_cycles);
  row.set("total_macs", r.total_macs);
  row.set("runtime_s", r.runtime_s);
  row.set("energy_j", r.energy_j);
  row.set("average_power_w", r.average_power_w);
  row.set("gops_per_s", r.gops_per_s);
  row.set("gops_per_w", r.gops_per_w);
  // Measured fields exist only for backends that execute (the functional
  // backend's packed probes); modeled-only rows keep the historical
  // shape, so reports from manifests without functional scenarios stay
  // byte-identical (the determinism contract tests/test_goldens holds).
  if (r.measured_macs > 0) {
    row.set("measured_wall_s", r.measured_wall_s);
    row.set("measured_macs", r.measured_macs);
  }
  return row;
}

/// Typed knob map for one candidate (integer knobs as JSON ints).
Value knobs_json(const dse::ParamSpace& space, const dse::Candidate& c) {
  Value knobs = Value::object();
  for (std::size_t a = 0; a < space.num_axes(); ++a) {
    const dse::Knob knob = space.axes()[a].knob;
    const double v = space.value(c, a);
    if (dse::knob_is_integer(knob)) {
      knobs.set(dse::to_string(knob),
                static_cast<std::int64_t>(std::llround(v)));
    } else {
      knobs.set(dse::to_string(knob), v);
    }
  }
  return knobs;
}

Value metrics_json(const dse::Evaluation& e) {
  BPVEC_CHECK(e.result != nullptr);
  const sim::RunResult& r = *e.result;
  Value m = Value::object();
  m.set("total_cycles", r.total_cycles);
  m.set("total_macs", r.total_macs);
  m.set("runtime_s", r.runtime_s);
  m.set("energy_j", r.energy_j);
  m.set("average_power_w", r.average_power_w);
  m.set("gops_per_s", r.gops_per_s);
  m.set("gops_per_w", r.gops_per_w);
  m.set("mac_power", e.design.cost.power_total());
  m.set("mac_area", e.design.cost.area_total());
  m.set("utilization", e.design.mix_utilization);
  m.set("core_area_um2", e.core_area_um2);
  return m;
}

}  // namespace

Value build_report(const std::string& manifest_name,
                   const std::vector<engine::Scenario>& batch,
                   const std::vector<sim::RunResult>& results,
                   const engine::EngineStats& stats, bool include_stats) {
  BPVEC_CHECK(batch.size() == results.size());
  Value report = Value::object();
  report.set("manifest", manifest_name);
  report.set("scenario_count", batch.size());
  Value scenarios = Value::array();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    scenarios.push_back(scenario_row(batch[i], results[i]));
  }
  report.set("scenarios", std::move(scenarios));
  if (include_stats) report.set("stats", engine::to_json(stats));
  return report;
}

Value build_search_report(const std::string& manifest_name,
                          const SearchSpec& spec,
                          const dse::ParamSpace& space,
                          const dse::SearchOutcome& outcome,
                          const engine::EngineStats& stats,
                          bool include_stats) {
  Value report = Value::object();
  report.set("manifest", manifest_name);
  report.set("mode", "search");
  report.set("search", to_json(spec));
  report.set("space_size", space.size());
  report.set("candidates", outcome.candidates);
  report.set("unique_candidates", outcome.unique_candidates);
  report.set("infeasible", outcome.infeasible);
  report.set("frontier_size", outcome.frontier.size());
  Value frontier = Value::array();
  for (const dse::Evaluation& e : outcome.frontier.sorted()) {
    Value entry = Value::object();
    entry.set("id", e.id);
    entry.set("knobs", knobs_json(space, e.candidate));
    Value objectives = Value::object();
    for (std::size_t i = 0; i < outcome.objectives.size(); ++i) {
      objectives.set(dse::to_string(outcome.objectives[i].metric),
                     e.objectives[i]);
    }
    entry.set("objectives", std::move(objectives));
    entry.set("metrics", metrics_json(e));
    frontier.push_back(std::move(entry));
  }
  report.set("frontier", std::move(frontier));
  // Per-strategy provenance: how the non-exhaustive strategies were
  // driven, so a report is reproducible without the manifest file. Grid
  // has none (the space itself is the full provenance), which also keeps
  // pre-existing grid-search reports byte-stable.
  if (spec.strategy != "grid") {
    Value sb = Value::object();
    sb.set("name", spec.strategy);
    sb.set("seed", static_cast<std::int64_t>(spec.seed));
    if (spec.budget > 0) {
      sb.set("budget", static_cast<std::int64_t>(spec.budget));
    }
    sb.set("budget_consumed", outcome.candidates);
    if (spec.strategy == "hill_climb" || spec.strategy == "annealing") {
      sb.set("restarts", static_cast<std::int64_t>(spec.restarts));
    }
    if (spec.strategy == "genetic") {
      sb.set("population", static_cast<std::int64_t>(spec.population));
    }
    report.set("strategy", std::move(sb));
  }
  if (include_stats) report.set("stats", engine::to_json(stats));
  return report;
}

Value version_json() {
  Value v = Value::object();
  v.set("name", "bpvec");
  v.set("simd_variant", kernels::simd_variant());
  v.set("disk_cache_format_version", engine::DiskCache::kFormatVersion);
#if defined(__VERSION__)
  v.set("compiler", __VERSION__);
#else
  v.set("compiler", "unknown");
#endif
#if defined(NDEBUG)
  v.set("build", "release");
#else
  v.set("build", "debug");
#endif
  v.set("cxx_standard", static_cast<std::int64_t>(__cplusplus));
  return v;
}

}  // namespace bpvec::cli
