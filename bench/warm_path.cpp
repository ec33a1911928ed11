// Warm-path throughput: what a repeated grid replay costs under the
// packed-shard disk cache and the striped memo caches.
//
// Two measurements over the ci_gate manifest (the CI regression grid),
// emitted as BENCH_warm_path.json:
//
//   1. Cold vs warm replay — the grid priced on a fresh engine with a
//      fresh cache dir (cold), then on a second fresh engine over the
//      same dir (warm disk), then again on that engine (warm memo).
//      The warm disk pass must price ZERO simulations and open at most
//      2 cache files (the cold batch seals ONE shard). Results must be
//      byte-identical (as packed run_result_encode records) across the
//      passes. CI asserts warm_simulations == 0 and
//      warm_disk_file_opens <= 2.
//
//   2. Lock-contention proxy — the warm-memo replay at 1 thread and at
//      hardware concurrency, with the engine's serial plan_s phase (the
//      only phase that holds shard locks) reported for both. With
//      striped caches plan_s must not grow with the thread count.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/cli/manifest.h"
#include "src/common/binio.h"
#include "src/engine/disk_cache.h"

namespace {

using namespace bpvec;

/// The ci_gate manifest, from argv[1] or the usual run directories
/// (repo root, build/, build/bench/).
std::string find_manifest(int argc, char** argv) {
  if (argc > 1) return argv[1];
  const char* candidates[] = {
      "bench/manifests/ci_gate.json",
      "../bench/manifests/ci_gate.json",
      "../../bench/manifests/ci_gate.json",
  };
  for (const char* path : candidates) {
    if (std::filesystem::exists(path)) return path;
  }
  throw Error(
      "cannot find bench/manifests/ci_gate.json (pass the path as argv[1])");
}

/// Serialized form used for the byte-identity self-check across passes:
/// the packed record body the disk cache stores (bit-exact doubles).
std::string result_bytes(const std::vector<sim::RunResult>& results) {
  common::binio::Writer w;
  for (const sim::RunResult& r : results) engine::run_result_encode(w, r);
  return w.take();
}

/// Wall seconds of one warm run_batch on a fresh engine over `dir`.
double warm_replay_s(const std::vector<engine::Scenario>& scenarios,
                     const std::string& dir, int threads,
                     engine::EngineStats* stats_out) {
  engine::EngineOptions options;
  options.num_threads = threads;
  options.disk_cache_dir = dir;
  engine::SimEngine eng(options);
  const double wall_s =
      bench::time_s([&] { (void)eng.run_batch(scenarios); });
  *stats_out = eng.stats();
  return wall_s;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bpvec;
  using namespace bpvec::bench;
  namespace fs = std::filesystem;

  BenchJson json("warm_path");
  bool ok = true;

  const cli::Manifest manifest = cli::load_manifest(find_manifest(argc, argv));
  const std::vector<engine::Scenario> scenarios = cli::expand(manifest);
  const double n = static_cast<double>(scenarios.size());
  std::printf("warm path: %zu ci_gate scenarios\n", scenarios.size());

  // Scratch dir under the working directory; removed before the cold
  // pass and again on exit, so reruns start cold.
  const fs::path scratch = "bench_warm_path.tmp";
  fs::remove_all(scratch);
  fs::create_directories(scratch);
  const std::string cache_dir = (scratch / "cache").string();

  // ----- 1. cold vs warm replay ---------------------------------------
  engine::EngineStats cold;
  std::vector<sim::RunResult> cold_results;
  const double cold_s = [&] {
    engine::EngineOptions options;
    options.disk_cache_dir = cache_dir;
    engine::SimEngine eng(options);
    const double s =
        time_s([&] { cold_results = eng.run_batch(scenarios); });
    cold = eng.stats();
    return s;
  }();

  engine::EngineStats warm;
  std::vector<sim::RunResult> warm_results;
  double warm_memo_s = 0.0;
  engine::EngineStats warm_memo;
  const double warm_s = [&] {
    engine::EngineOptions options;
    options.disk_cache_dir = cache_dir;
    engine::SimEngine eng(options);
    const double s = time_s([&] { warm_results = eng.run_batch(scenarios); });
    warm = eng.stats();
    warm_memo_s = time_s([&] { (void)eng.run_batch(scenarios); });
    warm_memo = eng.stats();
    return s;
  }();

  const std::size_t warm_sims = warm.simulations_run;
  const std::size_t warm_opens = warm.disk_file_opens;
  const std::size_t memo_sims = warm_memo.simulations_run - warm_sims;
  const bool identical = result_bytes(cold_results) ==
                         result_bytes(warm_results);
  if (warm_sims != 0) {
    std::printf("ERROR: warm disk replay priced %zu simulations "
                "(expected 0)\n",
                warm_sims);
    ok = false;
  }
  if (warm_opens > 2) {
    std::printf("ERROR: warm disk replay opened %zu cache files "
                "(expected <= 2)\n",
                warm_opens);
    ok = false;
  }
  if (memo_sims != 0) {
    std::printf("ERROR: warm memo replay priced %zu simulations\n", memo_sims);
    ok = false;
  }
  if (!identical) {
    std::printf("ERROR: warm results are not byte-identical to cold\n");
    ok = false;
  }

  json.add_metric("scenarios", n);
  json.add_metric("cold_wall_s", cold_s);
  json.add_metric("warm_disk_wall_s", warm_s);
  json.add_metric("warm_memo_wall_s", warm_memo_s);
  json.add_metric("cold_scenarios_per_s", cold_s > 0 ? n / cold_s : 0.0);
  json.add_metric("warm_disk_scenarios_per_s", warm_s > 0 ? n / warm_s : 0.0);
  json.add_metric("warm_memo_scenarios_per_s",
                  warm_memo_s > 0 ? n / warm_memo_s : 0.0);
  json.add_metric("warm_simulations", static_cast<double>(warm_sims));
  json.add_metric("warm_disk_file_opens", static_cast<double>(warm_opens));
  json.add_metric("cold_disk_file_opens",
                  static_cast<double>(cold.disk_file_opens));
  json.add_metric("warm_disk_hits", static_cast<double>(warm.disk_hits));
  json.add_metric("disk_store_failures",
                  static_cast<double>(cold.disk_store_failures +
                                      warm.disk_store_failures));
  json.add_metric("results_byte_identical", identical ? 1.0 : 0.0);
  json.set_engine_stats(warm);

  Table t1("ci_gate replay (" + std::to_string(scenarios.size()) +
           " scenarios)");
  t1.set_header({"Pass", "Wall s", "Scen/s", "Simulated", "File opens"});
  t1.add_row({"cold", Table::num(cold_s, 3),
              Table::num(cold_s > 0 ? n / cold_s : 0.0, 0),
              std::to_string(cold.simulations_run),
              std::to_string(cold.disk_file_opens)});
  t1.add_row({"warm disk", Table::num(warm_s, 3),
              Table::num(warm_s > 0 ? n / warm_s : 0.0, 0),
              std::to_string(warm_sims), std::to_string(warm_opens)});
  t1.add_row({"warm memo", Table::num(warm_memo_s, 3),
              Table::num(warm_memo_s > 0 ? n / warm_memo_s : 0.0, 0),
              std::to_string(memo_sims), "0"});
  t1.print();

  // ----- 2. lock-contention proxy -------------------------------------
  // plan_s is the only phase that takes shard locks serially; with the
  // striped caches it must stay flat as threads scale (it used to sit
  // behind one global mutex).
  engine::EngineStats warm_1t;
  const double warm_1t_s = warm_replay_s(scenarios, cache_dir, 1, &warm_1t);
  engine::EngineStats warm_nt;
  const double warm_nt_s = warm_replay_s(scenarios, cache_dir, 0, &warm_nt);
  const int hw_threads = engine::SimEngine({/*num_threads=*/0}).num_threads();
  json.add_metric("warm_wall_s_1thread", warm_1t_s);
  json.add_metric("warm_wall_s_nthreads", warm_nt_s);
  json.add_metric("threads", static_cast<double>(hw_threads));
  json.add_metric("plan_s_1thread", warm_1t.plan_s);
  json.add_metric("plan_s_nthreads", warm_nt.plan_s);
  std::printf("contention proxy: plan %.6fs at 1 thread, %.6fs at %d\n",
              warm_1t.plan_s, warm_nt.plan_s, hw_threads);

  json.add_metric("ok", ok ? 1.0 : 0.0);
  json.write();
  fs::remove_all(scratch);

  if (ok) {
    std::printf("cold %.0f scen/s, warm disk %.0f scen/s (%zu file opens), "
                "warm memo %.0f scen/s\n",
                cold_s > 0 ? n / cold_s : 0.0,
                warm_s > 0 ? n / warm_s : 0.0, warm_opens,
                warm_memo_s > 0 ? n / warm_memo_s : 0.0);
  }
  return ok ? 0 : 1;
}
