// Warm-path throughput: what a repeated grid replay costs under the
// packed-shard disk cache and the in-memory memo caches.
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
//      scenario-cache probe) reported for both. The memo caches sit
//      behind one reader-writer lock each; plan_s must not grow with
//      the thread count.
//
//   3. Shard bound — the grid sealed one scenario per batch, three times
//      over, through a threaded engine's disk cache into a fresh dir.
//      Seals merge past DiskCache::kMaxShards, so CI asserts
//      shard_bound_shards_end <= 8 (one shard per seal without the
//      merge). shard_bound_replay_ratio is a fresh threaded engine's
//      construction + warm replay over that dir, over the same on the
//      one-shard dir of section 1. It is printed, not gated: a process
//      never shrinks its fd table, so a ratio measured inside one process
//      cannot reproduce the stall a fresh process pays for many shards.
//
//   4. Cache open — distinct keys of the ci_gate results sealed one grid
//      per batch into a fresh dir of about 2 MB (merging past the shard
//      bound, as a search does). cache_open_ms is the min over reps of
//      constructing a DiskCache over it: the directory scan that
//      checksums every record. cache_read_ms is the min of a plain pread
//      of the same files into one reused buffer, run in the same
//      alternating reps; cache_open_vs_read is their ratio. CI prints
//      them without gating until CI hosts have shown their spread.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/backend/backend_registry.h"
#include "src/cli/manifest.h"
#include "src/common/binio.h"
#include "src/common/hash.h"
#include "src/engine/disk_cache.h"

namespace {

using namespace bpvec;

/// The ci_gate manifest: argv[1], or the one beside this source file
/// (so the bench runs from any directory).
std::string find_manifest(int argc, char** argv) {
  if (argc > 1) return argv[1];
  return (std::filesystem::path(__FILE__).parent_path() / "manifests" /
          "ci_gate.json")
      .string();
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

/// Wall seconds to construct a fresh threaded engine over `dir` and
/// replay `scenarios` once; the replay's results land in `results`.
double open_and_replay_s(const std::vector<engine::Scenario>& scenarios,
                         const std::string& dir,
                         std::vector<sim::RunResult>& results,
                         std::size_t* sims) {
  engine::EngineOptions options;
  options.disk_cache_dir = dir;
  std::optional<engine::SimEngine> eng;
  const double wall_s = bench::time_s([&] {
    eng.emplace(options);
    results = eng->run_batch(scenarios);
  });
  *sims += eng->stats().simulations_run;
  return wall_s;
}

/// Wall seconds to read every file in `paths` whole, with pread, into
/// `buf` (sized for the largest beforehand).
double read_files_s(const std::vector<std::string>& paths, std::string& buf) {
  return bench::time_s([&] {
    for (const std::string& path : paths) {
      const int fd = ::open(path.c_str(), O_RDONLY);
      BPVEC_CHECK_MSG(fd >= 0, "cannot open " + path);
      const auto size =
          static_cast<std::size_t>(std::filesystem::file_size(path));
      std::size_t got = 0;
      while (got < size) {
        const ssize_t n = ::pread(fd, buf.data() + got, size - got,
                                  static_cast<off_t>(got));
        BPVEC_CHECK_MSG(n > 0, "cannot read " + path);
        got += static_cast<std::size_t>(n);
      }
      ::close(fd);
    }
  });
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
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
  // plan_s probes the scenario memo serially under its reader lock; it
  // must stay flat as threads scale. At 4 threads one lock measured
  // the same as 16 lock stripes, which is why the memo is not striped.
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

  // ----- 3. shard bound ------------------------------------------------
  // Re-sealing a record needs the engine's own disk key (run_batch never
  // stores a disk hit), so derive it the way run_batch does. A replay
  // that simulates anything means the two disagree.
  const std::string bound_dir = (scratch / "bound").string();
  std::size_t seals = 0;
  {
    engine::EngineOptions options;
    options.disk_cache_dir = bound_dir;
    const engine::SimEngine sealer(options);
    auto& registry = backend::BackendRegistry::instance();
    for (int pass = 0; pass < 3; ++pass) {
      for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const engine::Scenario& s = scenarios[i];
        const std::uint64_t key = common::hash_combine(
            s.fingerprint(),
            registry.create(s.backend, s.platform, s.memory)->fingerprint());
        seals += sealer.disk_cache()->store(key, cold_results[i]);
      }
    }
  }
  const std::size_t shards_end =
      engine::inspect_cache_dir(bound_dir).shards.size();
  std::vector<double> one_shard_s;
  std::vector<double> bound_s;
  std::vector<sim::RunResult> replayed;
  std::size_t replay_sims = 0;
  bool bound_identical = true;
  for (int rep = 0; rep < 5; ++rep) {
    one_shard_s.push_back(
        open_and_replay_s(scenarios, cache_dir, replayed, &replay_sims));
    bound_s.push_back(
        open_and_replay_s(scenarios, bound_dir, replayed, &replay_sims));
    bound_identical = bound_identical &&
                      result_bytes(replayed) == result_bytes(cold_results);
  }
  const double replay_ratio = median(bound_s) / median(one_shard_s);
  if (shards_end > engine::DiskCache::kMaxShards) {
    std::printf("ERROR: %zu seals left %zu shards (bound %zu)\n", seals,
                shards_end, engine::DiskCache::kMaxShards);
    ok = false;
  }
  if (replay_sims != 0 || !bound_identical) {
    std::printf("ERROR: the open + replay passes priced %zu "
                "simulations%s\n",
                replay_sims, bound_identical ? "" : " and differ from cold");
    ok = false;
  }
  json.add_metric("shard_bound_seals", static_cast<double>(seals));
  json.add_metric("shard_bound_shards_end", static_cast<double>(shards_end));
  json.add_metric("shard_bound_replay_ratio", replay_ratio);
  std::printf("shard bound: %zu seals -> %zu shards; open + warm replay "
              "%.2fx the one-shard dir\n",
              seals, shards_end, replay_ratio);

  // ----- 4. cache open -------------------------------------------------
  // Keys need only be distinct here: the dir is opened, never replayed.
  const std::string open_dir = (scratch / "open").string();
  std::uint64_t open_bytes = 0;
  std::size_t open_records = 0;
  {
    const engine::DiskCache sealer(open_dir);
    for (std::uint64_t pass = 0; open_bytes < 2'000'000; ++pass) {
      std::vector<engine::DiskCache::PendingStore> batch;
      for (std::size_t i = 0; i < cold_results.size(); ++i) {
        batch.push_back({common::hash_combine(pass, i), &cold_results[i]});
      }
      open_records += sealer.store_batch(batch);
      open_bytes = engine::inspect_cache_dir(open_dir).bytes_total;
    }
  }
  std::vector<std::string> open_paths;
  std::size_t largest = 0;
  for (const engine::CacheShardInfo& shard :
       engine::inspect_cache_dir(open_dir).shards) {
    open_paths.push_back(shard.path);
    largest = std::max<std::size_t>(largest, shard.bytes);
  }
  std::string read_buf(largest, '\0');
  double open_s = std::numeric_limits<double>::infinity();
  double read_s = std::numeric_limits<double>::infinity();
  std::size_t open_rejected = 0;
  for (int rep = 0; rep < 15; ++rep) {
    std::optional<engine::DiskCache> opened;
    open_s = std::min(open_s, time_s([&] { opened.emplace(open_dir); }));
    open_rejected += opened->stats().rejected;
    read_s = std::min(read_s, read_files_s(open_paths, read_buf));
  }
  if (open_rejected != 0) {
    std::printf("ERROR: opening the sealed dir rejected %zu records\n",
                open_rejected);
    ok = false;
  }
  json.add_metric("cache_open_bytes", static_cast<double>(open_bytes));
  json.add_metric("cache_open_shards", static_cast<double>(open_paths.size()));
  json.add_metric("cache_open_ms", open_s * 1e3);
  json.add_metric("cache_read_ms", read_s * 1e3);
  json.add_metric("cache_open_vs_read", open_s / read_s);
  std::printf("cache open: %zu records, %.2f MB in %zu shards: open %.3f ms, "
              "plain read %.3f ms (%.2fx)\n",
              open_records, static_cast<double>(open_bytes) / 1e6,
              open_paths.size(), open_s * 1e3, read_s * 1e3, open_s / read_s);

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
