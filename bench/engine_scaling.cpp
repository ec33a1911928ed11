// Engine scaling: wall-clock speedup of SimEngine::run_batch over the
// sequential simulate loop, across thread counts, on a production-sized
// scenario matrix (every Table II platform × Table I network × both paper
// memories × a bandwidth ladder — the union of the Figs. 5–9 grids plus
// sweep densification).
//
// Also validates the determinism contract on the full matrix: the batch
// results must be bit-identical to the sequential loop at every thread
// count. Emits BENCH_engine_scaling.json with per-thread-count wall
// times and speedups so the perf trajectory is tracked across PRs.
#include <cstdio>
#include <thread>

#include "bench/bench_common.h"

namespace {

using namespace bpvec;

std::vector<engine::Scenario> build_matrix() {
  std::vector<engine::Scenario> batch;
  const double bandwidth_ladder[] = {4, 8, 16, 32, 48, 64,
                                     96, 128, 192, 256, 384, 512};
  const int batch_sizes[] = {1, 4, 16};
  for (auto mode : {dnn::BitwidthMode::kHomogeneous8b,
                    dnn::BitwidthMode::kHeterogeneous}) {
    for (const auto& net : dnn::all_models(mode)) {
      for (const auto& base_cfg :
           {sim::tpu_like_baseline(), sim::bitfusion_accelerator(),
            sim::bpvec_accelerator()}) {
        for (int bs : batch_sizes) {
          auto cfg = base_cfg;
          cfg.batch_size = bs;
          for (double bw : bandwidth_ladder) {
            arch::DramModel mem = bw <= 64 ? arch::ddr4() : arch::hbm2();
            mem.bandwidth_gbps = bw;
            mem.name = Table::num(bw, 0) + "GBps";
            batch.push_back(engine::make_scenario(
                cfg, mem, net,
                cfg.name + "/" + net.name() + "/" + to_string(mode) + "/" +
                    mem.name + "/b" + std::to_string(bs)));
          }
        }
      }
    }
  }
  return batch;
}

bool identical(const sim::RunResult& a, const sim::RunResult& b) {
  return a.total_cycles == b.total_cycles && a.energy_j == b.energy_j &&
         a.runtime_s == b.runtime_s && a.gops_per_w == b.gops_per_w;
}

}  // namespace

int main() {
  using namespace bpvec;
  using namespace bpvec::bench;

  const auto batch = build_matrix();
  std::printf("Engine scaling over %zu scenarios\n", batch.size());

  // Sequential reference (and ground truth for the identity check).
  std::vector<sim::RunResult> reference(batch.size());
  const double sequential_s = time_s([&] {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      reference[i] =
          sim::Simulator(batch[i].platform, batch[i].memory)
              .run(batch[i].network);
    }
  });

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::vector<int> thread_counts{1, 2, 4};
  if (hw > 4) thread_counts.push_back(hw);

  BenchJson json("engine_scaling");
  json.add_metric("scenarios", static_cast<double>(batch.size()));
  json.add_metric("hardware_threads", hw);
  json.add_metric("sequential_wall_s", sequential_s);

  Table t("run_batch vs sequential simulate loop");
  t.set_header({"Threads", "Cold cache", "Warm cache", "Bit-identical"});

  double best_speedup = 0.0;
  int best_threads = 1;
  bool all_identical = true;
  for (int threads : thread_counts) {
    // Fresh engine per thread count: a cold cache keeps the comparison
    // honest (every scenario actually simulates). The warm rerun shows
    // the scenario-memo payoff.
    engine::SimEngine eng({threads});
    std::vector<sim::RunResult> results;
    const double cold_s = time_s([&] { results = eng.run_batch(batch); });
    const double warm_s = time_s([&] { (void)eng.run_batch(batch); });

    bool ok = results.size() == reference.size();
    for (std::size_t i = 0; ok && i < results.size(); ++i) {
      ok = identical(results[i], reference[i]);
    }
    all_identical = all_identical && ok;

    const double cold_sp = cold_s > 0 ? sequential_s / cold_s : 0.0;
    const double warm_sp = warm_s > 0 ? sequential_s / warm_s : 0.0;
    if (cold_sp > best_speedup) {
      best_speedup = cold_sp;
      best_threads = threads;
    }
    t.add_row({std::to_string(threads), Table::ratio(cold_sp),
               Table::ratio(warm_sp), ok ? "yes" : "NO"});
    const std::string suffix = "_t" + std::to_string(threads);
    json.add_metric("cold_wall_s" + suffix, cold_s);
    json.add_metric("warm_wall_s" + suffix, warm_s);
    json.add_metric("speedup_cold" + suffix, cold_sp);
    json.add_metric("speedup_warm" + suffix, warm_sp);
  }
  t.print();

  // One clean cold pass through a default engine for the engine_stats
  // block: counters describe exactly one submission of the matrix, so
  // hit rates are interpretable.
  {
    engine::SimEngine stats_eng({1});
    (void)stats_eng.run_batch(batch);
    json.set_engine_stats(stats_eng.stats());
  }

  json.add_metric("best_speedup", best_speedup);
  json.add_metric("best_threads", best_threads);
  json.add_metric("bit_identical", all_identical ? 1.0 : 0.0);
  json.write();

  if (!all_identical) {
    std::puts("ERROR: batch results diverged from the sequential path");
    return 1;
  }
  std::printf("Best: %.2fx at %d threads (%d hardware threads available)\n",
              best_speedup, best_threads, hw);
  return 0;
}
