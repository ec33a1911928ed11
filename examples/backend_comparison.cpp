// Cost backends: price one network through every registered cost model
// — the cycle-level simulator, the bit-serial baselines, the GPU
// roofline — in a single mixed-backend SimEngine batch, then register a
// custom backend and watch it ride the same path.
//
// This is the "adding a new backend" recipe from the README, live:
//   1. subclass backend::CostBackend (price_layer + assemble + name +
//      fingerprint),
//   2. register a factory under a string key,
//   3. put that key in Scenario::backend — benches, caches, and reports
//      pick it up with no engine changes.
#include <cstdio>

#include "src/bpvec.h"
#include "src/common/table.h"

namespace {

using namespace bpvec;

// A deliberately naive comparator: every MAC retires at the platform's
// peak rate, memory is free. Useful as an upper bound — the gap between
// "ideal" and "bpvec" is exactly the memory system and tiling losses the
// cycle simulator charges.
class IdealBackend : public backend::CostBackend {
 public:
  IdealBackend(sim::AcceleratorConfig platform, arch::DramModel memory)
      : platform_(std::move(platform)), memory_(std::move(memory)) {}

  const std::string& name() const override {
    static const std::string kName = "ideal";
    return kName;
  }

  std::uint64_t fingerprint() const override {
    common::ConfigHash f;
    f.str(name());
    backend::hash_platform(f, platform_);
    return f.h;
  }

  sim::LayerResult price_layer(const dnn::Layer& layer) const override {
    sim::LayerResult r;
    r.name = layer.name;
    r.kind = layer.kind;
    r.x_bits = layer.x_bits;
    r.w_bits = layer.w_bits;
    r.macs = layer.macs();
    const std::int64_t peak = platform_.equivalent_macs();
    r.compute_cycles = (layer.macs() + peak - 1) / peak;
    r.total_cycles = r.compute_cycles;
    r.utilization = layer.is_compute() ? 1.0 : 0.0;
    r.runtime_s =
        static_cast<double>(r.total_cycles) / platform_.frequency_hz;
    // Charge only raw MAC energy: the floor every real design sits above.
    r.energy.compute_pj = static_cast<double>(r.macs) *
                          arch::CvuCostModel().conventional_mac_energy_pj();
    return r;
  }

  sim::RunResult assemble(const dnn::Network& network,
                          std::vector<sim::LayerResult> layers)
      const override {
    return sim::assemble_run("Ideal-" + platform_.name, network.name(),
                             memory_.name, name(), std::move(layers),
                             platform_.frequency_hz);
  }

 private:
  sim::AcceleratorConfig platform_;
  arch::DramModel memory_;
};

}  // namespace

int main() {
  using namespace bpvec;

  // Step 2 of the recipe: one registration, process-wide.
  backend::BackendRegistry::instance().register_backend(
      "ideal", [](const sim::AcceleratorConfig& platform,
                  const arch::DramModel& memory) {
        return std::make_unique<IdealBackend>(platform, memory);
      });

  std::puts("Registered cost backends:");
  for (const auto& key : backend::BackendRegistry::instance().keys()) {
    std::printf("  %s\n", key.c_str());
  }

  // Step 3: a mixed-backend batch — every design style prices ResNet-18
  // through the same engine, caches, and result shape.
  const auto net = dnn::make_resnet18(dnn::BitwidthMode::kHeterogeneous);
  std::vector<engine::Scenario> batch{
      engine::make_scenario(engine::Platform::kTpuLike, engine::Memory::kDdr4,
                            net),
      engine::make_scenario(engine::Platform::kBpvec, engine::Memory::kDdr4,
                            net),
      engine::make_scenario("bit_serial", engine::Platform::kTpuLike,
                            engine::Memory::kDdr4, net),
      engine::make_scenario("bit_serial_loom", engine::Platform::kTpuLike,
                            engine::Memory::kDdr4, net),
      engine::make_gpu_scenario(net),
      engine::make_scenario("ideal", engine::Platform::kBpvec,
                            engine::Memory::kDdr4, net),
  };

  engine::SimEngine eng;
  const auto results = eng.run_batch(batch);
  std::puts("");
  Table table(net.name());
  table.set_header({"Platform", "Memory", "Backend", "Latency (ms)",
                    "Energy (mJ)", "GOps/s", "GOps/W"});
  for (const auto& r : results) {
    table.add_row({r.platform, r.memory, r.backend,
                   Table::num(r.runtime_s * 1e3, 3),
                   Table::num(r.energy_j * 1e3, 3), Table::num(r.gops_per_s, 0),
                   Table::num(r.gops_per_w, 0)});
  }
  table.print();

  const auto stats = eng.stats();
  std::printf(
      "\nEngine: %zu scenarios, %zu priced, %zu layer pricings "
      "(%zu served by the layer memo — analytical backends price a layer\n"
      "faster than a memo lookup, so only backends that opt in with\n"
      "memoize_layers(), such as \"functional\", use it).\n",
      stats.scenarios_submitted, stats.simulations_run, stats.layers_priced,
      stats.layer_cache_hits);
  return 0;
}
