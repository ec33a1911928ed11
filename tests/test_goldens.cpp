// The committed report goldens, enforced in every build. Each manifest in
// bench/manifests/ (found by a directory walk, one case per file stem) is
// replayed through bpvec_run's own entry point, serve::main_cli, cold and
// then warm into one cache dir, and once more as a served request through
// Server::handle. One protocol holds for every manifest:
//   * the cold and warm --deterministic-report reports are byte-identical;
//   * the cold report, and the served one, equal tests/golden/<stem>.json;
//   * the cold run stores every scenario (or search candidate) on disk,
//     and the warm run serves every one from disk, simulating and
//     pricing nothing;
//   * the cache dir ends clean, one live record per scenario, within
//     DiskCache::kMaxShards shards;
//   * --validate dry-runs the manifest and prints "manifest OK".
// A manifest without a golden must price only functional-backend rows
// that measured real MACs: measured wall-clock is the one reason a
// report cannot be pinned, and the warm byte-identity still pins it.
//
// The figure, table and ablation benches are pinned by their stdout: each
// tests/golden/<stem>.txt names a bench/<stem>.cpp, whose built binary runs
// with the bench dir as its cwd (its BENCH_*.json lands there), must exit 0
// and must print the golden byte for byte.
//
// To regenerate a golden after an intentional model change, see the
// README's CI section.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/engine/disk_cache.h"
#include "src/serve/driver.h"
#include "src/serve/server.h"
#include "tests/child_process.h"

namespace bpvec {
namespace {

namespace fs = std::filesystem;
using common::json::Value;

const fs::path kRepo = fs::path(__FILE__).parent_path().parent_path();
const fs::path kManifests = kRepo / "bench/manifests";
const fs::path kGoldens = kRepo / "tests/golden";
const fs::path kBenchBin = BPVEC_BENCH_DIR;  // the built bench binaries

/// Stems of the files in `dir` with extension `ext`, sorted.
std::vector<std::string> stems_in(const fs::path& dir, const char* ext) {
  std::vector<std::string> stems;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ext) stems.push_back(e.path().stem().string());
  }
  std::sort(stems.begin(), stems.end());
  return stems;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// bpvec_run with `args`; stdout and stderr go to `*text`.
int run_cli(const std::vector<std::string>& args, std::string* text) {
  std::vector<const char*> argv{"bpvec_run"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  std::ostringstream out;
  const int rc =
      serve::main_cli(static_cast<int>(argv.size()), argv.data(), out, out);
  *text = out.str();
  return rc;
}

class GoldenReplay : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("bpvec_goldens_" + GetParam() + "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// One cache-dir replay ("cold" or "warm"); returns the stats block.
  Value replay(const std::vector<std::string>& command,
               const std::string& pass) {
    std::vector<std::string> args = command;
    args.insert(args.end(),
                {"--threads", "2", "--cache-dir", (dir_ / "cache").string(),
                 "--deterministic-report", "--no-table",
                 "--stats-out", (dir_ / (pass + "_stats.json")).string(),
                 "--report", (dir_ / (pass + ".json")).string()});
    std::string text;
    EXPECT_EQ(run_cli(args, &text), 0) << pass << " replay:\n" << text;
    return common::json::parse_file((dir_ / (pass + "_stats.json")).string());
  }

  fs::path dir_;
};

TEST_P(GoldenReplay, ColdWarmServedAndGoldenAgree) {
  const fs::path manifest = kManifests / (GetParam() + ".json");
  const Value doc = common::json::parse_file(manifest.string());
  const bool search = doc.find("search") != nullptr;
  // One golden is one report, so a committed manifest holds one block.
  ASSERT_NE(search, doc.find("grids") != nullptr)
      << manifest << " needs exactly one of \"grids\" and \"search\"";
  std::vector<std::string> command{manifest.string()};
  if (search) command.insert(command.begin(), "search");

  std::string text;
  std::vector<std::string> validate = command;
  validate.push_back("--validate");
  EXPECT_EQ(run_cli(validate, &text), 0) << text;
  EXPECT_NE(text.find("manifest OK"), std::string::npos) << text;

  const Value cold_stats = replay(command, "cold");
  const Value warm_stats = replay(command, "warm");
  const std::string cold = slurp(dir_ / "cold.json");
  ASSERT_FALSE(cold.empty());
  EXPECT_EQ(cold, slurp(dir_ / "warm.json")) << "warm report differs";

  const Value report = common::json::parse(cold);
  const std::int64_t n =
      report.at(search ? "unique_candidates" : "scenario_count").as_int();
  ASSERT_GT(n, 0);
  EXPECT_EQ(cold_stats.at("disk_stores").as_int(), n);
  EXPECT_EQ(warm_stats.at("simulations_run").as_int(), 0);
  EXPECT_EQ(warm_stats.at("disk_hits").as_int(), n);
  EXPECT_EQ(warm_stats.at("disk_rejected").as_int(), 0);
  EXPECT_EQ(warm_stats.at("layers_priced").as_int(), 0);

  const Value cache =
      engine::to_json(engine::inspect_cache_dir((dir_ / "cache").string()));
  EXPECT_EQ(cache.at("rejected_total").as_int(), 0) << cache.dump(1);
  EXPECT_EQ(cache.at("live_records").as_int(), n) << cache.dump(1);
  EXPECT_LE(cache.at("shards").size(), engine::DiskCache::kMaxShards);

  // The envelope `bpvec_serve request --manifest` sends.
  Value envelope = Value::object();
  envelope.set("op", search ? "search" : "price");
  envelope.set("manifest", doc);
  envelope.set("base_dir", manifest.parent_path().string());
  envelope.set("deterministic_report", true);
  serve::ServerOptions options;
  options.session.threads = 2;
  serve::Server server(options);
  const Value reply = server.handle(envelope);
  ASSERT_EQ(reply.at("status").as_string(), "ok") << reply.dump(1);

  const fs::path golden = kGoldens / (GetParam() + ".json");
  if (fs::exists(golden)) {
    const std::string want = slurp(golden);
    EXPECT_EQ(cold, want) << "cold report differs from " << golden;
    EXPECT_EQ(reply.at("report").dump(1), want)
        << "served report differs from " << golden;
    return;
  }
  for (const Value& row : report.at("scenarios").as_array()) {
    const Value* macs = row.find("measured_macs");
    EXPECT_TRUE(row.at("backend").as_string() == "functional" &&
                macs != nullptr && macs->as_int() > 0)
        << GetParam() << " has no golden, and " << row.at("id").as_string()
        << " is not a functional row with measured MACs";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Manifests, GoldenReplay,
    ::testing::ValuesIn(stems_in(kManifests, ".json")),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

class StdoutGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(StdoutGolden, ExitsZeroAndMatches) {
  const std::string stem = GetParam();
  const fs::path out = fs::temp_directory_path() /
                       ("bpvec_stdout_" + stem + "_" +
                        std::to_string(::getpid()));
  const fs::path err = out.string() + ".err";
  const int rc = test::ChildProcess({(kBenchBin / stem).string()},
                                    kBenchBin.string(), out.string(),
                                    err.string())
                     .wait();
  EXPECT_EQ(rc, 0) << kBenchBin / stem << " failed:\n" << slurp(err);
  EXPECT_EQ(slurp(out), slurp(kGoldens / (stem + ".txt")))
      << "stdout of bench/" << stem << " differs from tests/golden/" << stem
      << ".txt";
  fs::remove(out);
  fs::remove(err);
}

INSTANTIATE_TEST_SUITE_P(
    BenchStdout, StdoutGolden, ::testing::ValuesIn(stems_in(kGoldens, ".txt")),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(Goldens, EveryGoldenNamesAManifest) {
  // A report golden names a manifest, a stdout golden a bench source; an
  // orphan would pin nothing.
  const std::vector<std::string> manifests = stems_in(kManifests, ".json");
  const std::vector<std::string> benches = stems_in(kRepo / "bench", ".cpp");
  const std::vector<std::string> reports = stems_in(kGoldens, ".json");
  const std::vector<std::string> stdouts = stems_in(kGoldens, ".txt");
  EXPECT_FALSE(reports.empty());
  EXPECT_FALSE(stdouts.empty());
  for (const std::string& stem : reports) {
    EXPECT_TRUE(std::binary_search(manifests.begin(), manifests.end(), stem))
        << "tests/golden/" << stem << ".json names no bench/manifests/"
        << stem << ".json";
  }
  for (const std::string& stem : stdouts) {
    EXPECT_TRUE(std::binary_search(benches.begin(), benches.end(), stem))
        << "tests/golden/" << stem << ".txt names no bench/" << stem
        << ".cpp";
  }
}

TEST(Goldens, AlexNetCopyPricesLikeTheBuiltinToken) {
  // custom_net's AlexNet-Copy is a workload-schema file with AlexNet's
  // structure, so it must price exactly like ci_gate's builtin
  // bpvec/AlexNet/DDR4 cell of the same bitwidth mode.
  const Value custom = common::json::parse_file(
      (kGoldens / "custom_net.json").string());
  const Value gate =
      common::json::parse_file((kGoldens / "ci_gate.json").string());
  const Value* copy = nullptr;
  for (const Value& row : custom.at("scenarios").as_array()) {
    if (row.at("network").as_string() == "AlexNet-Copy") copy = &row;
  }
  ASSERT_NE(copy, nullptr) << "custom_net has no AlexNet-Copy row";
  const Value* twin = nullptr;
  for (const Value& row : gate.at("scenarios").as_array()) {
    if (row.at("id").as_string() == "bpvec:BPVeC/AlexNet/DDR4" &&
        row.at("total_cycles") == copy->at("total_cycles")) {
      twin = &row;
    }
  }
  ASSERT_NE(twin, nullptr) << "no bpvec:BPVeC/AlexNet/DDR4 row in ci_gate "
                              "has AlexNet-Copy's total_cycles";
  for (const char* key : {"total_macs", "runtime_s", "energy_j", "gops_per_s"}) {
    EXPECT_EQ(twin->at(key), copy->at(key)) << key;
  }
}

}  // namespace
}  // namespace bpvec
