// src/'s include graph is the README's layer order. Each directory under
// src/ may include its own headers and those of the directories before it
// in kLayers, never one after it, so the graph has no cycle. The umbrella
// header src/bpvec.h is the only file at the root of src/ and may include
// anything. The README's architecture map lists the same order. The last
// case holds bench/ to a rule of the same kind: every bench binary is
// pinned, so none can drift unseen.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

/// Bottom to top: the README's "Architecture map" order.
const std::vector<std::string> kLayers{
    "common", "bitslice", "arch",   "dnn", "sim", "kernels", "core",
    "backend", "workload", "engine", "dse", "cli", "serve"};

const fs::path kRepo = fs::path(__FILE__).parent_path().parent_path();
const fs::path kSrc = kRepo / "src";

std::size_t layer_of(const std::string& dir) {
  return static_cast<std::size_t>(
      std::find(kLayers.begin(), kLayers.end(), dir) - kLayers.begin());
}

std::vector<std::string> lines_of(const fs::path& file) {
  std::ifstream in(file);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(Layering, EveryDirectoryIsInTheTable) {
  ASSERT_TRUE(fs::is_directory(kSrc)) << kSrc;
  for (const fs::directory_entry& e : fs::directory_iterator(kSrc)) {
    if (!e.is_directory()) continue;
    EXPECT_LT(layer_of(e.path().filename().string()), kLayers.size())
        << "src/" << e.path().filename().string()
        << " is missing from the layer table";
  }
}

TEST(Layering, OnlyTheUmbrellaHeaderSitsAtTheRoot) {
  for (const fs::directory_entry& e : fs::directory_iterator(kSrc)) {
    if (e.is_directory()) continue;
    EXPECT_EQ(e.path().filename().string(), "bpvec.h")
        << e.path() << " sits at the root of src/";
  }
}

TEST(Layering, EveryIncludePointsDownward) {
  const std::string prefix = "#include \"src/";
  std::ostringstream upward;
  std::size_t files = 0;
  for (const fs::directory_entry& e : fs::recursive_directory_iterator(kSrc)) {
    const std::string ext = e.path().extension().string();
    if (!e.is_regular_file() || (ext != ".h" && ext != ".cpp")) continue;
    const fs::path rel = fs::relative(e.path(), kSrc);
    if (rel.parent_path().empty()) continue;  // the umbrella header
    ++files;
    const std::string dir = rel.begin()->string();
    for (const std::string& line : lines_of(e.path())) {
      if (line.rfind(prefix, 0) != 0) continue;
      const std::string target = line.substr(prefix.size());
      const std::size_t slash = target.find('/');
      const std::string to =
          slash == std::string::npos ? "(root)" : target.substr(0, slash);
      if (layer_of(to) > layer_of(dir)) {
        upward << "\n  src/" << rel.string() << ": " << line;
      }
    }
  }
  EXPECT_GT(files, 0u);
  EXPECT_TRUE(upward.str().empty())
      << "includes that point up the layer order:" << upward.str();
}

TEST(Layering, ReadmeMapListsTheTableOrder) {
  // The map is the fenced block after "## Architecture map"; each layer
  // starts a line with "src/<dir>".
  std::vector<std::string> map;
  bool in_section = false;
  bool in_block = false;
  for (const std::string& line : lines_of(kRepo / "README.md")) {
    if (line.rfind("## ", 0) == 0) in_section = line == "## Architecture map";
    if (!in_section) continue;
    if (line.rfind("```", 0) == 0) {
      if (in_block) break;
      in_block = true;
      continue;
    }
    if (in_block && line.rfind("src/", 0) == 0) {
      map.push_back(line.substr(4, line.find(' ') - 4));
    }
  }
  EXPECT_EQ(map, kLayers);
}

TEST(Layering, EveryBenchIsPinned) {
  // A bench/<stem>.cpp is pinned by a stdout golden, tests/golden/<stem>.txt
  // (tests/test_goldens runs it), or by a CI step that runs it as
  // ./<stem> and gates its BENCH json. A mention in a comment pins nothing.
  std::vector<std::string> commands;
  for (std::string line : lines_of(kRepo / ".github/workflows/ci.yml")) {
    // A YAML or shell comment starts at a '#' that opens a word.
    for (std::size_t hash = line.find('#'); hash != std::string::npos;
         hash = line.find('#', hash + 1)) {
      if (hash == 0 || line[hash - 1] == ' ' || line[hash - 1] == '\t') {
        line.erase(hash);
        break;
      }
    }
    commands.push_back(line);
  }
  ASSERT_FALSE(commands.empty());
  std::size_t benches = 0;
  for (const fs::directory_entry& e : fs::directory_iterator(kRepo / "bench")) {
    if (e.path().extension() != ".cpp") continue;
    ++benches;
    const std::string stem = e.path().stem().string();
    if (fs::exists(kRepo / "tests/golden" / (stem + ".txt"))) continue;
    const std::regex run("(^|\\s)\\./" + stem + "(\\s|$)");
    EXPECT_TRUE(std::any_of(commands.begin(), commands.end(),
                            [&](const std::string& line) {
                              return std::regex_search(line, run);
                            }))
        << "bench/" << stem << ".cpp has no tests/golden/" << stem
        << ".txt and no CI step runs it as ./" << stem;
  }
  EXPECT_GT(benches, 0u);
}

}  // namespace
