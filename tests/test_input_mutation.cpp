// Seeded mutation suite over the three input readers: every committed
// scenario manifest and the committed network file, mutated by byte
// flips, truncation, splices and inserted JSON tokens, must come back
// from json::parse, cli::parse_manifest + scenario_count,
// workload::parse_network and a serve "validate" request as a result or
// a bpvec::Error — never as any other exception, a crash, or (under the
// sanitizer build) a memory error or undefined behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/cli/manifest.h"
#include "src/common/error.h"
#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/serve/server.h"
#include "src/workload/schema.h"

namespace bpvec {
namespace {

namespace fs = std::filesystem;
using common::json::Value;

const fs::path kManifestDir =
    fs::path(__FILE__).parent_path().parent_path() / "bench/manifests";

/// Mutants per seed input (ten files). On a 4-vCPU x86-64 host the 3000
/// mutants take about 3 s in the Debug ASan+UBSan build, 0.2 s in
/// Release.
constexpr std::uint64_t kMutantsPerInput = 300;

std::vector<std::string> seed_inputs() {
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(kManifestDir)) {
    if (entry.path().extension() == ".json") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  paths.push_back(kManifestDir / "nets/alexnet_copy.json");
  std::vector<std::string> texts;
  for (const fs::path& p : paths) {
    std::ifstream in(p);
    std::ostringstream text;
    text << in.rdbuf();
    texts.push_back(text.str());
  }
  return texts;
}

const char* const kSyntaxTokens[] = {"{", "}", "[", "]", ",", ":", "\"", "\\"};

const char* const kValueTokens[] = {
    "null", "true", "-1", "0", "1.5", "1e309", "-0.0", "\"\"", "[]", "{}",
    "[\"x\"]", "\"x\"", "\"\\u0000\"", "\"all\"", "\"workloads\"", "2147483648",
    "-9223372036854775808", "99999999999999999999"};

/// Replaces the first value literal (string, number or keyword right
/// after ':', '[' or ',') at or after `pos` with `token`; most such
/// mutants stay well-formed JSON, so they reach the field readers.
void replace_value(std::string& text, std::size_t pos, const char* token) {
  for (std::size_t i = std::max<std::size_t>(pos, 1); i < text.size(); ++i) {
    const char c = text[i];
    if (c != '"' && c != '-' && !std::isalnum(static_cast<unsigned char>(c))) {
      continue;
    }
    const std::size_t before = text.find_last_not_of(" \t\r\n", i - 1);
    if (before == std::string::npos ||
        std::string(":[,").find(text[before]) == std::string::npos) {
      continue;
    }
    std::size_t end = i + 1;
    if (c == '"') {
      while (end < text.size() && text[end] != '"') {
        end += text[end] == '\\' ? 2 : 1;
      }
      end = std::min(end + 1, text.size());
    } else {
      end = text.find_first_of(",]} \t\r\n", i);
      if (end == std::string::npos) end = text.size();
    }
    text.replace(i, end - i, token);
    return;
  }
}

/// Usually one edit, sometimes up to four, every choice drawn from
/// `rng`.
std::string mutate(std::string text, const std::vector<std::string>& inputs,
                   Rng& rng) {
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(n) - 1));
  };
  const std::int64_t edits = rng.uniform(0, 3) == 0 ? rng.uniform(2, 4) : 1;
  for (std::int64_t k = 0; k < edits; ++k) {
    const std::size_t pos = pick(text.size() + 1);
    const std::int64_t op = rng.uniform(0, 9);
    if (op <= 1 && pos < text.size()) {  // flip one bit
      text[pos] = static_cast<char>(text[pos] ^ (1 << rng.uniform(0, 7)));
    } else if (op == 2) {  // truncate
      text.resize(pos);
    } else if (op == 3) {  // splice in a slice of any seed input
      const std::string& donor = inputs[pick(inputs.size())];
      text.insert(pos, donor.substr(pick(donor.size()), 1 + pick(64)));
    } else if (op == 4) {  // insert a syntax token
      text.insert(pos, kSyntaxTokens[pick(std::size(kSyntaxTokens))]);
    } else if (op == 5) {  // insert a value token
      text.insert(pos, kValueTokens[pick(std::size(kValueTokens))]);
    } else {  // replace a value
      replace_value(text, pos, kValueTokens[pick(std::size(kValueTokens))]);
    }
  }
  return text;
}

/// Runs `read`; true when it returned, false on a bpvec::Error. Any
/// other exception fails the test, naming the reader and the mutant.
template <typename Read>
bool returns(const char* reader, const std::string& mutant, Read read) {
  try {
    read();
    return true;
  } catch (const Error&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << reader << " threw a non-bpvec exception (" << e.what()
                  << ") on:\n" << mutant;
  } catch (...) {
    ADD_FAILURE() << reader << " threw a non-exception on:\n" << mutant;
  }
  return false;
}

TEST(InputMutation, EveryReaderYieldsAResultOrABpvecError) {
  const std::vector<std::string> inputs = seed_inputs();
  ASSERT_EQ(inputs.size(), 10u);
  serve::Server server(serve::ServerOptions{});
  const Rng root(20240607);
  std::size_t parsed = 0, manifests = 0, networks = 0, validated = 0;
  for (std::size_t in = 0; in < inputs.size(); ++in) {
    for (std::uint64_t k = 0; k < kMutantsPerInput; ++k) {
      Rng rng = root.fork(in * kMutantsPerInput + k);
      const std::string mutant = mutate(inputs[in], inputs, rng);

      Value doc;
      if (!returns("json::parse", mutant,
                   [&] { doc = common::json::parse(mutant); })) {
        continue;
      }
      ++parsed;
      cli::Manifest manifest;
      const bool manifest_ok = returns("parse_manifest", mutant, [&] {
        manifest = cli::parse_manifest(doc, kManifestDir.string());
        (void)cli::scenario_count(manifest);
      });
      manifests += manifest_ok;
      networks += returns("parse_network", mutant,
                          [&] { (void)workload::parse_network(doc); });

      // The serve path: the same document in a validate envelope. Its
      // verdict must match the session's own validate of the manifest.
      const bool search = doc.find("grids") == nullptr;
      const bool session_ok = manifest_ok && returns("validate", mutant, [&] {
        (void)server.session().validate({manifest, search});
      });
      Value envelope = Value::object();
      envelope.set("op", "validate");
      envelope.set("manifest", doc);
      envelope.set("base_dir", kManifestDir.string());
      envelope.set("search", search);
      const Value response = server.handle(envelope);
      ASSERT_TRUE(response.is_object()) << mutant;
      EXPECT_EQ(response.at("status").as_string(),
                session_ok ? "ok" : "error")
          << mutant;
      validated += session_ok;
    }
  }
  // The mutants must reach past the JSON parser into every reader.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(manifests, 0u);
  EXPECT_GT(networks, 0u);
  EXPECT_GT(validated, 0u);
}

}  // namespace
}  // namespace bpvec
