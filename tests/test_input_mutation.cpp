// Seeded mutation suites over the readers of outside input.
//
// The three JSON readers: every committed scenario manifest and the
// committed network file, mutated by byte flips, truncation, splices and
// inserted JSON tokens, must come back from json::parse,
// cli::parse_manifest, workload::parse_network and a
// serve "validate" request as a result or a bpvec::Error — never as any
// other exception, a crash, or (under the sanitizer build) a memory error
// or undefined behaviour.
//
// Raw serve envelope lines: one line per op (price, search, validate,
// list, stats, version, ping, shutdown; the first three embed small
// committed manifests), mutated the same way, must each get back from
// serve::Server::handle_line one JSON object whose "status" is "ok" or
// "error", and an error must say what went wrong.
//
// The disk cache's record body: encoded zoo RunResults, mutated by bit
// flips, truncation, splices and length or count fields set to extremes,
// must come back from engine::run_result_decode the same way, and no
// single allocation made while decoding may exceed a small multiple of
// the mutant's size.
//
// Sealed disk-cache shards: one shard of zoo RunResults, mutated by byte
// flips in its header, length prefixes, payloads and checksums, by
// truncation, by appended garbage and by length prefixes set to 0, 7 and
// 0xFFFFFFFF. Every mutant must open as an engine::DiskCache without
// throwing, serve each stored key bit-identical or as a miss, survive
// engine::inspect_cache_dir, and still serve back a fresh store.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "src/arch/dram.h"
#include "src/cli/manifest.h"
#include "src/common/binio.h"
#include "src/common/error.h"
#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/dnn/model_zoo.h"
#include "src/engine/disk_cache.h"
#include "src/serve/server.h"
#include "src/sim/simulator.h"
#include "src/workload/schema.h"
#include "tests/run_result_identical.h"

namespace {

/// The largest single operator-new request since the last reset. The
/// replacements below feed it, so the decode suite can bound what a
/// mutant makes the decoder allocate instead of trusting that a huge
/// request fails loudly.
std::atomic<std::size_t> g_largest_allocation{0};

}  // namespace

void* operator new(std::size_t n) {
  std::size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
  while (n > seen && !g_largest_allocation.compare_exchange_weak(
                         seen, n, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

// GCC pairs any operator new with operator delete and so flags the
// free() below as mismatched, even though the operator new it pairs
// with is the malloc-backed one above.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace bpvec {
namespace {

namespace fs = std::filesystem;
using common::json::Value;

const fs::path kManifestDir =
    fs::path(__FILE__).parent_path().parent_path() / "bench/manifests";

/// Mutants per seed input (twelve files). On a 4-vCPU x86-64 host the
/// 3600 mutants take about 3 s in the Debug ASan+UBSan build, 0.2 s in
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
  ASSERT_EQ(inputs.size(), 12u);
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

// ---------------------------------------------------------------------------
// serve::Server::handle_line

/// Mutants per envelope line (eight lines). On a 4-vCPU x86-64 host the
/// 4000 mutants take about 2 s in the Debug ASan+UBSan build, 0.1 s in
/// Release.
constexpr std::uint64_t kMutantsPerEnvelope = 500;

/// One envelope line per op, in Server's op order. The price, search and
/// validate lines embed committed manifests of at most a dozen
/// scenarios.
std::vector<std::string> envelope_lines() {
  const auto with_manifest = [](const char* op, const char* file) {
    Value v = Value::object();
    v.set("op", op);
    v.set("manifest",
          common::json::parse_file((kManifestDir / file).string()));
    v.set("base_dir", kManifestDir.string());
    v.set("deterministic_report", true);
    return v.dump();
  };
  std::vector<std::string> lines{
      with_manifest("price", "custom_net.json"),
      with_manifest("search", "dse_smoke.json"),
      with_manifest("validate", "fig7.json")};
  for (const char* op : {"list", "stats", "version", "ping", "shutdown"}) {
    lines.push_back(std::string(R"({"op": ")") + op + "\"}");
  }
  return lines;
}

TEST(EnvelopeMutation, EveryLineGetsOneOkOrErrorObject) {
  const std::vector<std::string> lines = envelope_lines();
  serve::Server server(serve::ServerOptions{});
  const Rng root(20261019);
  std::vector<std::size_t> ok(lines.size(), 0);
  std::size_t errors = 0;
  for (std::size_t line = 0; line < lines.size(); ++line) {
    for (std::uint64_t k = 0; k < kMutantsPerEnvelope; ++k) {
      Rng rng = root.fork(line * kMutantsPerEnvelope + k);
      const std::string mutant = mutate(lines[line], lines, rng);
      Value reply;
      if (!returns("handle_line", mutant,
                   [&] { reply = server.handle_line(mutant); })) {
        ADD_FAILURE() << "handle_line threw a bpvec::Error on:\n" << mutant;
        continue;
      }
      // One object on the wire: one line that parses back to an object.
      const std::string wire = reply.dump();
      ASSERT_EQ(wire.find('\n'), std::string::npos) << mutant;
      const Value back = common::json::parse(wire);
      ASSERT_TRUE(back.is_object()) << mutant;
      const Value* status = back.find("status");
      ASSERT_TRUE(status != nullptr && status->is_string()) << wire;
      if (status->as_string() == "ok") {
        ++ok[line];
        continue;
      }
      ASSERT_EQ(status->as_string(), "error") << wire;
      const Value* error = back.find("error");
      ASSERT_TRUE(error != nullptr && error->is_string()) << wire;
      EXPECT_FALSE(error->as_string().empty()) << mutant;
      ++errors;
    }
  }
  // Mutants must reach past the envelope reader into every op.
  for (std::size_t line = 0; line < lines.size(); ++line) {
    EXPECT_GT(ok[line], 0u) << lines[line];
  }
  EXPECT_GT(errors, 0u);
}

// ---------------------------------------------------------------------------
// engine::run_result_decode

/// One RunResult per zoo network, priced on BPVeC with DDR4.
std::vector<sim::RunResult> zoo_results() {
  const sim::Simulator simulator(sim::bpvec_accelerator(), arch::ddr4());
  std::vector<sim::RunResult> results;
  for (const dnn::Network& net :
       dnn::all_models(dnn::BitwidthMode::kHeterogeneous)) {
    results.push_back(simulator.run(net));
  }
  return results;
}

/// zoo_results(), each encoded on its own.
std::vector<std::string> encoded_zoo_results() {
  std::vector<std::string> encoded;
  for (const sim::RunResult& r : zoo_results()) {
    common::binio::Writer w;
    engine::run_result_encode(w, r);
    encoded.push_back(w.take());
  }
  return encoded;
}

std::size_t encoded_size(const sim::RunResult& r) {
  common::binio::Writer w;
  engine::run_result_encode(w, r);
  return w.size();
}

/// Offsets of every u32 length or count field in an encoded RunResult:
/// the four string lengths, the layer count and each layer name's
/// length. The fixed-width stretches between them are measured on the
/// codec itself, from a blank result and a blank layer.
std::vector<std::size_t> length_fields(const std::string& bytes) {
  const std::size_t blank = encoded_size(sim::RunResult{});
  sim::RunResult one_layer;
  one_layer.layers.emplace_back();
  const std::size_t layer_scalars = encoded_size(one_layer) - blank - 4;
  const std::size_t head_scalars = blank - 4 * 4 - 4;

  common::binio::Reader r(bytes);
  std::vector<std::size_t> at;
  const auto pos = [&] { return bytes.size() - r.remaining(); };
  const auto skip = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) (void)r.u8();
  };
  for (int s = 0; s < 4; ++s) {
    at.push_back(pos());
    (void)r.str();
  }
  skip(head_scalars);
  at.push_back(pos());
  const std::uint32_t layers = r.u32();
  for (std::uint32_t i = 0; i < layers; ++i) {
    at.push_back(pos());
    (void)r.str();
    skip(layer_scalars);
  }
  EXPECT_TRUE(r.done()) << "length_fields disagrees with the codec";
  return at;
}

void put_u32(std::string& bytes, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes[at + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

/// Usually one edit, sometimes up to four, every choice drawn from
/// `rng`.
std::string mutate_record(std::string bytes,
                          const std::vector<std::size_t>& fields,
                          const std::vector<std::string>& inputs, Rng& rng) {
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(n) - 1));
  };
  const std::int64_t edits = rng.uniform(0, 3) == 0 ? rng.uniform(2, 4) : 1;
  for (std::int64_t k = 0; k < edits; ++k) {
    const std::size_t pos = pick(bytes.size() + 1);
    const std::int64_t op = rng.uniform(0, 5);
    if (op == 0 && pos < bytes.size()) {  // flip one bit
      bytes[pos] = static_cast<char>(bytes[pos] ^ (1 << rng.uniform(0, 7)));
    } else if (op == 1) {  // truncate
      bytes.resize(pos);
    } else if (op == 2) {  // splice in a slice of any encoded result
      const std::string& donor = inputs[pick(inputs.size())];
      bytes.insert(pos, donor.substr(pick(donor.size()), 1 + pick(256)));
    } else {  // set a length or count field to an extreme
      const std::size_t at = fields[pick(fields.size())];
      if (at + 4 > bytes.size()) continue;
      const std::uint32_t left = static_cast<std::uint32_t>(bytes.size() - at);
      const std::uint32_t extremes[] = {0,          1,          left - 4,
                                        left - 3,   left,       0x7f7f7f7fu,
                                        0x80000000u, 0xffffffffu};
      put_u32(bytes, at, extremes[pick(std::size(extremes))]);
    }
  }
  return bytes;
}

/// Mutants per encoded zoo result (six networks). On a 4-vCPU x86-64
/// host they take well under a second in the Debug ASan+UBSan build.
constexpr std::uint64_t kRecordMutantsPerInput = 500;

/// No single allocation while decoding may exceed this multiple of the
/// mutant's size: a decoded layer takes a little more memory than its
/// encoding, and every string is at most the bytes left.
constexpr std::size_t kAllocationFactor = 4;

TEST(RunResultDecode, RejectsALayerCountPastTheBufferBeforeAllocating) {
  const std::string encoded = encoded_zoo_results().front();
  const std::vector<std::size_t> fields = length_fields(encoded);
  const std::size_t count_at = fields[4];
  for (const std::uint32_t count : {0x7f7f7f7fu, 0xffffffffu}) {
    std::string bytes = encoded;
    put_u32(bytes, count_at, count);
    common::binio::Reader r(bytes);
    g_largest_allocation = 0;
    EXPECT_THROW((void)engine::run_result_decode(r), Error) << count;
    EXPECT_LE(g_largest_allocation.load(), kAllocationFactor * bytes.size())
        << count;
  }
}

TEST(RunResultDecode, EveryMutantDecodesOrThrowsABpvecError) {
  const std::vector<std::string> inputs = encoded_zoo_results();
  ASSERT_EQ(inputs.size(), 6u);
  const Rng root(20261018);
  std::size_t decoded = 0, rejected = 0;
  for (std::size_t in = 0; in < inputs.size(); ++in) {
    const std::vector<std::size_t> fields = length_fields(inputs[in]);
    ASSERT_GT(fields.size(), 5u);
    for (std::uint64_t k = 0; k < kRecordMutantsPerInput; ++k) {
      Rng rng = root.fork(in * kRecordMutantsPerInput + k);
      const std::string mutant =
          mutate_record(inputs[in], fields, inputs, rng);
      common::binio::Reader r(mutant);
      g_largest_allocation = 0;
      if (returns("run_result_decode", mutant,
                  [&] { (void)engine::run_result_decode(r); })) {
        ++decoded;
      } else {
        ++rejected;
      }
      EXPECT_LE(g_largest_allocation.load(),
                kAllocationFactor * std::max<std::size_t>(mutant.size(), 64))
          << "input " << in << " mutant " << k;
    }
  }
  // Both outcomes occur: the suite reaches past the first bad field.
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
}

// ---------------------------------------------------------------------------
// Sealed engine::DiskCache shards

/// Where each record of a well-formed shard sits: the offset of its u32
/// length prefix and its payload length (the checksum follows the
/// payload).
struct RecordSpan {
  std::size_t at = 0;
  std::uint32_t len = 0;
};

std::vector<RecordSpan> record_spans(const std::string& shard) {
  constexpr std::size_t kHeader = 8;  // magic + u32 format version
  std::vector<RecordSpan> spans;
  for (std::size_t at = kHeader; at + 4 <= shard.size();) {
    const std::uint32_t len = common::binio::Reader(shard.data() + at, 4).u32();
    spans.push_back({at, len});
    at += 4 + len + 8;
  }
  return spans;
}

/// Usually one edit, sometimes up to three, every choice drawn from
/// `rng`.
std::string mutate_shard(std::string bytes,
                         const std::vector<RecordSpan>& spans, Rng& rng) {
  const auto pick = [&rng](std::size_t lo, std::size_t hi) {  // [lo, hi)
    return static_cast<std::size_t>(rng.uniform(
        static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi) - 1));
  };
  const auto flip = [&](std::size_t lo, std::size_t hi) {
    if (hi > bytes.size() || lo >= hi) return;
    const std::size_t pos = pick(lo, hi);
    bytes[pos] = static_cast<char>(bytes[pos] ^ (1 << rng.uniform(0, 7)));
  };
  const std::int64_t edits = rng.uniform(0, 3) == 0 ? rng.uniform(2, 3) : 1;
  for (std::int64_t k = 0; k < edits; ++k) {
    const RecordSpan rec = spans[pick(0, spans.size())];
    const std::size_t payload = rec.at + 4;
    const std::size_t checksum = payload + rec.len;
    switch (rng.uniform(0, 6)) {
      case 0:
        flip(0, 8);  // header: magic or format version
        break;
      case 1:
        flip(rec.at, payload);  // length prefix
        break;
      case 2:
        flip(payload, checksum);  // key or RunResult
        break;
      case 3:
        flip(checksum, checksum + 8);
        break;
      case 4:
        bytes.resize(pick(0, bytes.size() + 1));  // truncate
        break;
      case 5: {  // append garbage
        const std::size_t n = pick(1, 65);
        for (std::size_t i = 0; i < n; ++i) {
          bytes.push_back(static_cast<char>(rng.uniform(0, 255)));
        }
        break;
      }
      default: {  // set a length prefix to an extreme
        if (payload > bytes.size()) break;
        const std::uint32_t extremes[] = {0, 7, 0xffffffffu};
        put_u32(bytes, rec.at, extremes[pick(0, std::size(extremes))]);
        break;
      }
    }
  }
  return bytes;
}

/// Shard mutants. On a 4-vCPU x86-64 host they take about a second in
/// the Debug ASan+UBSan build.
constexpr std::uint64_t kShardMutants = 400;

TEST(DiskCacheShard, EveryMutantOpensAndServesExactRecordsOrMisses) {
  const std::vector<sim::RunResult> results = zoo_results();
  const std::string dir = "input_mutation_shards";
  const std::string shard_path = dir + "/shard-0000.bpc";
  const auto read_file = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
  };
  // Keys 1..6 in one sealed shard.
  fs::remove_all(dir);
  std::string sealed;
  {
    const engine::DiskCache cache(dir);
    std::vector<engine::DiskCache::PendingStore> pending;
    for (std::size_t i = 0; i < results.size(); ++i) {
      pending.push_back({i + 1, &results[i]});
    }
    ASSERT_EQ(cache.store_batch(pending), results.size());
    ASSERT_EQ(cache.shard_paths(), std::vector<std::string>{shard_path});
    sealed = read_file(shard_path);
  }
  const std::vector<RecordSpan> spans = record_spans(sealed);
  ASSERT_EQ(spans.size(), results.size());
  constexpr std::uint64_t kFreshKey = 1000;

  const Rng root(20261019);
  std::size_t served = 0, missed = 0;
  for (std::uint64_t k = 0; k < kShardMutants; ++k) {
    Rng rng = root.fork(k);
    const std::string mutant = mutate_shard(sealed, spans, rng);
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::ofstream(shard_path, std::ios::binary) << mutant;
    try {
      const engine::DiskCache cache(dir);
      for (std::size_t i = 0; i < results.size(); ++i) {
        if (const auto loaded = cache.load(i + 1)) {
          ++served;
          expect_bit_identical(results[i], *loaded);
        } else {
          ++missed;
        }
      }
      (void)engine::inspect_cache_dir(dir);
      ASSERT_TRUE(cache.store(kFreshKey, results.front())) << "mutant " << k;
      const auto fresh = cache.load(kFreshKey);
      ASSERT_NE(fresh, nullptr) << "mutant " << k;
      expect_bit_identical(results.front(), *fresh);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << k << " threw: " << e.what();
    }
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first failing mutant: " << k;
      break;
    }
  }
  fs::remove_all(dir);
  // Both outcomes occur: some mutants leave records intact.
  EXPECT_GT(served, 0u);
  EXPECT_GT(missed, 0u);
}

}  // namespace
}  // namespace bpvec
