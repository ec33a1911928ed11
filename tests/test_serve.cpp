// The serving layer end to end: warm-cache dedup across repeat and
// concurrent requests on one Session, per-request stats deltas summing
// to the fleet totals, cooperative cancellation leaving the engine
// reusable, served report bytes matching the batch CLI's (the
// determinism contract), malformed protocol envelopes becoming
// structured errors, and main_cli's usage-error paths.
#include "src/serve/session.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "src/cli/driver.h"
#include "src/cli/manifest.h"
#include "src/common/json.h"
#include "src/engine/disk_cache.h"
#include "src/serve/server.h"

namespace bpvec::serve {
namespace {

namespace fs = std::filesystem;
using common::json::Value;

cli::Manifest grid_manifest() {
  return cli::parse_manifest(common::json::parse(R"({
    "name": "serve_grid",
    "grids": [{"platforms": ["bpvec", "tpu_like"], "memories": ["ddr4"],
               "networks": ["lstm", "rnn"],
               "bitwidth_modes": ["heterogeneous"]}]
  })"));
}

cli::Manifest search_manifest() {
  return cli::parse_manifest(common::json::parse(R"({
    "name": "serve_search",
    "search": {
      "network": "lstm",
      "bitwidth_mode": "heterogeneous",
      "space": {"cvu_slice_bits": [2, 4], "cvu_lanes": [4, 16]},
      "strategy": "grid",
      "objectives": ["cycles", "energy"]
    }
  })"));
}

/// Counter fields only (timings are run-dependent by nature).
void expect_counters_eq(const engine::EngineStats& a,
                        const engine::EngineStats& b) {
  EXPECT_EQ(a.scenarios_submitted, b.scenarios_submitted);
  EXPECT_EQ(a.simulations_run, b.simulations_run);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.layers_priced, b.layers_priced);
  EXPECT_EQ(a.layer_cache_hits, b.layer_cache_hits);
  EXPECT_EQ(a.disk_hits, b.disk_hits);
  EXPECT_EQ(a.disk_misses, b.disk_misses);
  EXPECT_EQ(a.disk_stores, b.disk_stores);
}

// ----- warm caches and per-request deltas ------------------------------

TEST(Session, WarmRepeatRequestPricesNothing) {
  Session session;
  PriceRequest request;
  request.manifest = grid_manifest();
  request.deterministic_report = true;

  const Response cold = session.price(request);
  ASSERT_FALSE(cold.cancelled);
  EXPECT_EQ(cold.delta.scenarios_submitted, 4u);
  EXPECT_EQ(cold.delta.simulations_run, 4u);
  EXPECT_EQ(cold.delta.cache_hits, 0u);

  const Response warm = session.price(request);
  EXPECT_EQ(warm.delta.scenarios_submitted, 4u);
  EXPECT_EQ(warm.delta.simulations_run, 0u);  // every scenario memo-hit
  EXPECT_EQ(warm.delta.cache_hits, 4u);
  // The delta is per-request; the fleet remembers both requests.
  EXPECT_EQ(warm.fleet.scenarios_submitted, 8u);
  EXPECT_EQ(warm.fleet.simulations_run, 4u);

  // Deterministic-report semantics: same manifest, same bytes, whatever
  // the cache state.
  EXPECT_EQ(cold.report.dump(1), warm.report.dump(1));
}

TEST(Session, SerialRequestDeltasSumToFleetTotals) {
  Session session;
  PriceRequest price;
  price.manifest = grid_manifest();
  SearchRequest search;
  search.manifest = search_manifest();

  std::vector<engine::EngineStats> deltas;
  deltas.push_back(session.price(price).delta);
  deltas.push_back(session.search(search).delta);
  const Response last = session.price(price);
  deltas.push_back(last.delta);

  engine::EngineStats sum;
  for (const engine::EngineStats& d : deltas) {
    sum.scenarios_submitted += d.scenarios_submitted;
    sum.simulations_run += d.simulations_run;
    sum.cache_hits += d.cache_hits;
    sum.layers_priced += d.layers_priced;
    sum.layer_cache_hits += d.layer_cache_hits;
    sum.disk_hits += d.disk_hits;
    sum.disk_misses += d.disk_misses;
    sum.disk_stores += d.disk_stores;
  }
  expect_counters_eq(sum, last.fleet);
  expect_counters_eq(last.fleet, session.fleet_stats());
}

TEST(Session, ConcurrentRequestsShareWarmCaches) {
  Session session;
  PriceRequest request;
  request.manifest = grid_manifest();
  request.deterministic_report = true;

  // Warm the caches first so the concurrent requests dedupe
  // deterministically (simultaneous cold requests may race to price).
  const Response warmup = session.price(request);
  const std::size_t simulated = warmup.fleet.simulations_run;
  ASSERT_EQ(simulated, 4u);

  std::vector<std::future<Response>> inflight;
  for (int i = 0; i < 4; ++i) {
    inflight.push_back(
        session.submit([&session, request] { return session.price(request); }));
  }
  std::vector<Response> responses;
  for (auto& f : inflight) responses.push_back(f.get());

  for (const Response& r : responses) {
    ASSERT_FALSE(r.cancelled);
    EXPECT_EQ(r.delta.simulations_run, 0u);  // all served from the memo
    EXPECT_EQ(r.report.dump(1), warmup.report.dump(1));
  }
  // Nothing new was ever simulated, across the whole fleet.
  EXPECT_EQ(session.fleet_stats().simulations_run, simulated);
  EXPECT_EQ(session.fleet_stats().scenarios_submitted, 5u * 4u);
}

TEST(Session, ChunkedPricingIsCounterInvariant) {
  PriceRequest one_shot;
  one_shot.manifest = grid_manifest();
  one_shot.deterministic_report = true;
  PriceRequest chunked = one_shot;
  chunked.chunk = 1;

  Session a;
  Session b;
  const Response whole = a.price(one_shot);
  const Response parts = b.price(chunked);
  expect_counters_eq(whole.delta, parts.delta);
  EXPECT_EQ(whole.report.dump(1), parts.report.dump(1));
}

// ----- cancellation ----------------------------------------------------

TEST(Session, CancelledPriceLeavesSessionReusable) {
  Session session;
  PriceRequest request;
  request.manifest = grid_manifest();
  request.deterministic_report = true;

  CancelToken token;
  token.cancel();
  const Response cancelled = session.price(request, token);
  EXPECT_TRUE(cancelled.cancelled);
  EXPECT_TRUE(cancelled.report.is_null());
  EXPECT_EQ(cancelled.delta.simulations_run, 0u);

  const Response full = session.price(request);
  ASSERT_FALSE(full.cancelled);
  EXPECT_EQ(full.delta.simulations_run, 4u);
  EXPECT_EQ(full.report.dump(1), Session().price(request).report.dump(1));
}

TEST(Session, CancelledSearchLeavesEngineReusable) {
  Session session;
  SearchRequest request;
  request.manifest = search_manifest();

  CancelToken token;
  token.cancel();
  const Response cancelled = session.search(request, token);
  EXPECT_TRUE(cancelled.cancelled);
  EXPECT_TRUE(cancelled.report.is_null());
  EXPECT_FALSE(cancelled.search.has_value());

  // Cancel racing a live search: whichever way the race goes, the
  // session must stay consistent and serve the follow-up fully.
  CancelToken racing;
  auto future = session.submit(
      [&session, request, racing] { return session.search(request, racing); });
  racing.cancel();
  (void)future.get();

  const Response full = session.search(request);
  ASSERT_FALSE(full.cancelled);
  ASSERT_TRUE(full.search.has_value());
  EXPECT_EQ(full.search->candidates, 4u);
  EXPECT_FALSE(full.report.is_null());
}

// ----- the determinism contract vs the batch CLI -----------------------

class ServeCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "serve_cli_test_" +
           std::string(::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    manifest_path_ = dir_ + "/grid.json";
    std::ofstream out(manifest_path_);
    out << R"({
      "name": "serve_grid",
      "grids": [{"platforms": ["bpvec", "tpu_like"], "memories": ["ddr4"],
                 "networks": ["lstm", "rnn"],
                 "bitwidth_modes": ["heterogeneous"]}]
    })";
  }
  void TearDown() override { fs::remove_all(dir_); }

  int run_cli(const std::vector<std::string>& args, std::string* out_text,
              std::string* err_text = nullptr) {
    std::vector<const char*> argv{"bpvec_run"};
    for (const auto& a : args) argv.push_back(a.c_str());
    std::ostringstream out, err;
    const int rc = cli::main_cli(static_cast<int>(argv.size()), argv.data(),
                                 out, err);
    if (out_text != nullptr) *out_text = out.str();
    if (err_text != nullptr) *err_text = err.str();
    return rc;
  }

  static std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  std::string dir_;
  std::string manifest_path_;
};

TEST_F(ServeCliTest, ServedReportBytesMatchBatchCli) {
  const std::string report_path = dir_ + "/batch.json";
  std::string text;
  ASSERT_EQ(run_cli({manifest_path_, "--deterministic-report", "--report",
                     report_path, "--no-table"},
                    &text),
            0)
      << text;

  Session session;
  PriceRequest request;
  request.manifest = cli::load_manifest(manifest_path_);
  request.deterministic_report = true;
  const Response served = session.price(request);
  EXPECT_EQ(served.report.dump(1), slurp(report_path));
}

TEST_F(ServeCliTest, ValidateAndListTextsMatchBatchCli) {
  std::string cli_text;
  ASSERT_EQ(run_cli({manifest_path_, "--validate"}, &cli_text), 0);
  Session session;
  ValidateRequest request;
  request.manifest = cli::load_manifest(manifest_path_);
  EXPECT_EQ(session.validate(request).text, cli_text);

  std::string list_text;
  ASSERT_EQ(run_cli({"list"}, &list_text), 0);
  EXPECT_EQ(Session().list().text, list_text);
}

// ----- the wire protocol (transport-free) ------------------------------

TEST(Server, MalformedEnvelopesAreStructuredErrorsNotDisconnects) {
  Server server(ServerOptions{});
  const struct {
    const char* line;
    const char* expect;
  } cases[] = {
      {"this is not json", "not valid JSON"},
      {"[1, 2, 3]", "JSON object envelope"},
      {"{}", "no \"op\" string"},
      {R"({"op": 42})", "no \"op\" string"},
      {R"({"op": "frobnicate"})", "unknown op"},
      {R"({"op": "price"})", "no \"manifest\" document"},
      {R"({"op": "price", "deterministic_report": "yes", "manifest": )"
       R"({"name": "x", "grids": [{"platforms": ["bpvec"], )"
       R"("memories": ["ddr4"], "networks": ["lstm"], )"
       R"("bitwidth_modes": ["heterogeneous"]}]}})",
       "must be a bool"},
      {R"({"op": "price", "manifest": {"name": "x"}})",
       "manifest needs \"grids\""},
  };
  for (const auto& c : cases) {
    const Value response = server.handle_line(c.line);
    ASSERT_TRUE(response.is_object()) << c.line;
    EXPECT_EQ(response.at("status").as_string(), "error") << c.line;
    EXPECT_NE(response.at("error").as_string().find(c.expect),
              std::string::npos)
        << c.line << " -> " << response.at("error").as_string();
  }
  // The server object survived every bad envelope and still serves.
  EXPECT_EQ(server.handle_line(R"({"op": "ping"})").at("status").as_string(),
            "ok");
}

TEST(Server, VersionStatsAndPriceOpsRoundTrip) {
  Server server(ServerOptions{});

  const Value version = server.handle_line(R"({"op": "version"})");
  ASSERT_EQ(version.at("status").as_string(), "ok");
  const Value& doc = version.at("version");
  EXPECT_EQ(doc.at("name").as_string(), "bpvec");
  EXPECT_FALSE(doc.at("simd_variant").as_string().empty());
  EXPECT_EQ(doc.at("disk_cache_format_version").as_int(),
            engine::DiskCache::kFormatVersion);

  Value envelope = common::json::parse(R"({
    "op": "price", "deterministic_report": true,
    "manifest": {
      "name": "serve_grid",
      "grids": [{"platforms": ["bpvec"], "memories": ["ddr4"],
                 "networks": ["lstm"], "bitwidth_modes": ["heterogeneous"]}]
    }})");
  const Value priced = server.handle(envelope);
  ASSERT_EQ(priced.at("status").as_string(), "ok");
  EXPECT_EQ(priced.at("report").at("scenario_count").as_int(), 1);
  EXPECT_EQ(priced.at("delta").at("simulations_run").as_int(), 1);

  const Value stats = server.handle_line(R"({"op": "stats"})");
  ASSERT_EQ(stats.at("status").as_string(), "ok");
  const Value& body = stats.at("stats");
  EXPECT_EQ(body.at("requests").at("price").at("completed").as_int(), 1);
  EXPECT_EQ(body.at("fleet").at("simulations_run").as_int(), 1);
  EXPECT_EQ(body.at("cache_hit_rates").at("scenario_memo").as_double(), 0.0);
}

TEST(Session, StatsJsonReportsWeightPlaneHitRate) {
  Session session;
  PriceRequest request;
  request.manifest = cli::parse_manifest(common::json::parse(R"({
    "name": "weight_rate_grid",
    "grids": [{"platforms": ["bpvec"], "memories": ["ddr4"],
               "networks": ["alexnet"], "bitwidth_modes": ["homogeneous_8b"],
               "backends": ["functional"]}]
  })"));
  (void)session.price(request);
  const Value stats = session.stats_json();
  const Value& rates = stats.at("cache_hit_rates");
  const double rate = rates.at("weight_plane").as_double();
  EXPECT_GE(rate, 0.0);
  EXPECT_LE(rate, 1.0);
  // The functional run drew weights, so the fleet counters are nonzero.
  const Value& fleet = stats.at("fleet");
  EXPECT_GT(fleet.at("weight_cache_hits").as_int() +
                fleet.at("weight_cache_misses").as_int(),
            0);
}

// ----- main_cli usage-error paths --------------------------------------

TEST_F(ServeCliTest, UsageErrorPaths) {
  std::string out, err;

  // No manifest and no `list`: usage on stderr, exit 2.
  EXPECT_EQ(run_cli({}, &out, &err), 2);
  EXPECT_NE(err.find("usage: bpvec_run"), std::string::npos);

  // --help: usage on stdout, success.
  EXPECT_EQ(run_cli({"--help"}, &out, &err), 0);
  EXPECT_NE(out.find("usage: bpvec_run"), std::string::npos);

  // --version: the build-identity document, success.
  EXPECT_EQ(run_cli({"--version"}, &out, &err), 0);
  EXPECT_NE(out.find("\"name\": \"bpvec\""), std::string::npos);
  EXPECT_NE(out.find("simd_variant"), std::string::npos);

  EXPECT_EQ(run_cli({manifest_path_, "--frobnicate"}, &out, &err), 1);
  EXPECT_NE(err.find("unknown flag: --frobnicate"), std::string::npos);

  EXPECT_EQ(run_cli({manifest_path_, "extra.json"}, &out, &err), 1);
  EXPECT_NE(err.find("more than one manifest given"), std::string::npos);

  EXPECT_EQ(run_cli({manifest_path_, "--threads"}, &out, &err), 1);
  EXPECT_NE(err.find("--threads requires a value"), std::string::npos);

  EXPECT_EQ(run_cli({"list", manifest_path_}, &out, &err), 1);
  EXPECT_NE(err.find("`list` takes no manifest"), std::string::npos);

  EXPECT_EQ(run_cli({"search", "list"}, &out, &err), 1);
  EXPECT_NE(err.find("mutually exclusive subcommands"), std::string::npos);
}

}  // namespace
}  // namespace bpvec::serve
