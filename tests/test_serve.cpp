// The serving layer end to end: warm-cache dedup across repeat and
// concurrent requests on one Session, per-request stats deltas summing
// to the fleet totals, cooperative cancellation leaving the engine
// reusable, served report bytes matching the batch CLI's (the
// determinism contract), malformed protocol envelopes becoming
// structured errors, Server::run's socket loop, main_cli's usage-error
// paths, and the built bpvec_serve daemon and request client run as
// processes against the committed report goldens.
#include "src/serve/session.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/cli/manifest.h"
#include "src/cli/report.h"
#include "src/common/error.h"
#include "src/common/json.h"
#include "src/common/thread_pool.h"
#include "src/engine/disk_cache.h"
#include "src/engine/sim_engine.h"
#include "src/serve/driver.h"
#include "src/serve/server.h"
#include "src/workload/network_registry.h"
#include "tests/child_process.h"

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

const fs::path kRepo = fs::path(__FILE__).parent_path().parent_path();

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
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
  // Over a cache dir holding a torn shard: the first request builds the
  // engine, so its delta carries the dir scan's open and reject.
  const std::string dir = "serve_session_deltas_cache";
  fs::remove_all(dir);
  {
    const engine::DiskCache torn(dir);
    ASSERT_TRUE(torn.store(1, sim::RunResult{}));
    const std::string shard = torn.shard_paths().at(0);
    fs::resize_file(shard, fs::file_size(shard) - 4);
  }
  SessionOptions options;
  options.cache_dir = dir;
  Session session(options);
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
    sum.disk_rejected += d.disk_rejected;
    sum.disk_file_opens += d.disk_file_opens;
  }
  EXPECT_GE(deltas.front().disk_rejected, 1u);
  expect_counters_eq(sum, last.fleet);
  EXPECT_EQ(sum.disk_rejected, last.fleet.disk_rejected);
  EXPECT_EQ(sum.disk_file_opens, last.fleet.disk_file_opens);
  expect_counters_eq(last.fleet, session.fleet_stats());
  fs::remove_all(dir);
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
  // 50 networks × 3 platforms × 2 memories = 300 scenarios: more than
  // one of price()'s 256-scenario batches.
  PriceRequest request;
  request.manifest = cli::parse_manifest(common::json::parse(R"({
    "name": "serve_batches",
    "workloads": [{"generator": "mlp_family",
                   "depth": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
                   "width": [16, 32, 64, 128, 256]}],
    "grids": [{"platforms": ["bpvec", "tpu_like", "bitfusion"],
               "memories": ["ddr4", "hbm2"], "networks": ["workloads"],
               "bitwidth_modes": ["heterogeneous"]}]
  })"));
  request.deterministic_report = true;
  const std::vector<engine::Scenario> scenarios =
      cli::expand(request.manifest);
  ASSERT_GT(scenarios.size(), 256u);

  Session session;
  const Response batched = session.price(request);
  ASSERT_FALSE(batched.cancelled);

  engine::SimEngine direct;
  const std::vector<sim::RunResult> results = direct.run_batch(scenarios);
  expect_counters_eq(batched.delta, direct.stats());
  EXPECT_EQ(batched.report.dump(1),
            cli::build_report(request.manifest.name, scenarios, results,
                              direct.stats(), false)
                .dump(1));
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
    const int rc = main_cli(static_cast<int>(argv.size()), argv.data(),
                            out, err);
    if (out_text != nullptr) *out_text = out.str();
    if (err_text != nullptr) *err_text = err.str();
    return rc;
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
      {R"({"op": "price", "chunk": 4, "manifest": {"name": "x"}})",
       "unknown key \"chunk\""},
      // Wrong-typed fields name the field.
      {R"({"op": "validate", "network_files": [3], "manifest": {}})",
       "\"network_files\" must contain only strings"},
      {R"({"op": "validate", "network_files": "a.json", "manifest": {}})",
       "\"network_files\" must be a non-empty array of strings"},
      {R"({"op": "validate", "base_dir": 1, "manifest": {}})",
       "\"base_dir\" must be a string"},
      {R"({"op": "validate", "search": "no", "manifest": {}})",
       "\"search\" must be a boolean"},
      // A misspelled key is an error, not a silently ignored field.
      {R"({"op": "validate", "determinstic_report": true, "manifest": {}})",
       "unknown key \"determinstic_report\""},
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

TEST(Server, EnvelopesAreValidatedWholeBeforeNetworkFilesRegister) {
  const fs::path dir =
      fs::temp_directory_path() / "bpvec_serve_envelope_order";
  fs::create_directories(dir);
  const fs::path file = dir / "net.json";
  std::ofstream(file) << R"({"name": "serve_envelope_probe", "layers": [)"
                         R"({"kind": "fc", "name": "f", "in_features": 4, )"
                         R"("out_features": 4}]})";
  const std::string files = R"("network_files": [")" + file.string() + "\"]";
  const auto& registry = workload::NetworkRegistry::instance();
  Server server(ServerOptions{});

  for (const std::string& bad :
       {R"({"op": "frobnicate", )" + files + "}",
        R"({"op": "price", "deterministic_report": "yes", "manifest": {}, )" +
            files + "}",
        R"({"op": "ping", "typo": 1, )" + files + "}"}) {
    EXPECT_EQ(server.handle_line(bad).at("status").as_string(), "error")
        << bad;
    EXPECT_FALSE(registry.contains("serve_envelope_probe")) << bad;
  }
  EXPECT_EQ(server.handle_line(R"({"op": "ping", )" + files + "}")
                .at("status")
                .as_string(),
            "ok");
  EXPECT_TRUE(registry.contains("serve_envelope_probe"));
  fs::remove_all(dir);
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

TEST(Server, RejectedRequestRegistersNoWorkload) {
  // A request that fails must leave the resident registry as it found
  // it: a later request may declare the same workload name with other
  // layers.
  const auto envelope = [](const std::string& op, const std::string& name,
                           int out_features, const std::string& body) {
    return common::json::parse(
        R"({"op": ")" + op + R"(", "deterministic_report": true,
            "manifest": {"name": "reject_probe", "workloads": [
              {"network": {"name": ")" + name + R"(", "layers": [
                {"kind": "fc", "name": "f", "in_features": 8,
                 "out_features": )" + std::to_string(out_features) +
        R"(}]}}], )" + body + "}}");
  };
  const auto grid = [](const std::string& extra) {
    return R"("grids": [{"platforms": ["bpvec"], "memories": ["ddr4"],
               "networks": ["workloads"],
               "bitwidth_modes": ["heterogeneous"])" + extra + "}]";
  };
  const auto search = [](const std::string& name, const std::string& extra) {
    return R"("search": {"network": ")" + name +
           R"(", "bitwidth_mode": "heterogeneous",
               "space": {"cvu_lanes": [4, 16]})" + extra + "}";
  };
  const struct {
    const char* op;
    const char* name;
    std::string bad_body;
    std::string good_body;
    const char* expect;
  } cases[] = {
      {"price", "reject_probe_override",
       grid(R"(, "memory_overrides": {"bandwidth_gbps": 0})"), grid(""),
       "memory_overrides produce an invalid memory system"},
      {"price", "reject_probe_backend", grid(R"(, "backends": ["nope"])"),
       grid(""), "unknown backend \"nope\""},
      {"search", "reject_probe_search",
       search("reject_probe_search", R"(, "backend": "nope")"),
       search("reject_probe_search", ""), "unknown backend \"nope\""},
  };
  Server server(ServerOptions{});
  for (const auto& c : cases) {
    const Value rejected =
        server.handle(envelope(c.op, c.name, 2, c.bad_body));
    ASSERT_EQ(rejected.at("status").as_string(), "error") << c.name;
    EXPECT_NE(rejected.at("error").as_string().find(c.expect),
              std::string::npos)
        << rejected.at("error").as_string();
    EXPECT_FALSE(workload::NetworkRegistry::instance().contains(c.name))
        << c.name;
    const Value served = server.handle(envelope(c.op, c.name, 4, c.good_body));
    EXPECT_EQ(served.at("status").as_string(), "ok")
        << c.name << ": " << served.dump();
  }

  // A name collision on a manifest's second workload registers the first
  // one neither.
  const auto net = [](const std::string& name, int out_features) {
    return R"({"network": {"name": ")" + name + R"(", "layers": [
              {"kind": "fc", "name": "f", "in_features": 8,
               "out_features": )" + std::to_string(out_features) + "}]}}";
  };
  const auto price_nets = [&](const std::string& workloads) {
    return server.handle(common::json::parse(
        R"({"op": "price", "deterministic_report": true, "manifest":
            {"name": "reject_probe", "workloads": [)" + workloads + "], " +
        grid("") + "}}"));
  };
  ASSERT_EQ(price_nets(net("reject_probe_taken", 2)).at("status").as_string(),
            "ok");
  const Value collided = price_nets(net("reject_probe_fresh", 2) + ", " +
                                    net("reject_probe_taken", 4));
  ASSERT_EQ(collided.at("status").as_string(), "error");
  EXPECT_NE(collided.at("error").as_string().find(
                "workloads[1]: NetworkRegistry: network "
                "\"reject_probe_taken\" is already registered"),
            std::string::npos)
      << collided.at("error").as_string();
  EXPECT_FALSE(
      workload::NetworkRegistry::instance().contains("reject_probe_fresh"));
  const Value fresh = price_nets(net("reject_probe_fresh", 4));
  EXPECT_EQ(fresh.at("status").as_string(), "ok") << fresh.dump();
}

// ----- the socket loop (Server::run) ------------------------------------

/// A short per-process temp path for a test socket.
std::string temp_socket_path() {
  return (fs::temp_directory_path() /
          ("bpvec_" + std::to_string(::getpid()) + ".sock"))
      .string();
}

/// Server::run() on its own thread over `path`. The destructor always
/// requests a stop and joins, so a failing test cannot leave the loop
/// running. A throw from run() fails the test unless `expect_error`;
/// error() returns its message.
class RunningServer {
 public:
  explicit RunningServer(std::string path = temp_socket_path(),
                         bool expect_error = false)
      : path_(std::move(path)) {
    ServerOptions options;
    options.socket_path = path_;
    options.session.threads = 1;
    server_ = std::make_unique<Server>(options);
    thread_ = std::thread([this, expect_error] {
      try {
        server_->run();
      } catch (const std::exception& e) {
        if (!expect_error) ADD_FAILURE() << "Server::run: " << e.what();
        error_ = e.what();
      }
      returned_.store(true);
    });
  }
  ~RunningServer() {
    server_->request_stop();
    thread_.join();
  }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

  /// A connected client socket with 10 s send/receive timeouts; retries
  /// while the server thread is still binding.
  int connect() const {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path_.size() >= sizeof addr.sun_path) {
      ADD_FAILURE() << "socket path too long: " << path_;
      return -1;
    }
    std::memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);
    const timeval timeout{10, 0};
    for (int attempt = 0; attempt < 500; ++attempt) {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd < 0) break;
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof addr) == 0) {
        return fd;
      }
      ::close(fd);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ADD_FAILURE() << "cannot connect to " << path_;
    return -1;
  }

  /// Whether run() has returned, waiting up to 10 s for it.
  bool returned() const {
    for (int i = 0; i < 1000 && !returned_.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return returned_.load();
  }

  /// What run() threw, once it has returned (see returned()); empty when
  /// it is still serving or returned normally.
  std::string error() const { return returned() ? error_ : std::string(); }

 private:
  std::string path_;
  std::unique_ptr<Server> server_;
  std::string error_;  // written by the thread before returned_
  std::atomic<bool> returned_{false};
  std::thread thread_;  // last: it uses the members above
};

/// Sends all of `data`; false once the peer is gone.
bool send_bytes(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// The next reply line, parsed; JSON null on EOF, error or timeout.
Value read_reply(int fd) {
  std::string line;
  char c = 0;
  while (::recv(fd, &c, 1, 0) == 1) {
    if (c == '\n') return common::json::parse(line);
    line.push_back(c);
  }
  return Value();
}

Value round_trip(int fd, const std::string& line) {
  return send_bytes(fd, line + "\n") ? read_reply(fd) : Value();
}

std::string status_of(const Value& reply) {
  const Value* status = reply.is_object() ? reply.find("status") : nullptr;
  return status != nullptr ? status->as_string() : "(no reply)";
}

TEST(ServerSocket, RejectedShutdownLeavesTheConnectionUsable) {
  RunningServer server;
  const int fd = server.connect();
  ASSERT_GE(fd, 0);
  const Value rejected = round_trip(fd, R"({"op":"shutdown","bogus":1})");
  EXPECT_EQ(status_of(rejected), "error");
  // Errors are data, not disconnects: the same connection still serves,
  // and the daemon did not begin draining.
  EXPECT_EQ(status_of(round_trip(fd, R"({"op":"ping"})")), "ok");
  ::close(fd);
}

TEST(ServerSocket, OverLongLineIsAnErrorAndNewConnectionsServe) {
  RunningServer server;
  const int fd = server.connect();
  ASSERT_GE(fd, 0);
  (void)send_bytes(fd, std::string(Server::kMaxLineBytes + 1, ' '));
  const Value reply = read_reply(fd);
  ASSERT_EQ(status_of(reply), "error");
  EXPECT_NE(reply.at("error").as_string().find(
                std::to_string(Server::kMaxLineBytes) + " bytes"),
            std::string::npos)
      << reply.at("error").as_string();
  EXPECT_TRUE(read_reply(fd).is_null());  // that connection is closed
  ::close(fd);

  const int next = server.connect();
  ASSERT_GE(next, 0);
  EXPECT_EQ(status_of(round_trip(next, R"({"op":"ping"})")), "ok");
  ::close(next);
}

TEST(ServerSocket, PriceRepliesMatchTheInProcessOnes) {
  const std::string line =
      R"({"op": "price", "deterministic_report": true, "manifest": )"
      R"({"name": "serve_grid", "grids": [{"platforms": ["bpvec"], )"
      R"("memories": ["ddr4"], "networks": ["lstm"], )"
      R"("bitwidth_modes": ["heterogeneous"]}]}})";
  RunningServer server;
  const int fd = server.connect();
  ASSERT_GE(fd, 0);
  Value reply = round_trip(fd, line);
  while (status_of(reply) == "running") reply = read_reply(fd);
  ASSERT_EQ(status_of(reply), "ok");
  EXPECT_EQ(reply.at("report").dump(1),
            Server(ServerOptions{}).handle_line(line).at("report").dump(1));
  ::close(fd);
}

TEST(ServerSocket, ShutdownRepliesDrainingAndRunReturns) {
  RunningServer server;
  const int fd = server.connect();
  ASSERT_GE(fd, 0);
  const Value reply = round_trip(fd, R"({"op":"shutdown"})");
  ASSERT_EQ(status_of(reply), "ok");
  EXPECT_TRUE(reply.at("draining").as_bool());
  EXPECT_TRUE(read_reply(fd).is_null());  // the accepted shutdown closes
  ::close(fd);
  EXPECT_TRUE(server.returned());
}

TEST(ServerSocket, PathThatIsNotASocketIsLeftAlone) {
  const std::string path = temp_socket_path();
  std::ofstream(path) << "not a socket\n";
  const std::string error = RunningServer(path, /*expect_error=*/true).error();
  EXPECT_NE(error.find("socket path " + path + " exists and is not a socket"),
            std::string::npos)
      << error;
  std::ifstream in(path);
  std::string content;
  std::getline(in, content);
  EXPECT_EQ(content, "not a socket");
  fs::remove(path);
}

TEST(ServerSocket, LiveDaemonKeepsItsSocket) {
  RunningServer live;
  const int fd = live.connect();  // bound and accepting
  ASSERT_GE(fd, 0);
  ::close(fd);
  const std::string error =
      RunningServer(temp_socket_path(), /*expect_error=*/true).error();
  EXPECT_NE(error.find("is in use by a running server"), std::string::npos)
      << error;
  // The live daemon still answers on its path.
  const int next = live.connect();
  ASSERT_GE(next, 0);
  EXPECT_EQ(status_of(round_trip(next, R"({"op":"ping"})")), "ok");
  ::close(next);
}

TEST(ServerSocket, ListenBindsBeforeRunAndThrowsOnATakenPath) {
  // bpvec_serve prints its "listening on" line between listen() and
  // run(), so listen() alone must bind, and must throw on a taken path.
  const std::string path = temp_socket_path();
  std::ofstream(path) << "not a socket\n";
  ServerOptions options;
  options.socket_path = path;
  options.session.threads = 1;
  EXPECT_THROW(Server(options).listen(), Error);
  EXPECT_TRUE(fs::is_regular_file(path));
  fs::remove(path);

  Server server(options);
  server.listen();
  EXPECT_TRUE(fs::is_socket(path));
  server.request_stop();
  server.run();  // already bound: drains at once and removes its socket
  EXPECT_FALSE(fs::exists(path));
}

// ----- the built daemon and its request client -------------------------

std::string golden(const std::string& stem) {
  return slurp(kRepo / "tests/golden" / (stem + ".json"));
}

/// bpvec_serve run as processes. Each test has its own directory (the
/// processes' cwd, their output files and the cache dir) and its own
/// socket path; a daemon still running at the end is killed.
class ServeBinary : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string tag = "bpvec_bin_" + std::to_string(::getpid());
    dir_ = fs::temp_directory_path() / tag;
    socket_ = (fs::temp_directory_path() / (tag + ".sock")).string();
    fs::remove_all(dir_);
    fs::remove(socket_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    daemon_.reset();
    fs::remove(socket_);
    fs::remove_all(dir_);
  }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// A `bpvec_serve` run to completion with stdout and stderr to
  /// `<dir>/<name>.log`; returns its exit code.
  int serve(const std::string& name, std::vector<std::string> args) {
    args.insert(args.begin(), BPVEC_SERVE_BIN);
    return test::ChildProcess(args, dir_.string(), path(name + ".log"))
        .wait();
  }

  /// `bpvec_serve request` on this test's socket; see serve().
  int request(const std::string& name, std::vector<std::string> args) {
    args.insert(args.begin(), {"request", "--socket", socket_});
    return serve(name, std::move(args));
  }

  /// Starts the daemon, output to serve.log, and waits until it has bound
  /// its socket and said so; false if it exits or takes 30 s instead.
  bool start_daemon() {
    daemon_ = std::make_unique<test::ChildProcess>(
        std::vector<std::string>{BPVEC_SERVE_BIN, "--socket", socket_,
                                 "--threads", "2", "--cache-dir",
                                 path("cache")},
        dir_.string(), path("serve.log"));
    const std::string line = "[bpvec_serve] listening on " + socket_ + "\n";
    for (int i = 0; i < 3000; ++i) {
      if (daemon_->wait(std::chrono::milliseconds(0)) !=
          test::ChildProcess::kRunning) {
        return false;
      }
      if (fs::is_socket(socket_) &&
          slurp(path("serve.log")).find(line) != std::string::npos) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }

  fs::path dir_;
  std::string socket_;
  std::unique_ptr<test::ChildProcess> daemon_;
};

TEST_F(ServeBinary, StartOnARegularFileFailsWithoutListening) {
  std::ofstream(socket_) << "not a socket\n";
  const int rc = serve("taken", {"--socket", socket_});
  const std::string log = slurp(path("taken.log"));
  EXPECT_EQ(rc, 1) << log;
  EXPECT_EQ(slurp(socket_), "not a socket\n");
  EXPECT_EQ(log.find("listening on"), std::string::npos) << log;
}

TEST_F(ServeBinary, SecondDaemonOnALiveSocketFailsWithoutListening) {
  ASSERT_TRUE(start_daemon()) << slurp(path("serve.log"));
  const int rc = serve("second", {"--socket", socket_});
  const std::string log = slurp(path("second.log"));
  EXPECT_EQ(rc, 1) << log;
  EXPECT_EQ(log.find("listening on"), std::string::npos) << log;
  // The first daemon keeps its socket, its log line, and serves.
  EXPECT_TRUE(fs::is_socket(socket_));
  EXPECT_NE(slurp(path("serve.log")).find("listening on " + socket_),
            std::string::npos);
  EXPECT_EQ(request("ping", {"--op", "ping"}), 0) << slurp(path("ping.log"));
}

TEST_F(ServeBinary, ServesTheGoldensColdAndWarmThenDrains) {
  ASSERT_TRUE(start_daemon()) << slurp(path("serve.log"));
  const std::string manifests = (kRepo / "bench/manifests").string();
  const std::string ci_gate = golden("ci_gate");
  ASSERT_FALSE(ci_gate.empty());

  // The committed ci_gate manifest served twice by one daemon: the cold
  // and the warm report both equal the golden (served == batch CLI).
  for (const std::string pass : {"cold", "warm"}) {
    ASSERT_EQ(request(pass, {"--manifest", manifests + "/ci_gate.json",
                             "--deterministic-report", "--report",
                             path(pass + ".json")}),
              0)
        << slurp(path(pass + ".log"));
    EXPECT_EQ(slurp(path(pass + ".json")), ci_gate) << pass << " report";
  }

  // Both requests submitted every scenario; only the first simulated.
  ASSERT_EQ(request("stats", {"--op", "stats"}), 0)
      << slurp(path("stats.log"));
  const Value stats = common::json::parse(slurp(path("stats.log")));
  const std::int64_t n =
      common::json::parse(ci_gate).at("scenario_count").as_int();
  const Value& fleet = stats.at("fleet");
  EXPECT_EQ(stats.at("requests").at("price").at("completed").as_int(), 2);
  EXPECT_EQ(fleet.at("scenarios_submitted").as_int(), 2 * n);
  EXPECT_EQ(fleet.at("simulations_run").as_int(), n);
  EXPECT_EQ(fleet.at("cache_hits").as_int(), n);

  // A price request whose file workloads resolve against the envelope's
  // base_dir, and a search request.
  ASSERT_EQ(request("custom_net", {"--manifest",
                                   manifests + "/custom_net.json",
                                   "--deterministic-report", "--report",
                                   path("custom_net.json")}),
            0)
      << slurp(path("custom_net.log"));
  EXPECT_EQ(slurp(path("custom_net.json")), golden("custom_net"));
  ASSERT_EQ(request("dse_smoke", {"--op", "search", "--manifest",
                                  manifests + "/dse_smoke.json",
                                  "--deterministic-report", "--report",
                                  path("dse_smoke.json")}),
            0)
      << slurp(path("dse_smoke.log"));
  EXPECT_EQ(slurp(path("dse_smoke.json")), golden("dse_smoke"));

  // shutdown drains: the daemon exits 0 and removes its socket.
  ASSERT_EQ(request("shutdown", {"--op", "shutdown"}), 0)
      << slurp(path("shutdown.log"));
  EXPECT_EQ(daemon_->wait(std::chrono::seconds(30)), 0);
  EXPECT_FALSE(fs::exists(socket_));
  const std::string log = slurp(path("serve.log"));
  const std::string drained = "[bpvec_serve] drained\n";
  EXPECT_TRUE(log.size() >= drained.size() &&
              log.compare(log.size() - drained.size(), drained.size(),
                          drained) == 0)
      << log;
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

  // --threads takes the whole value as an integer and names itself.
  EXPECT_EQ(run_cli({manifest_path_, "--threads", "abc"}, &out, &err), 1);
  EXPECT_NE(err.find("--threads expects an integer, got \"abc\""),
            std::string::npos)
      << err;
  EXPECT_EQ(run_cli({manifest_path_, "--threads", "3x"}, &out, &err), 1);
  EXPECT_NE(err.find("--threads expects an integer, got \"3x\""),
            std::string::npos)
      << err;
  EXPECT_EQ(run_cli({manifest_path_, "--threads", ""}, &out, &err), 1);
  EXPECT_NE(err.find("--threads expects an integer, got \"\""),
            std::string::npos)
      << err;
  // A count above the pool's bound is refused before any thread starts.
  const std::string at_most =
      "--threads must be at most " +
      std::to_string(common::ThreadPool::kMaxThreads) + ", got ";
  EXPECT_EQ(run_cli({manifest_path_, "--threads", "100000"}, &out, &err), 1);
  EXPECT_NE(err.find(at_most + "100000"), std::string::npos) << err;
  EXPECT_EQ(run_cli({manifest_path_, "--threads", "99999999999"}, &out, &err),
            1);
  EXPECT_NE(err.find(at_most + "99999999999"), std::string::npos) << err;

  // The same parser reads bpvec_serve's --threads.
  const auto parse_threads = [](const std::string& value) {
    return parse_int_flag("--threads", value,
                          std::numeric_limits<int>::min(),
                          common::ThreadPool::kMaxThreads);
  };
  EXPECT_EQ(parse_threads("-7"), -7);
  EXPECT_THROW(parse_threads("7 "), Error);
  EXPECT_THROW(parse_threads("+7"), Error);
  try {
    parse_threads("-99999999999999999999");
    ADD_FAILURE() << "expected a bpvec::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--threads must be at least "),
              std::string::npos)
        << e.what();
  }

  EXPECT_EQ(run_cli({"list", manifest_path_}, &out, &err), 1);
  EXPECT_NE(err.find("`list` takes no manifest"), std::string::npos);

  EXPECT_EQ(run_cli({"search", "list"}, &out, &err), 1);
  EXPECT_NE(err.find("mutually exclusive subcommands"), std::string::npos);
}

}  // namespace
}  // namespace bpvec::serve
