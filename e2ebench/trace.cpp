// e2e_trace — the end-to-end benchmark's traced replay.
//
// Replays a sample of one workload's requests in-process and times the
// calls into each module's public functions:
//
//   cli       parse_manifest + expand, build_report + dump(1), and a
//             `bpvec_run --version` spawn
//   serve     Server::handle_line, Session::price/search, and the socket
//             round trip through a live Server::run
//   engine    timed run_batch calls with SimEngine::stats() deltas
//   disk      inspect_cache_dir and a timed DiskCache open
//   dse       run_search, and its time outside the engine's phases
//   workload  generate over the sample's generator specs
//   backend   price_layer per cost backend over the sample's layers
//   kernels,  pack_values and the packed kernels on the probe operands of
//   dnn,      FunctionalBackend::probe_layer, the reference operators and
//   core      the scalar-CVU check (core::execute_gemm)
//
// Each pass replays the whole sample from the state a fresh run starts in
// (fresh engines, fresh cache dir, fresh server, empty weight-plane cache);
// passes repeat until --seconds is spent. Spans are kept in memory and
// written as Chrome trace-event JSON when the run ends. The per-layer
// metrics go to stdout as one JSON line: {"attempted", "failed", "metrics":
// {name: {"value", "unit"}}}. A request fails when it throws, when a reply
// is an error, or when its report differs between the engine path,
// Server::handle_line cold and warm, and Session; a layer probe fails when a
// packed kernel disagrees with its reference operator.
//
//   e2e_trace --requests FILE --seconds S --threads N
//             --engine-scope request|pass --cache shared|none --work DIR
//             --bpvec-run PATH --trace-out FILE
//
// --engine-scope request gives every request a fresh engine (what each
// bpvec_run process does); pass shares one engine across a pass (what the
// daemon does). --cache shared gives each pass one fresh disk-cache dir.
// DIR should be a short relative path: the pass's server socket lives in
// it. The requests file is {"base_dir": DIR, "requests": [{"op": "price" |
// "search", "manifest": {...}}, ...]}.
#include <fcntl.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/backend/backend_registry.h"
#include "src/backend/functional_backend.h"
#include "src/bitslice/cvu.h"
#include "src/cli/manifest.h"
#include "src/cli/report.h"
#include "src/common/error.h"
#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/core/gemm_executor.h"
#include "src/dnn/gemm_lowering.h"
#include "src/dnn/reference_ops.h"
#include "src/dse/search.h"
#include "src/dse/strategy.h"
#include "src/engine/disk_cache.h"
#include "src/engine/sim_engine.h"
#include "src/kernels/bitplane.h"
#include "src/kernels/packed_kernels.h"
#include "src/kernels/weight_cache.h"
#include "src/serve/server.h"
#include "src/workload/generators.h"

extern char** environ;

namespace {

namespace fs = std::filesystem;
using namespace bpvec;
using common::json::Value;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ------------------------------------------------------------------ spans

/// Spans recorded around calls into the layers, kept in memory until the
/// run ends. tid 1 is the engine path, 2 the serve path, 3 the layer
/// probes; spans of one replayed request share its request id.
class Tracer {
 public:
  /// Runs fn() inside one span and returns its duration in ms.
  template <typename F>
  double span(const std::string& name, int tid, int request, F&& fn) {
    const Clock::time_point t0 = Clock::now();
    fn();
    const Clock::time_point t1 = Clock::now();
    add(name, tid, request, t0, t1);
    return ms_between(t0, t1);
  }

  void add(const std::string& name, int tid, int request,
           Clock::time_point t0, Clock::time_point t1) {
    spans_.push_back({name, ms_between(origin_, t0) * 1e3,
                      ms_between(t0, t1) * 1e3, tid, request});
  }

  /// Chrome trace-event document (complete "X" events, microseconds).
  Value to_json() const {
    Value events = Value::array();
    for (const Span& s : spans_) {
      Value e = Value::object();
      e.set("name", s.name);
      e.set("cat", s.name.substr(0, s.name.find('.')));
      e.set("ph", "X");
      e.set("ts", s.start_us);
      e.set("dur", s.dur_us);
      e.set("pid", 1);
      e.set("tid", s.tid);
      Value args = Value::object();
      args.set("request", s.request);
      e.set("args", std::move(args));
      events.push_back(std::move(e));
    }
    Value doc = Value::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ms");
    return doc;
  }

 private:
  struct Span {
    std::string name;
    double start_us;
    double dur_us;
    int tid;
    int request;  // -1 outside a request
  };

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------- samples

class Samples {
 public:
  void add(const std::string& name, double v) { v_[name].push_back(v); }

  double median(const std::string& name) const {
    const std::vector<double>* v = find(name);
    if (v == nullptr) return 0.0;
    std::vector<double> s = *v;
    std::sort(s.begin(), s.end());
    const std::size_t n = s.size();
    return n % 2 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
  }

  double mean(const std::string& name) const {
    const std::vector<double>* v = find(name);
    if (v == nullptr) return 0.0;
    double sum = 0.0;
    for (double x : *v) sum += x;
    return sum / static_cast<double>(v->size());
  }

 private:
  const std::vector<double>* find(const std::string& name) const {
    auto it = v_.find(name);
    return it == v_.end() || it->second.empty() ? nullptr : &it->second;
  }

  std::map<std::string, std::vector<double>> v_;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------- helpers

struct Options {
  std::string requests_path;
  double seconds = 10.0;
  int threads = 1;
  bool engine_per_request = true;
  bool shared_cache = false;
  std::string work;
  std::string bpvec_run;
  std::string trace_out;
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw Error(arg + " requires a value");
    const std::string v = argv[++i];
    if (arg == "--requests") {
      o.requests_path = v;
    } else if (arg == "--seconds") {
      o.seconds = std::stod(v);
    } else if (arg == "--threads") {
      o.threads = std::stoi(v);
    } else if (arg == "--engine-scope" && (v == "request" || v == "pass")) {
      o.engine_per_request = v == "request";
    } else if (arg == "--cache" && (v == "shared" || v == "none")) {
      o.shared_cache = v == "shared";
    } else if (arg == "--work") {
      o.work = v;
    } else if (arg == "--bpvec-run") {
      o.bpvec_run = v;
    } else if (arg == "--trace-out") {
      o.trace_out = v;
    } else {
      throw Error("bad argument: " + arg + " " + v);
    }
  }
  if (o.requests_path.empty() || o.work.empty() || o.bpvec_run.empty() ||
      o.trace_out.empty()) {
    throw Error(
        "usage: e2e_trace --requests FILE --seconds S --threads N "
        "--engine-scope request|pass --cache shared|none --work DIR "
        "--bpvec-run PATH --trace-out FILE");
  }
  return o;
}

struct Request {
  std::string op;  // "price" | "search"
  Value manifest;
  std::string line;  // the serve envelope
};

/// A report serialized as bpvec_run writes it, minus the measured wall
/// times of functional scenarios (the one field that differs between two
/// executions of the same request).
std::string comparable(const Value& report) {
  const Value* rows = report.find("scenarios");
  if (rows == nullptr) return report.dump(1);
  Value stripped = Value::array();
  for (const Value& row : rows->as_array()) {
    Value copy = Value::object();
    for (const auto& [key, value] : row.members()) {
      if (key != "measured_wall_s") copy.set(key, value);
    }
    stripped.push_back(std::move(copy));
  }
  Value out = report;
  out.set("scenarios", std::move(stripped));
  return out.dump(1);
}

/// The comparable report of an ok reply.
std::string report_of(const Value& reply) {
  const Value* status = reply.find("status");
  const Value* report = reply.find("report");
  if (status == nullptr || !status->is_string() ||
      status->as_string() != "ok" || report == nullptr) {
    throw Error("reply is not ok: " + reply.dump().substr(0, 300));
  }
  return comparable(*report);
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw Error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  for (int attempt = 0; attempt < 20000; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw Error("socket(): " + std::string(std::strerror(errno)));
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  throw Error("cannot connect to " + path);
}

/// Sends one envelope and reads through its final reply; returns the
/// number of heartbeats that preceded it.
std::size_t round_trip(int fd, const std::string& line, std::string& buffer) {
  const std::string out = line + "\n";
  for (std::size_t off = 0; off < out.size();) {
    const ssize_t n =
        ::send(fd, out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) throw Error("send(): " + std::string(std::strerror(errno)));
    off += static_cast<std::size_t>(n);
  }
  std::size_t beats = 0;
  char chunk[1 << 16];
  while (true) {
    std::size_t pos;
    while ((pos = buffer.find('\n')) != std::string::npos) {
      const std::string reply = buffer.substr(0, pos);
      buffer.erase(0, pos + 1);
      if (reply.rfind("{\"status\":\"running\"", 0) == 0) {
        ++beats;
        continue;
      }
      if (reply.rfind("{\"status\":\"ok\"", 0) != 0) {
        throw Error("socket reply is not ok: " + reply.substr(0, 300));
      }
      return beats;
    }
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw Error("the server closed the connection");
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

dnn::Matrix head_rows(const dnn::Matrix& m, std::int64_t n) {
  dnn::Matrix out;
  out.rows = std::min(n, m.rows);
  out.cols = m.cols;
  out.data.assign(m.data.begin(),
                  m.data.begin() + static_cast<std::ptrdiff_t>(out.rows * m.cols));
  return out;
}

int ceil_log2(std::int64_t v) {
  int b = 0;
  while ((std::int64_t{1} << b) < v) ++b;
  return b;
}

// ------------------------------------------------------------- the replay

class Replay {
 public:
  Replay(Options options, std::vector<Request> requests, std::string base)
      : o_(std::move(options)),
        requests_(std::move(requests)),
        base_dir_(std::move(base)) {}

  void run() {
    const Clock::time_point start = Clock::now();
    do {
      pass();
    } while (ms_between(start, Clock::now()) < o_.seconds * 1e3);
    probe_layers();
    probe_spawn();
  }

  Value result() const;
  const Tracer& tracer() const { return tr_; }

 private:
  void pass();
  std::string engine_path(const Request& r, engine::SimEngine* shared,
                          const std::string& cache_dir);
  void serve_path(const std::string& dir,
                  const std::vector<std::string>& engine_reports);
  void serve_request(serve::Server& server, const Request& r,
                     const std::string& engine_report, int fd,
                     std::string& buffer);
  void probe_disk(const std::string& cache_dir);
  void probe_layers();
  void probe_kernels(const dnn::Layer& layer,
                     const sim::AcceleratorConfig& platform,
                     const arch::DramModel& memory);
  void probe_spawn();
  void fail(const std::string& what) {
    ++failed_;
    std::cerr << "e2e_trace: " << what << "\n";
  }
  void expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) fail(what);
  }
  engine::EngineOptions engine_options(const std::string& cache_dir) const {
    engine::EngineOptions eo;
    eo.num_threads = o_.threads;
    eo.disk_cache_dir = cache_dir;
    return eo;
  }

  Options o_;
  std::vector<Request> requests_;
  std::string base_dir_;
  Tracer tr_;
  Samples s_;
  int next_request_ = 0;
  int passes_ = 0;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;

  // Engine-path totals: SimEngine::stats() deltas around the timed calls.
  engine::EngineStats engine_total_;
  std::size_t engine_requests_ = 0;
  std::size_t searches_ = 0;
  std::size_t search_candidates_ = 0;
  std::size_t search_unique_ = 0;
  std::uint64_t weight_hits_ = 0;
  std::uint64_t weight_misses_ = 0;
  std::size_t heartbeats_ = 0;
  engine::CacheDirInfo disk_end_;

  // Layer-probe totals.
  double pack_ns_ = 0.0;
  double pack_elems_ = 0.0;
  double conv_s_ = 0.0, fc_s_ = 0.0, rnn_s_ = 0.0;
  double conv_macs_ = 0.0, fc_macs_ = 0.0, rnn_macs_ = 0.0;
};

void Replay::pass() {
  const std::string dir = o_.work + "/pass" + std::to_string(passes_);
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string cache_dir = o_.shared_cache ? dir + "/cache" : "";
  kernels::WeightPlaneCache& weights = kernels::WeightPlaneCache::instance();
  const std::uint64_t hits0 = weights.hits();
  const std::uint64_t misses0 = weights.misses();

  // The engine path: what one bpvec_run process (scope "request") or the
  // daemon's resident engine (scope "pass") does for each request.
  weights.clear();
  std::unique_ptr<engine::SimEngine> shared;
  if (!o_.engine_per_request) {
    shared = std::make_unique<engine::SimEngine>(engine_options(cache_dir));
  }
  std::vector<std::string> reports;
  for (const Request& r : requests_) {
    ++attempted_;
    try {
      reports.push_back(engine_path(r, shared.get(), cache_dir));
    } catch (const std::exception& e) {
      reports.emplace_back();
      fail(std::string("engine path: ") + e.what());
    }
  }
  shared.reset();
  probe_disk(o_.shared_cache ? cache_dir : dir + "/empty-cache");

  // The serve path, on a fresh server as a fresh daemon would be.
  weights.clear();
  serve_path(dir, reports);
  weight_hits_ += weights.hits() - hits0;
  weight_misses_ += weights.misses() - misses0;
  ++passes_;
}

std::string Replay::engine_path(const Request& r, engine::SimEngine* shared,
                                const std::string& cache_dir) {
  const int rid = next_request_++;
  const Clock::time_point t0 = Clock::now();
  // Each bpvec_run process starts with an empty weight-plane cache.
  if (o_.engine_per_request) kernels::WeightPlaneCache::instance().clear();

  cli::Manifest m;
  std::vector<engine::Scenario> scenarios;
  std::optional<dse::ParamSpace> space;
  std::optional<engine::Scenario> base;
  double covered = tr_.span("cli.parse_expand", 1, rid, [&] {
    m = cli::parse_manifest(r.manifest, base_dir_);
    if (r.op == "price") {
      scenarios = cli::expand(m);
    } else {
      (void)cli::register_workloads(m);
      space = cli::search_space(*m.search);
      base = cli::search_base_scenario(*m.search);
    }
  });
  s_.add("cli.parse_expand_ms", covered);

  std::unique_ptr<engine::SimEngine> own;
  engine::SimEngine* eng = shared;
  if (eng == nullptr) {
    covered += tr_.span("engine.open", 1, rid, [&] {
      own = std::make_unique<engine::SimEngine>(engine_options(cache_dir));
    });
    eng = own.get();
  }
  const engine::EngineStats before = eng->stats();
  std::vector<sim::RunResult> results;
  std::optional<dse::SearchOutcome> outcome;
  double work_ms = 0.0;
  if (r.op == "price") {
    work_ms = tr_.span("engine.run_batch", 1, rid,
                       [&] { results = eng->run_batch(scenarios); });
    s_.add("engine.run_batch_ms", work_ms);
  } else {
    // Session::search's pipeline, with the search itself timed.
    const cli::SearchSpec& spec = *m.search;
    work_ms = tr_.span("dse.run_search", 1, rid, [&] {
      dse::StrategyOptions so;
      so.budget = spec.budget;
      so.restarts = spec.restarts;
      so.population = spec.population;
      so.seed = spec.seed;
      so.objectives = spec.objectives;
      auto strategy = dse::make_strategy(spec.strategy, *space, std::move(so));
      dse::ScenarioEvaluator evaluator(*eng, *space, *base, spec.objectives,
                                       spec.mix, spec.constraints,
                                       spec.workload);
      dse::SearchOptions opts;
      opts.budget = spec.budget;
      outcome = dse::run_search(*strategy, evaluator, spec.objectives, opts);
    });
    s_.add("dse.search_ms", work_ms);
  }
  covered += work_ms;
  const engine::EngineStats delta = eng->stats() - before;
  if (outcome) {
    const double phases_ms =
        1e3 * (delta.construct_s + delta.hash_s + delta.plan_s +
               delta.price_s + delta.assemble_s);
    s_.add("dse.self_ms", work_ms - phases_ms);
    ++searches_;
    search_candidates_ += outcome->candidates;
    search_unique_ += outcome->unique_candidates;
  }
  engine::EngineStats& t = engine_total_;
  t.scenarios_submitted += delta.scenarios_submitted;
  t.simulations_run += delta.simulations_run;
  t.cache_hits += delta.cache_hits;
  t.layers_priced += delta.layers_priced;
  t.layer_cache_hits += delta.layer_cache_hits;
  t.delta_scenarios += delta.delta_scenarios;
  t.disk_hits += delta.disk_hits;
  t.disk_misses += delta.disk_misses;
  t.disk_stores += delta.disk_stores;
  t.disk_file_opens += delta.disk_file_opens;
  t.construct_s += delta.construct_s;
  t.hash_s += delta.hash_s;
  t.plan_s += delta.plan_s;
  t.price_s += delta.price_s;
  t.assemble_s += delta.assemble_s;
  ++engine_requests_;

  std::string bytes;
  const double report_ms = tr_.span("cli.report", 1, rid, [&] {
    const Value report =
        outcome ? cli::build_search_report(m.name, *m.search, *space,
                                           *outcome, delta, false)
                : cli::build_report(m.name, scenarios, results, delta, false);
    bytes = comparable(report);
  });
  s_.add("cli.report_ms", report_ms);
  covered += report_ms;
  own.reset();
  const Clock::time_point t1 = Clock::now();
  tr_.add("cli.request", 1, rid, t0, t1);
  s_.add("trace.coverage", covered / ms_between(t0, t1));
  return bytes;
}

void Replay::serve_path(const std::string& dir,
                        const std::vector<std::string>& engine_reports) {
  serve::ServerOptions so;
  so.socket_path = dir + "/s.sock";
  so.session.threads = o_.threads;
  serve::Server server(so);
  std::string server_error;
  std::thread thread([&] {
    try {
      server.run();
    } catch (const std::exception& e) {
      server_error = e.what();
    }
  });
  int fd = -1;
  try {
    fd = connect_unix(so.socket_path);
    std::string buffer;
    for (std::size_t i = 0; i < requests_.size(); ++i) {
      serve_request(server, requests_[i], engine_reports[i], fd, buffer);
    }
    for (int k = 0; k < 3; ++k) {
      Value reply;
      s_.add("serve.handle_ms.stats",
             tr_.span("serve.handle.stats", 2, -1, [&] {
               reply = server.handle_line("{\"op\":\"stats\"}");
             }));
      const Value* stats = reply.find("stats");
      expect(stats != nullptr && stats->is_object(), "stats op failed");
    }
  } catch (const std::exception& e) {
    fail(std::string("serve path: ") + e.what());
  }
  if (fd >= 0) ::close(fd);
  server.request_stop();
  thread.join();
  if (!server_error.empty()) fail("server: " + server_error);
}

void Replay::serve_request(serve::Server& server, const Request& r,
                           const std::string& engine_report, int fd,
                           std::string& buffer) {
  ++attempted_;
  const int rid = next_request_++;
  const bool price = r.op == "price";
  try {
    Value novel;
    s_.add(price ? "serve.handle_ms.price_novel" : "serve.handle_ms.search",
           tr_.span(price ? "serve.handle.price_novel" : "serve.handle.search",
                    2, rid, [&] { novel = server.handle_line(r.line); }));
    const std::string first = report_of(novel);
    if (first != engine_report) {
      fail("served report differs from the engine path's");
    }

    cli::Manifest m = cli::parse_manifest(r.manifest, base_dir_);
    serve::Response direct;
    s_.add("serve.session_ms", tr_.span("serve.session", 2, rid, [&] {
      if (price) {
        serve::PriceRequest request;
        request.manifest = std::move(m);
        request.deterministic_report = true;
        direct = server.session().price(request);
      } else {
        serve::SearchRequest request;
        request.manifest = std::move(m);
        request.deterministic_report = true;
        direct = server.session().search(request);
      }
    }));
    if (comparable(direct.report) != first) {
      fail("Session report differs from the served one");
    }
    if (!price) return;

    Value warm;
    const double warm_ms =
        tr_.span("serve.handle.price_warm", 2, rid,
                 [&] { warm = server.handle_line(r.line); });
    s_.add("serve.handle_ms.price_warm", warm_ms);
    if (report_of(warm) != first) fail("warm reply differs from the cold one");
    std::size_t beats = 0;
    const double rt = tr_.span("serve.socket_round_trip", 2, rid, [&] {
      beats = round_trip(fd, r.line, buffer);
    });
    heartbeats_ += beats;
    s_.add("serve.transport_ms", rt - warm_ms);
  } catch (const std::exception& e) {
    fail(std::string("serve request: ") + e.what());
  }
}

void Replay::probe_disk(const std::string& cache_dir) {
  if (o_.shared_cache) disk_end_ = engine::inspect_cache_dir(cache_dir);
  for (int k = 0; k < 3; ++k) {
    s_.add("disk.open_ms", tr_.span("disk.open", 3, -1, [&] {
      const engine::DiskCache cache(cache_dir);
    }));
  }
}

void Replay::probe_layers() {
  struct Site {
    dnn::Layer layer;
    sim::AcceleratorConfig platform;
    arch::DramModel memory;
  };
  std::vector<Site> sites;
  std::set<std::uint64_t> seen;
  std::vector<workload::GeneratorSpec> generators;
  auto collect = [&](const engine::Scenario& sc) {
    for (const dnn::Layer& l : sc.network.layers()) {
      if (seen.insert(backend::layer_fingerprint(l, sc.platform.time_chunk))
              .second) {
        sites.push_back({l, sc.platform, sc.memory});
      }
    }
  };
  for (const Request& r : requests_) {
    try {
      const cli::Manifest m = cli::parse_manifest(r.manifest, base_dir_);
      for (const cli::WorkloadSpec& w : m.workloads) {
        if (w.kind != cli::WorkloadSpec::Kind::kGenerator) continue;
        for (int d : w.depths.empty() ? std::vector<int>{0} : w.depths) {
          for (int wd : w.widths.empty() ? std::vector<int>{0} : w.widths) {
            for (const std::string& p : w.policies.empty()
                                            ? std::vector<std::string>{""}
                                            : w.policies) {
              generators.push_back({w.generator, d, wd, p, ""});
            }
          }
        }
      }
      if (r.op == "price") {
        for (const engine::Scenario& sc : cli::expand(m)) collect(sc);
      } else {
        (void)cli::register_workloads(m);
        collect(cli::search_base_scenario(*m.search));
        if (m.search->workload) generators.push_back(*m.search->workload);
      }
    } catch (const std::exception& e) {
      fail(std::string("layer collection: ") + e.what());
    }
  }

  std::size_t sink = 0;
  for (const workload::GeneratorSpec& g : generators) {
    for (int k = 0; k < 5; ++k) {
      s_.add("workload.generate_us",
             1e3 * tr_.span("workload.generate", 3, -1, [&] {
               sink += workload::generate(g).layers().size();
             }));
    }
  }
  expect(generators.empty() || sink > 0, "generated networks are empty");

  backend::BackendRegistry& registry = backend::BackendRegistry::instance();
  for (const char* key : {"bpvec", "bit_serial", "gpu"}) {
    const std::string metric = std::string("backend.price_layer_us.") + key;
    for (const Site& site : sites) {
      try {
        auto b = registry.create(key, site.platform, site.memory);
        for (int k = 0; k < 3; ++k) {
          s_.add(metric, 1e3 * tr_.span(metric, 3, -1, [&] {
                   sink += static_cast<std::size_t>(
                       b->price_layer(site.layer).total_cycles);
                 }));
        }
      } catch (const std::exception& e) {
        fail(metric + ": " + e.what());
      }
    }
  }
  for (const Site& site : sites) {
    ++attempted_;
    try {
      auto b = registry.create("functional", site.platform, site.memory);
      s_.add("backend.functional.price_layer_ms",
             tr_.span("backend.functional.price_layer", 3, -1, [&] {
               sink += static_cast<std::size_t>(
                   b->price_layer(site.layer).measured_macs);
             }));
      probe_kernels(site.layer, site.platform, site.memory);
    } catch (const std::exception& e) {
      fail(std::string("functional probe: ") + e.what());
    }
  }
}

void Replay::probe_kernels(const dnn::Layer& layer,
                           const sim::AcceleratorConfig& platform,
                           const arch::DramModel& memory) {
  if (!layer.is_compute()) return;
  const backend::FunctionalBackend fb(backend::FunctionalConfig{}, platform,
                                      memory);
  const backend::FunctionalConfig& fc = fb.functional_config();
  const dnn::Layer probe = fb.probe_layer(layer);
  const int xb = probe.x_bits;
  const int wb = probe.w_bits;
  Rng rng(backend::layer_fingerprint(layer, platform.time_chunk));
  bitslice::Cvu cvu({2, 16, 16});
  kernels::KernelStats stats;
  kernels::BitPlanes planes;
  dnn::Matrix a;
  dnn::Matrix b;
  bool exact = false;
  auto pack = [&](const std::vector<std::int32_t>& w, std::int64_t rows,
                  std::int64_t cols, const dnn::Matrix& act) {
    pack_ns_ += 1e6 * tr_.span("kernels.pack_values", 3, -1, [&] {
      planes = kernels::pack_values(w.data(), rows, cols, wb);
      (void)kernels::pack_values(act.data.data(), act.rows, act.cols, xb);
    });
    pack_elems_ += static_cast<double>(rows * cols + act.rows * act.cols);
  };

  switch (probe.kind) {
    case dnn::LayerKind::kConv: {
      const dnn::ConvParams& p = probe.conv();
      const std::int64_t k = std::int64_t{p.in_c} * p.kh * p.kw;
      dnn::Tensor input(p.in_c, p.in_h, p.in_w);
      for (auto& v : input.data()) v = rng.signed_value(xb);
      const auto w = rng.signed_vector(static_cast<std::size_t>(p.out_c * k), wb);
      const dnn::Matrix cols = dnn::im2col(input, p);
      pack(w, p.out_c, k, cols);
      std::vector<std::int64_t> packed, ref;
      conv_s_ += 1e-3 * tr_.span("kernels.packed_conv", 3, -1, [&] {
        packed = kernels::packed_conv(input, planes, p, xb, nullptr, &stats);
      });
      conv_macs_ += static_cast<double>(stats.macs);
      s_.add("dnn.reference_ms", tr_.span("dnn.conv2d_reference", 3, -1, [&] {
               ref = dnn::conv2d_reference(input, w, p);
             }));
      exact = packed == ref;
      a = head_rows(cols, fc.check_rows);
      b = head_rows(dnn::weights_as_matrix(w, p), fc.check_cols);
      break;
    }
    case dnn::LayerKind::kFullyConnected: {
      const dnn::FcParams& p = probe.fc();
      const auto x = rng.signed_vector(static_cast<std::size_t>(p.in_features), xb);
      const auto w = rng.signed_vector(
          static_cast<std::size_t>(p.in_features) * p.out_features, wb);
      a = dnn::Matrix{1, p.in_features, x};
      pack(w, p.out_features, p.in_features, a);
      std::vector<std::int64_t> packed, ref;
      fc_s_ += 1e-3 * tr_.span("kernels.packed_fc", 3, -1, [&] {
        packed = kernels::packed_fc(x, planes, p, xb, nullptr, &stats);
      });
      fc_macs_ += static_cast<double>(stats.macs);
      s_.add("dnn.reference_ms", tr_.span("dnn.fc_reference", 3, -1, [&] {
               ref = dnn::fc_reference(x, w, p);
             }));
      exact = packed == ref;
      b = head_rows(dnn::Matrix{p.out_features, p.in_features, w},
                    fc.check_cols);
      break;
    }
    case dnn::LayerKind::kRecurrent: {
      // One step of the probe's recurrence, with the probe's requantization.
      const dnn::RecurrentParams& p = probe.recurrent();
      const std::int64_t k = p.input_size + p.hidden_size;
      const int shift = std::max(0, ceil_log2(k) + xb + wb - 1 - xb);
      const auto x = rng.signed_vector(static_cast<std::size_t>(p.input_size), xb);
      const auto h = rng.signed_vector(static_cast<std::size_t>(p.hidden_size), xb);
      const auto w = rng.signed_vector(
          static_cast<std::size_t>(p.hidden_size) * static_cast<std::size_t>(k),
          wb);
      std::vector<std::int32_t> xh = x;
      xh.insert(xh.end(), h.begin(), h.end());
      a = dnn::Matrix{1, k, xh};
      pack(w, p.hidden_size, k, a);
      std::vector<std::int32_t> packed, ref;
      rnn_s_ += 1e-3 * tr_.span("kernels.packed_rnn_step", 3, -1, [&] {
        packed = kernels::packed_rnn_step(x, h, planes, p.hidden_size, shift,
                                          xb, xb, nullptr, &stats);
      });
      rnn_macs_ += static_cast<double>(stats.macs);
      s_.add("dnn.reference_ms", tr_.span("dnn.rnn_step_reference", 3, -1, [&] {
               ref = dnn::rnn_step_reference(x, h, w, p.hidden_size, shift, xb);
             }));
      exact = packed == ref;
      b = head_rows(dnn::Matrix{p.hidden_size, k, w}, fc.check_cols);
      break;
    }
    case dnn::LayerKind::kPool:
      return;
  }
  expect(exact, "packed kernel deviates from its reference: " + layer.name);
  s_.add("core.cvu_check_ms", tr_.span("core.execute_gemm", 3, -1, [&] {
           (void)core::execute_gemm(cvu, a, b, xb, wb);
         }));
}

void Replay::probe_spawn() {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
  std::string flag = "--version";
  char* argv[] = {o_.bpvec_run.data(), flag.data(), nullptr};
  for (int k = 0; k < 10; ++k) {
    int status = -1;
    const double ms = tr_.span("cli.spawn", 3, -1, [&] {
      pid_t pid = 0;
      if (::posix_spawn(&pid, argv[0], &actions, nullptr, argv, environ) ==
          0) {
        ::waitpid(pid, &status, 0);
      }
    });
    expect(WIFEXITED(status) && WEXITSTATUS(status) == 0,
           "bpvec_run --version failed");
    s_.add("cli.spawn_ms", ms);
  }
  posix_spawn_file_actions_destroy(&actions);
}

Value Replay::result() const {
  const engine::EngineStats& t = engine_total_;
  const double reqs = static_cast<double>(std::max<std::size_t>(engine_requests_, 1));
  const double passes = static_cast<double>(std::max(passes_, 1));
  auto d = [](std::size_t v) { return static_cast<double>(v); };
  struct Metric {
    const char* name;
    double value;
    const char* unit;
  };
  const Metric metrics[] = {
      {"cli.spawn_ms", s_.median("cli.spawn_ms"), "ms"},
      {"cli.parse_expand_ms", s_.median("cli.parse_expand_ms"), "ms"},
      {"cli.report_ms", s_.median("cli.report_ms"), "ms"},
      {"serve.handle_ms.price_warm", s_.median("serve.handle_ms.price_warm"),
       "ms"},
      {"serve.handle_ms.price_novel",
       s_.median("serve.handle_ms.price_novel"), "ms"},
      {"serve.handle_ms.search", s_.median("serve.handle_ms.search"), "ms"},
      {"serve.handle_ms.stats", s_.median("serve.handle_ms.stats"), "ms"},
      {"serve.session_ms", s_.median("serve.session_ms"), "ms"},
      {"serve.transport_ms", s_.median("serve.transport_ms"), "ms"},
      {"serve.heartbeats", d(heartbeats_), "count"},
      {"engine.run_batch_ms", s_.median("engine.run_batch_ms"), "ms"},
      {"engine.construct_s", t.construct_s / reqs, "s"},
      {"engine.hash_s", t.hash_s / reqs, "s"},
      {"engine.plan_s", t.plan_s / reqs, "s"},
      {"engine.price_s", t.price_s / reqs, "s"},
      {"engine.assemble_s", t.assemble_s / reqs, "s"},
      {"engine.scenario_hit_rate",
       ratio(d(t.cache_hits), d(t.scenarios_submitted)), "ratio"},
      {"engine.layer_hit_rate",
       ratio(d(t.layer_cache_hits), d(t.layer_cache_hits + t.layers_priced)),
       "ratio"},
      {"engine.delta_fraction",
       ratio(d(t.delta_scenarios), d(t.simulations_run)), "ratio"},
      {"engine.simulations_per_request", d(t.simulations_run) / reqs, "count"},
      {"engine.layers_priced_per_request", d(t.layers_priced) / reqs, "count"},
      {"engine.disk_hit_rate",
       ratio(d(t.disk_hits), d(t.disk_hits + t.disk_misses)), "ratio"},
      {"engine.disk_stores", d(t.disk_stores) / passes, "count/pass"},
      {"engine.disk_file_opens", d(t.disk_file_opens) / passes, "count/pass"},
      {"disk.shards_end", d(disk_end_.shards.size()), "count"},
      {"disk.records_end", d(disk_end_.live_records), "count"},
      {"disk.bytes_end", static_cast<double>(disk_end_.bytes_total), "bytes"},
      {"disk.open_ms", s_.median("disk.open_ms"), "ms"},
      {"dse.search_ms", s_.median("dse.search_ms"), "ms"},
      {"dse.self_ms", s_.median("dse.self_ms"), "ms"},
      {"dse.candidates", ratio(d(search_candidates_), d(searches_)), "count"},
      {"dse.unique_fraction",
       ratio(d(search_unique_), d(search_candidates_)), "ratio"},
      {"workload.generate_us", s_.median("workload.generate_us"), "us"},
      {"backend.price_layer_us.bpvec",
       s_.mean("backend.price_layer_us.bpvec"), "us"},
      {"backend.price_layer_us.bit_serial",
       s_.mean("backend.price_layer_us.bit_serial"), "us"},
      {"backend.price_layer_us.gpu", s_.mean("backend.price_layer_us.gpu"),
       "us"},
      {"backend.functional.price_layer_ms",
       s_.mean("backend.functional.price_layer_ms"), "ms"},
      {"kernels.pack_ns_per_elem", ratio(pack_ns_, pack_elems_), "ns"},
      {"kernels.conv_gmacs", ratio(conv_macs_, conv_s_) / 1e9, "GMAC/s"},
      {"kernels.fc_gmacs", ratio(fc_macs_, fc_s_) / 1e9, "GMAC/s"},
      {"kernels.rnn_gmacs", ratio(rnn_macs_, rnn_s_) / 1e9, "GMAC/s"},
      {"kernels.weight_cache_hit_rate",
       ratio(static_cast<double>(weight_hits_),
             static_cast<double>(weight_hits_ + weight_misses_)),
       "ratio"},
      {"dnn.reference_ms", s_.mean("dnn.reference_ms"), "ms"},
      {"core.cvu_check_ms", s_.mean("core.cvu_check_ms"), "ms"},
      {"trace.coverage", s_.mean("trace.coverage"), "ratio"},
  };
  Value out = Value::object();
  for (const Metric& m : metrics) {
    Value v = Value::object();
    v.set("value", m.value);
    v.set("unit", m.unit);
    out.set(m.name, std::move(v));
  }
  Value doc = Value::object();
  doc.set("attempted", attempted_);
  doc.set("failed", failed_);
  doc.set("passes", passes_);
  doc.set("metrics", std::move(out));
  return doc;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options options = parse_args(argc, argv);
    const Value doc = common::json::parse_file(options.requests_path);
    const std::string base_dir = doc.at("base_dir").as_string();
    std::vector<Request> requests;
    for (const Value& r : doc.at("requests").as_array()) {
      Request q;
      q.op = r.at("op").as_string();
      q.manifest = r.at("manifest");
      Value envelope = Value::object();
      envelope.set("op", q.op);
      envelope.set("manifest", q.manifest);
      envelope.set("base_dir", base_dir);
      envelope.set("deterministic_report", true);
      q.line = envelope.dump();
      requests.push_back(std::move(q));
    }
    Replay replay(options, std::move(requests), base_dir);
    replay.run();
    std::ofstream trace(options.trace_out, std::ios::trunc);
    trace << replay.tracer().to_json().dump() << "\n";
    if (!trace.good()) throw Error("cannot write " + options.trace_out);
    std::cout << replay.result().dump() << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "e2e_trace: " << e.what() << "\n";
    return 1;
  }
}
