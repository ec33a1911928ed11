// bpvec_serve's wire layer: newline-delimited JSON over a Unix domain
// socket, multiplexing client requests onto one resident Session.
//
// Protocol (one JSON document per line, UTF-8, '\n' terminated):
//
//   request   {"op": <string>, ...} — the envelope. Ops and their
//             fields:
//               "price"     "manifest" (a manifest document, the same
//                           shape bpvec_run loads from a file),
//                           optional "base_dir" (resolves relative
//                           workload "file" paths), optional
//                           "deterministic_report" (bool), optional
//                           "network_files" (array of paths
//                           registered before the manifest parses)
//               "search"    same fields; runs the manifest's "search"
//                           block
//               "validate"  "manifest" (+"base_dir"/"network_files"),
//                           optional "search" (bool) — dry-run only
//               "list"      no fields; the token vocabularies
//               "stats"     no fields; per-request latency counters,
//                           fleet-wide engine totals, cache hit rates
//               "version"   no fields; build-identity document
//               "ping"      no fields; liveness probe
//               "shutdown"  acks, then begins graceful drain
//             The envelope is read whole before anything runs: a key
//             outside those fields, a wrong-typed field or an empty
//             "network_files" is an error naming the field, and no
//             network file registers from a rejected envelope. A line
//             longer than Server::kMaxLineBytes gets an error naming the
//             limit, and then that connection closes.
//
//   response  zero or more {"status":"running","elapsed_s":<double>}
//             heartbeats (price/search only, one per
//             Server::kHeartbeatSeconds while the request executes on
//             the engine pool), then exactly one final line:
//               {"status":"ok", ...}        op-specific payload:
//                 "report" (price/search — the exact document bpvec_run
//                 writes; re-serializing it with dump(1) reproduces the
//                 CLI's report bytes, the determinism contract
//                 tests/test_goldens holds), "text" (validate/list — the CLI's stdout),
//                 "delta"/"fleet" (engine counter snapshots),
//                 "wall_s", "stats", "version"
//               {"status":"cancelled", ...} the client vanished
//                 mid-request (heartbeat write failed → cooperative
//                 cancel); also logged, never sent (no reader)
//               {"status":"error","error":<message>} malformed
//                 envelopes, bad manifests, unknown ops. The connection
//                 stays open — errors are data, not disconnects. Only
//                 an accepted "shutdown" (or an over-long line) closes
//                 it.
//
// A connection serves its requests sequentially; concurrency comes from
// multiple connections, each on its own thread, all sharing the one
// Session (whose engine calls are concurrency-safe). Graceful drain:
// request_stop() (async-signal-safe — the SIGTERM handler calls it)
// stops the accept loop; in-flight connections finish their current
// request, then close. run() returns once every connection thread has
// joined.
#pragma once

#include <atomic>
#include <cstddef>
#include <future>
#include <list>
#include <string>
#include <thread>
#include <vector>

#include "src/common/json.h"
#include "src/serve/session.h"

namespace bpvec::serve {

struct ServerOptions {
  /// Filesystem path for the AF_UNIX listening socket. listen() unlinks
  /// a stale socket there (one that refuses connections, left by a
  /// killed daemon) before bind, and run() its own socket on shutdown;
  /// listen() throws, touching nothing, when the path names something
  /// else or a socket a live server accepts on.
  std::string socket_path;
  SessionOptions session;
  /// Workload-schema files registered at startup (the daemon-side
  /// equivalent of bpvec_run --network-file).
  std::vector<std::string> network_files;
};

class Server {
 public:
  /// Longest request line a connection buffers (16 MiB).
  static constexpr std::size_t kMaxLineBytes = std::size_t{16} << 20;
  /// Seconds between {"status":"running"} heartbeats while a price or
  /// search request executes.
  static constexpr double kHeartbeatSeconds = 0.5;

  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens on socket_path; once it returns, clients can
  /// connect. Throws bpvec::Error if the socket cannot be bound,
  /// including when socket_path is taken (see ServerOptions).
  void listen();

  /// Serves until request_stop(), then drains: stops accepting, lets
  /// in-flight requests finish, joins connection threads. Calls listen()
  /// first unless the caller already has.
  void run();

  /// Begins graceful drain. Async-signal-safe (one relaxed atomic
  /// store) — safe to call from a SIGTERM/SIGINT handler or any thread.
  void request_stop() noexcept { stop_.store(true, std::memory_order_relaxed); }

  bool stopping() const noexcept {
    return stop_.load(std::memory_order_relaxed);
  }

  /// Executes one request envelope synchronously and returns the FINAL
  /// response document (no heartbeats — those are the socket loop's).
  /// Never throws on bad input: malformed envelopes and bpvec::Error
  /// from the session become {"status":"error"} responses. This is the
  /// whole protocol minus the transport, exposed for tests.
  common::json::Value handle(const common::json::Value& envelope);

  /// handle() after parsing `line` as JSON; parse failures become
  /// {"status":"error"} too (a garbage line must not kill the
  /// connection).
  common::json::Value handle_line(const std::string& line);

  Session& session() { return session_; }

 private:
  /// One live connection thread. `done` is the thread's own completion
  /// flag: the accept loop joins and erases finished entries as it
  /// iterates, so a long-lived daemon's connection list tracks the open
  /// connections instead of growing by one entry per connection ever
  /// accepted. std::list keeps each entry's address stable for the
  /// thread that flags it.
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  /// A request envelope, read and validated whole (server.cpp).
  struct Envelope;

  /// One connection's request/response loop (own thread). Sets
  /// `conn->done` on exit.
  void serve_connection(int fd, Connection* conn);

  /// Joins and erases finished connection entries. Only the accept-loop
  /// thread (and run()'s drain, after the loop exits) touches the list.
  void reap_connections();

  /// Reads `v` as an envelope; throws bpvec::Error naming the bad field.
  static Envelope read_envelope(const common::json::Value& v);

  /// Runs a read envelope and returns the final response, throwing on
  /// failure. With `fd` >= 0, a price/search runs through
  /// Session::submit while heartbeats stream to `fd`; a failed
  /// heartbeat write cancels it (the client is gone), and the cancelled
  /// response is returned for the log, never sent. With `fd` < 0 it runs
  /// on the calling thread.
  common::json::Value execute(const Envelope& e, int fd);

  /// Waits for a submitted request, streaming heartbeats to `fd`.
  common::json::Value await_streaming(int fd, const CancelToken& token,
                                      std::future<common::json::Value> pending);

  ServerOptions options_;
  Session session_;
  std::atomic<bool> stop_{false};
  int listen_fd_ = -1;
  std::list<Connection> connections_;
};

}  // namespace bpvec::serve
