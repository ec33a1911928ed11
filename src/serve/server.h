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
//                           "chunk" (int, cancellation granularity),
//                           optional "network_files" (array of paths
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
//
//   response  zero or more {"status":"running","elapsed_s":<double>}
//             heartbeats (price/search only, one per heartbeat_s while
//             the request executes on the engine pool), then exactly one
//             final line:
//               {"status":"ok", ...}        op-specific payload:
//                 "report" (price/search — the exact document bpvec_run
//                 writes; re-serializing it with dump(1) reproduces the
//                 CLI's report bytes, the determinism contract CI
//                 gates), "text" (validate/list — the CLI's stdout),
//                 "delta"/"fleet" (engine counter snapshots),
//                 "wall_s", "stats", "version"
//               {"status":"cancelled", ...} the client vanished
//                 mid-request (heartbeat write failed → cooperative
//                 cancel); also logged, never sent (no reader)
//               {"status":"error","error":<message>} malformed
//                 envelopes, bad manifests, unknown ops. The connection
//                 stays open — errors are data, not disconnects.
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
#include <list>
#include <string>
#include <thread>
#include <vector>

#include "src/common/json.h"
#include "src/serve/session.h"

namespace bpvec::serve {

struct ServerOptions {
  /// Filesystem path for the AF_UNIX listening socket. Unlinked on
  /// bind (stale sockets from a killed daemon) and on shutdown.
  std::string socket_path;
  SessionOptions session;
  /// Workload-schema files registered at startup (the daemon-side
  /// equivalent of bpvec_run --network-file).
  std::vector<std::string> network_files;
  /// Seconds between {"status":"running"} heartbeats while a price or
  /// search request executes.
  double heartbeat_s = 0.5;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket and serves until request_stop(), then drains:
  /// stops accepting, lets in-flight requests finish, joins connection
  /// threads. Throws bpvec::Error if the socket cannot be bound.
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

  /// One connection's request/response loop (own thread). Sets
  /// `conn->done` on exit.
  void serve_connection(int fd, Connection* conn);

  /// Joins and erases finished connection entries. Only the accept-loop
  /// thread (and run()'s drain, after the loop exits) touches the list.
  void reap_connections();

  /// The dispatch core behind handle(): envelope -> final response,
  /// throwing bpvec::Error on anything malformed. The token reaches the
  /// session's price/search loops.
  common::json::Value dispatch(const common::json::Value& envelope,
                               const CancelToken& token);

  /// Runs a price/search dispatch on the session pool, streaming
  /// heartbeats to `fd` while it executes; returns the final response.
  /// A failed heartbeat write cancels the token (the client is gone)
  /// and the cancelled response is returned for the log, never sent.
  common::json::Value run_streaming(int fd, const CancelToken& token,
                                    std::function<common::json::Value()> work);

  ServerOptions options_;
  Session session_;
  std::atomic<bool> stop_{false};
  int listen_fd_ = -1;
  std::list<Connection> connections_;
};

}  // namespace bpvec::serve
