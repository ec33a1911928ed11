#include "src/serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "src/cli/report.h"
#include "src/common/clock.h"
#include "src/common/error.h"

namespace bpvec::serve {

using common::json::Value;

namespace {

using common::seconds_since;
using common::SteadyClock;

Value error_response(const std::string& message) {
  Value v = Value::object();
  v.set("status", "error");
  v.set("error", message);
  return v;
}

/// Writes `line` + '\n' to the socket; false when the peer is gone.
bool write_line(int fd, std::string line) {
  line.push_back('\n');
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n =
        ::send(fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Clears `path` for bind: nothing there is fine, and a socket that
/// refuses connections (a killed daemon's) is unlinked. Anything else
/// throws and stays untouched: a file that is not a socket, or a socket
/// a live server still accepts on.
void remove_stale_socket(const std::string& path, const sockaddr_un& addr) {
  struct stat st {};
  if (::lstat(path.c_str(), &st) != 0) return;
  if (!S_ISSOCK(st.st_mode)) {
    throw Error("socket path " + path + " exists and is not a socket");
  }
  const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (probe < 0) {
    throw Error(std::string("socket(): ") + std::strerror(errno));
  }
  const int rc = ::connect(probe, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr));
  const int err = errno;
  ::close(probe);
  if (rc == 0) {
    throw Error("socket path " + path + " is in use by a running server");
  }
  if (err != ECONNREFUSED) {
    throw Error("connect(" + path + "): " + std::strerror(err));
  }
  ::unlink(path.c_str());
}

/// Parses one request line; a parse failure throws with its reason.
Value parse_line(const std::string& line) {
  try {
    return common::json::parse(line);
  } catch (const std::exception& e) {
    throw Error(std::string("request is not valid JSON: ") + e.what());
  }
}

/// An ok/cancelled response carrying a Response's report and counters.
Value finalize(Response&& r) {
  Value v = Value::object();
  v.set("status", r.cancelled ? "cancelled" : "ok");
  if (!r.report.is_null()) v.set("report", std::move(r.report));
  if (!r.text.empty()) v.set("text", r.text);
  v.set("delta", engine::to_json(r.delta));
  v.set("fleet", engine::to_json(r.fleet));
  v.set("wall_s", r.wall_s);
  return v;
}

}  // namespace

struct Server::Envelope {
  std::string op;
  const Value* manifest = nullptr;
  std::string base_dir;
  bool deterministic_report = false;
  bool search = false;
  std::vector<std::string> network_files;
};

Server::Envelope Server::read_envelope(const Value& v) {
  const common::json::FieldReader r("");
  if (!v.is_object()) r.fail("request must be a JSON object envelope");
  r.check_keys(v, {"op", "manifest", "base_dir", "deterministic_report",
                   "search", "network_files"});
  Envelope e;
  const Value* op = v.find("op");
  if (op == nullptr || !op->is_string()) {
    r.fail("request envelope has no \"op\" string");
  }
  static const std::vector<std::string> kOps{
      "price", "search", "validate", "list",
      "stats", "version", "ping", "shutdown"};
  e.op = r.token(op->as_string(), "op", kOps);
  e.manifest = v.find("manifest");
  if (e.manifest == nullptr &&
      (e.op == "price" || e.op == "search" || e.op == "validate")) {
    r.fail("request has no \"manifest\" document");
  }
  if (const Value* f = v.find("base_dir")) {
    e.base_dir = r.get_string(*f, "base_dir");
  }
  if (const Value* f = v.find("deterministic_report")) {
    e.deterministic_report = r.get_bool(*f, "deterministic_report");
  }
  if (const Value* f = v.find("search")) e.search = r.get_bool(*f, "search");
  if (const Value* f = v.find("network_files")) {
    e.network_files = r.get_string_list(*f, "network_files");
  }
  return e;
}

Server::Server(ServerOptions options)
    : options_(std::move(options)), session_(options_.session) {
  for (const std::string& file : options_.network_files) {
    session_.register_network_file(file);
  }
}

Server::~Server() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  for (Connection& c : connections_) {
    if (c.thread.joinable()) c.thread.join();
  }
}

void Server::reap_connections() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->done.load(std::memory_order_acquire)) {
      if (it->thread.joinable()) it->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

Value Server::handle(const Value& envelope) {
  try {
    return execute(read_envelope(envelope), -1);
  } catch (const std::exception& e) {
    return error_response(e.what());
  }
}

Value Server::handle_line(const std::string& line) {
  try {
    return handle(parse_line(line));
  } catch (const std::exception& e) {
    return error_response(e.what());
  }
}

Value Server::execute(const Envelope& e, int fd) {
  for (const std::string& file : e.network_files) {
    session_.register_network_file(file);
  }

  if (e.op == "price" || e.op == "search") {
    const CancelToken token;
    std::function<Value()> work;
    if (e.op == "price") {
      PriceRequest request;
      request.manifest = cli::parse_manifest(*e.manifest, e.base_dir);
      request.deterministic_report = e.deterministic_report;
      work = [this, request = std::move(request), token] {
        return finalize(session_.price(request, token));
      };
    } else {
      SearchRequest request;
      request.manifest = cli::parse_manifest(*e.manifest, e.base_dir);
      request.deterministic_report = e.deterministic_report;
      work = [this, request = std::move(request), token] {
        return finalize(session_.search(request, token));
      };
    }
    return fd < 0 ? work()
                  : await_streaming(fd, token,
                                    session_.submit(std::move(work)));
  }
  if (e.op == "validate") {
    ValidateRequest request;
    request.manifest = cli::parse_manifest(*e.manifest, e.base_dir);
    request.search = e.search;
    return finalize(session_.validate(request));
  }
  if (e.op == "list") {
    return finalize(session_.list());
  }
  Value v = Value::object();
  v.set("status", "ok");
  if (e.op == "stats") {
    v.set("stats", session_.stats_json());
  } else if (e.op == "version") {
    v.set("version", cli::version_json());
  } else if (e.op == "shutdown") {
    request_stop();
    v.set("draining", true);
  } else {
    BPVEC_CHECK_MSG(e.op == "ping", "read_envelope admits an unserved op");
  }
  return v;
}

Value Server::await_streaming(int fd, const CancelToken& token,
                              std::future<Value> pending) {
  const auto start = SteadyClock::now();
  const std::chrono::duration<double> beat(kHeartbeatSeconds);
  bool client_gone = false;
  while (pending.wait_for(beat) != std::future_status::ready) {
    Value hb = Value::object();
    hb.set("status", "running");
    hb.set("elapsed_s", seconds_since(start));
    if (!client_gone && !write_line(fd, hb.dump())) {
      // The client vanished; nobody will read the result. Cancel
      // cooperatively and keep waiting — the engine finishes its
      // current batch, the session stays reusable.
      token.cancel();
      client_gone = true;
    }
  }
  return pending.get();
}

void Server::serve_connection(int fd, Connection* conn) {
  std::string buffer;
  std::size_t scanned = 0;  // leading bytes of `buffer` known to hold no '\n'
  char chunk[4096];
  bool open = true;
  while (open && !stopping()) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, 200);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));

    while (open) {
      const std::size_t pos = buffer.find('\n', scanned);
      if ((pos == std::string::npos ? buffer.size() : pos) > kMaxLineBytes) {
        (void)write_line(fd, error_response("request line exceeds " +
                                            std::to_string(kMaxLineBytes) +
                                            " bytes")
                                 .dump());
        open = false;
        break;
      }
      if (pos == std::string::npos) {
        scanned = buffer.size();
        break;
      }
      const std::string line = buffer.substr(0, pos);
      buffer.erase(0, pos + 1);
      scanned = 0;
      if (line.empty()) continue;

      Value reply;
      bool drain = false;
      try {
        const Value doc = parse_line(line);
        const Envelope e = read_envelope(doc);
        reply = execute(e, fd);
        drain = e.op == "shutdown";
      } catch (const std::exception& ex) {
        reply = error_response(ex.what());
      }
      // Only an accepted shutdown closes the connection; an error reply
      // leaves it open for the next request.
      open = write_line(fd, reply.dump()) && !drain;
    }
  }
  ::close(fd);
  // Last: after this store the accept loop may join and erase the entry.
  conn->done.store(true, std::memory_order_release);
}

void Server::listen() {
  if (options_.socket_path.empty()) {
    throw Error("bpvec_serve needs a socket path");
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    throw Error("socket path too long: " + options_.socket_path);
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);
  remove_stale_socket(options_.socket_path, addr);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw Error(std::string("socket(): ") + std::strerror(errno));
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error("bind(" + options_.socket_path + "): " + std::strerror(err));
  }
  if (::listen(listen_fd_, 16) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error("listen(" + options_.socket_path +
                "): " + std::strerror(err));
  }
}

void Server::run() {
  if (listen_fd_ < 0) listen();
  while (!stopping()) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, 200);
    // Reap closed connections every loop turn (each poll timeout or
    // accept) so a long-lived daemon under heavy traffic holds entries
    // only for connections that are actually open.
    reap_connections();
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    Connection& conn = connections_.emplace_back();
    conn.thread = std::thread(&Server::serve_connection, this, fd, &conn);
  }

  // Drain: no new connections; in-flight requests run to completion.
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(options_.socket_path.c_str());
  for (Connection& c : connections_) {
    if (c.thread.joinable()) c.thread.join();
  }
  connections_.clear();
}

}  // namespace bpvec::serve
