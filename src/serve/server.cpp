#include "src/serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <utility>

#include "src/cli/report.h"
#include "src/common/error.h"

namespace bpvec::serve {

using common::json::Value;

namespace {

using SteadyClock = std::chrono::steady_clock;

double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

Value error_response(const std::string& message) {
  Value v = Value::object();
  v.set("status", "error");
  v.set("error", message);
  return v;
}

/// Optional boolean envelope field; wrong-typed values are structured
/// errors (thrown, caught at the dispatch boundary), not surprises.
bool get_bool(const Value& envelope, const char* key) {
  const Value* v = envelope.find(key);
  if (v == nullptr) return false;
  if (!v->is_bool()) {
    throw Error(std::string("request field \"") + key + "\" must be a bool");
  }
  return v->as_bool();
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

/// The manifest document embedded in a price/search/validate envelope.
cli::Manifest parse_envelope_manifest(const Value& envelope) {
  const Value* doc = envelope.find("manifest");
  if (doc == nullptr) {
    throw Error("request has no \"manifest\" document");
  }
  const Value* base = envelope.find("base_dir");
  std::string base_dir;
  if (base != nullptr) {
    if (!base->is_string()) throw Error("\"base_dir\" must be a string");
    base_dir = base->as_string();
  }
  return cli::parse_manifest(*doc, base_dir);
}

}  // namespace

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
    return dispatch(envelope, CancelToken{});
  } catch (const std::exception& e) {
    return error_response(e.what());
  }
}

Value Server::handle_line(const std::string& line) {
  Value envelope;
  try {
    envelope = common::json::parse(line);
  } catch (const std::exception& e) {
    return error_response(std::string("request is not valid JSON: ") +
                          e.what());
  }
  return handle(envelope);
}

Value Server::dispatch(const Value& envelope, const CancelToken& token) {
  if (!envelope.is_object()) {
    throw Error("request must be a JSON object envelope");
  }
  const Value* op_field = envelope.find("op");
  if (op_field == nullptr || !op_field->is_string()) {
    throw Error("request envelope has no \"op\" string");
  }
  const std::string& op = op_field->as_string();

  if (const Value* files = envelope.find("network_files")) {
    if (!files->is_array()) throw Error("\"network_files\" must be an array");
    for (const Value& f : files->as_array()) {
      session_.register_network_file(f.as_string());
    }
  }

  // Engine-touching ops return the Response's report + both counter
  // blocks; administrative ops return their own payloads.
  auto finalize = [](Response&& r) {
    Value v = Value::object();
    v.set("status", r.cancelled ? "cancelled" : "ok");
    if (!r.report.is_null()) v.set("report", std::move(r.report));
    if (!r.text.empty()) v.set("text", r.text);
    v.set("delta", engine::to_json(r.delta));
    v.set("fleet", engine::to_json(r.fleet));
    v.set("wall_s", r.wall_s);
    return v;
  };

  if (op == "price") {
    PriceRequest request;
    request.manifest = parse_envelope_manifest(envelope);
    request.deterministic_report = get_bool(envelope, "deterministic_report");
    if (const Value* chunk = envelope.find("chunk")) {
      const std::int64_t n = chunk->as_int();
      if (n < 0) throw Error("\"chunk\" must be >= 0");
      request.chunk = static_cast<std::size_t>(n);
    }
    return finalize(session_.price(request, token));
  }
  if (op == "search") {
    SearchRequest request;
    request.manifest = parse_envelope_manifest(envelope);
    request.deterministic_report = get_bool(envelope, "deterministic_report");
    return finalize(session_.search(request, token));
  }
  if (op == "validate") {
    ValidateRequest request;
    request.manifest = parse_envelope_manifest(envelope);
    request.search = get_bool(envelope, "search");
    return finalize(session_.validate(request));
  }
  if (op == "list") {
    return finalize(session_.list());
  }
  if (op == "stats") {
    Value v = Value::object();
    v.set("status", "ok");
    v.set("stats", session_.stats_json());
    return v;
  }
  if (op == "version") {
    Value v = Value::object();
    v.set("status", "ok");
    v.set("version", cli::version_json());
    return v;
  }
  if (op == "ping") {
    Value v = Value::object();
    v.set("status", "ok");
    return v;
  }
  if (op == "shutdown") {
    request_stop();
    Value v = Value::object();
    v.set("status", "ok");
    v.set("draining", true);
    return v;
  }
  throw Error("unknown op: \"" + op + "\"");
}

Value Server::run_streaming(int fd, const CancelToken& token,
                            std::function<Value()> work) {
  auto task = std::make_shared<std::packaged_task<Value()>>(std::move(work));
  std::future<Value> future = task->get_future();
  session_.engine().pool().submit([task] { (*task)(); });

  const auto start = SteadyClock::now();
  const auto beat = std::chrono::duration<double>(
      options_.heartbeat_s > 0 ? options_.heartbeat_s : 0.5);
  bool client_gone = false;
  while (future.wait_for(beat) != std::future_status::ready) {
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
  try {
    return future.get();
  } catch (const std::exception& e) {
    return error_response(e.what());
  }
}

void Server::serve_connection(int fd, Connection* conn) {
  std::string buffer;
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

    std::size_t pos;
    while (open && (pos = buffer.find('\n')) != std::string::npos) {
      const std::string line = buffer.substr(0, pos);
      buffer.erase(0, pos + 1);
      if (line.empty()) continue;

      Value envelope;
      std::string op;
      Value final_response;
      try {
        envelope = common::json::parse(line);
        if (envelope.is_object()) {
          if (const Value* f = envelope.find("op")) {
            if (f->is_string()) op = f->as_string();
          }
        }
      } catch (const std::exception& e) {
        final_response = error_response(
            std::string("request is not valid JSON: ") + e.what());
      }
      if (final_response.is_null() && op != "price" && op != "search") {
        final_response = handle(envelope);
      }
      if (final_response.is_null()) {
        CancelToken token;
        final_response = run_streaming(
            fd, token,
            [this, envelope, token] { return dispatch(envelope, token); });
      }
      if (!write_line(fd, final_response.dump())) open = false;
      if (op == "shutdown") open = false;  // dispatch began the drain
    }
  }
  ::close(fd);
  // Last: after this store the accept loop may join and erase the entry.
  conn->done.store(true, std::memory_order_release);
}

void Server::run() {
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

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw Error(std::string("socket(): ") + std::strerror(errno));
  }
  ::unlink(options_.socket_path.c_str());  // a killed daemon's stale socket
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
