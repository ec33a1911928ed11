// bpvec_serve — the resident pricing daemon, and its line client.
//
//   bpvec_serve --socket PATH [--cache-dir DIR] [--threads N]
//               [--network-file FILE]...
//       Serve forever over the Unix socket; SIGTERM/SIGINT drain
//       gracefully (in-flight requests finish, then the socket closes).
//
//   bpvec_serve request --socket PATH [--op OP] [--manifest FILE]
//               [--deterministic-report] [--search] [--chunk N]
//               [--report OUT] [--network-file FILE]...
//       Send one request envelope and print/write the response. With
//       --report, the served report document is written with the same
//       serialization the batch CLI uses — byte-identical output is the
//       determinism contract CI gates.
//
// Protocol reference: src/serve/server.h.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "src/cli/report.h"
#include "src/common/error.h"
#include "src/common/json.h"
#include "src/serve/server.h"

namespace {

using bpvec::Error;
using bpvec::common::json::Value;

bpvec::serve::Server* g_server = nullptr;

extern "C" void handle_stop_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

void usage(std::ostream& out) {
  out << "usage: bpvec_serve --socket PATH [options]            daemon\n"
         "       bpvec_serve request --socket PATH [options]    client\n"
         "\n"
         "daemon options:\n"
         "  --socket PATH          Unix domain socket to listen on\n"
         "  --cache-dir DIR        persistent result cache (shared with "
         "bpvec_run)\n"
         "  --threads N            engine worker threads (default: "
         "hardware)\n"
         "  --network-file FILE    register a workload-schema network at "
         "startup\n"
         "\n"
         "client options (request):\n"
         "  --socket PATH          daemon socket to connect to\n"
         "  --op OP                price|search|validate|list|stats|version|"
         "ping|shutdown\n"
         "                         (default: price)\n"
         "  --manifest FILE        manifest to embed in the envelope\n"
         "  --deterministic-report omit the run-dependent stats block\n"
         "  --search               validate the \"search\" block (with --op "
         "validate)\n"
         "  --chunk N              price cancellation granularity\n"
         "  --report OUT           write the served report document here\n"
         "  --network-file FILE    ask the daemon to register this file\n"
         "\n"
         "  --version              print build identity and exit\n"
         "  --help                 this text\n";
}

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
  out.flush();
  if (!out.good()) throw Error("cannot write file: " + path);
}

int connect_socket(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty()) throw Error("request mode needs --socket PATH");
  if (path.size() >= sizeof(addr.sun_path)) {
    throw Error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw Error(std::string("socket(): ") + std::strerror(errno));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    throw Error("connect(" + path + "): " + std::strerror(err));
  }
  return fd;
}

void send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error(std::string("send(): ") + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

/// Reads whole lines until the final (non-heartbeat) response arrives.
Value read_final_response(int fd) {
  std::string buffer;
  char chunk[4096];
  while (true) {
    const std::size_t pos = buffer.find('\n');
    if (pos != std::string::npos) {
      const std::string line = buffer.substr(0, pos);
      buffer.erase(0, pos + 1);
      if (line.empty()) continue;
      Value response = bpvec::common::json::parse(line);
      const Value* status = response.find("status");
      if (status != nullptr && status->is_string() &&
          status->as_string() == "running") {
        continue;  // heartbeat — the daemon is still working
      }
      return response;
    }
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error(std::string("read(): ") + std::strerror(errno));
    }
    if (n == 0) throw Error("daemon closed the connection mid-response");
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

struct ClientOptions {
  std::string socket_path;
  std::string op = "price";
  std::string manifest_path;
  std::string report_path;
  std::vector<std::string> network_files;
  bool deterministic_report = false;
  bool search = false;
  std::int64_t chunk = 0;
};

int run_client(const ClientOptions& options) {
  Value envelope = Value::object();
  envelope.set("op", options.op);
  if (!options.manifest_path.empty()) {
    envelope.set("manifest",
                 bpvec::common::json::parse_file(options.manifest_path));
    // Same rule as load_manifest: relative workload "file" paths
    // resolve against the manifest's own directory.
    const std::size_t slash = options.manifest_path.find_last_of('/');
    if (slash != std::string::npos) {
      envelope.set("base_dir", options.manifest_path.substr(0, slash));
    }
  }
  if (options.deterministic_report) envelope.set("deterministic_report", true);
  if (options.search) envelope.set("search", true);
  if (options.chunk > 0) envelope.set("chunk", options.chunk);
  if (!options.network_files.empty()) {
    Value files = Value::array();
    for (const std::string& f : options.network_files) files.push_back(f);
    envelope.set("network_files", std::move(files));
  }

  const int fd = connect_socket(options.socket_path);
  Value response;
  try {
    send_all(fd, envelope.dump() + "\n");
    response = read_final_response(fd);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);

  const Value* status = response.find("status");
  const std::string state =
      status != nullptr && status->is_string() ? status->as_string() : "";
  if (state == "error") {
    const Value* message = response.find("error");
    std::cerr << "bpvec_serve: error: "
              << (message != nullptr && message->is_string()
                      ? message->as_string()
                      : response.dump())
              << "\n";
    return 1;
  }
  if (state == "cancelled") {
    std::cerr << "bpvec_serve: request cancelled\n";
    return 1;
  }

  if (const Value* text = response.find("text")) {
    if (text->is_string()) std::cout << text->as_string();
  }
  if (const Value* report = response.find("report")) {
    if (options.report_path.empty()) {
      std::cout << report->dump(1) << "\n";
    } else {
      // dump(1) is exactly what bpvec_run writes — the round-trip
      // through the wire preserves every byte (deterministic writer,
      // %.17g doubles), so this file must cmp-equal the batch CLI's.
      write_file(options.report_path, report->dump(1));
      std::cout << "[bpvec_serve] wrote " << options.report_path << "\n";
    }
  }
  if (const Value* stats = response.find("stats")) {
    std::cout << stats->dump(1) << "\n";
  }
  if (const Value* version = response.find("version")) {
    std::cout << version->dump(1) << "\n";
  }
  if (options.op == "ping" || options.op == "shutdown") {
    std::cout << "ok\n";
  }
  return 0;
}

int main_serve(int argc, char** argv) {
  bool client_mode = false;
  ClientOptions client;
  bpvec::serve::ServerOptions server_options;

  std::vector<std::string> args(argv + 1, argv + argc);
  std::size_t i = 0;
  if (i < args.size() && args[i] == "request") {
    client_mode = true;
    ++i;
  }
  auto value_of = [&](const std::string& flag) -> const std::string& {
    if (i + 1 >= args.size()) throw Error(flag + " needs a value");
    return args[++i];
  };
  for (; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    } else if (arg == "--version") {
      std::cout << bpvec::cli::version_json().dump(1) << "\n";
      return 0;
    } else if (arg == "--socket") {
      const std::string& path = value_of(arg);
      server_options.socket_path = path;
      client.socket_path = path;
    } else if (arg == "--network-file") {
      const std::string& file = value_of(arg);
      server_options.network_files.push_back(file);
      client.network_files.push_back(file);
    } else if (!client_mode && arg == "--cache-dir") {
      server_options.session.cache_dir = value_of(arg);
    } else if (!client_mode && arg == "--threads") {
      server_options.session.threads = std::stoi(value_of(arg));
    } else if (client_mode && arg == "--op") {
      client.op = value_of(arg);
    } else if (client_mode && arg == "--manifest") {
      client.manifest_path = value_of(arg);
    } else if (client_mode && arg == "--report") {
      client.report_path = value_of(arg);
    } else if (client_mode && arg == "--deterministic-report") {
      client.deterministic_report = true;
    } else if (client_mode && arg == "--search") {
      client.search = true;
    } else if (client_mode && arg == "--chunk") {
      client.chunk = std::stoll(value_of(arg));
    } else {
      throw Error("unknown flag: " + arg);
    }
  }

  if (client_mode) return run_client(client);

  if (server_options.socket_path.empty()) {
    usage(std::cerr);
    return 2;
  }
  bpvec::serve::Server server(server_options);
  g_server = &server;
  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);
  std::cout << "[bpvec_serve] listening on " << server_options.socket_path
            << "\n"
            << std::flush;
  server.run();
  std::cout << "[bpvec_serve] drained\n";
  g_server = nullptr;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return main_serve(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bpvec_serve: error: " << e.what() << "\n";
    return 1;
  }
}
