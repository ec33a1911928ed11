// e2e_spawn — the end-to-end benchmark's launcher for bpvec_run.
//
// On Linux a child's ru_maxrss starts at the peak RSS of the process that
// spawned it (exec keeps the larger of the two), so children spawned
// straight from the Python load generator would all report at least the
// generator's own ~20 MB. This launcher is small, so the peak RSS it hands
// down is far below any bpvec_run's, and its children report their own.
//
// Reads one request per stdin line: the stderr path, then argv, fields
// separated by tabs. The child gets /dev/null as stdin and stdout. For each
// request it writes one line:
//
//   <exit code> <start ns> <end ns> <user us> <sys us> <maxrss kB>
//
// start and end are CLOCK_MONOTONIC around posix_spawn and wait4, the clock
// Python's time.perf_counter reads. The exit code is 127 when the spawn
// itself fails and 128+N when signal N ends the child. Exits at EOF.
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>

#include <cstdio>
#include <string>
#include <vector>

extern char** environ;

namespace {

long long now_ns() {
  timespec t{};
  clock_gettime(CLOCK_MONOTONIC, &t);
  return static_cast<long long>(t.tv_sec) * 1000000000LL + t.tv_nsec;
}

long long micros(const timeval& t) {
  return static_cast<long long>(t.tv_sec) * 1000000LL + t.tv_usec;
}

bool read_line(std::string& line) {
  line.clear();
  for (int c; (c = std::getchar()) != EOF;) {
    if (c == '\n') return true;
    line.push_back(static_cast<char>(c));
  }
  return !line.empty();
}

}  // namespace

int main() {
  std::string line;
  while (read_line(line)) {
    std::vector<std::string> fields;
    std::size_t from = 0;
    for (std::size_t tab; (tab = line.find('\t', from)) != std::string::npos;
         from = tab + 1) {
      fields.push_back(line.substr(from, tab - from));
    }
    fields.push_back(line.substr(from));
    if (fields.size() < 2) {
      std::fprintf(stderr, "e2e_spawn: expected STDERR<tab>ARGV...\n");
      return 2;
    }
    std::vector<char*> argv;
    for (std::size_t i = 1; i < fields.size(); ++i) {
      argv.push_back(fields[i].data());
    }
    argv.push_back(nullptr);

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
    posix_spawn_file_actions_addopen(&actions, 2, fields[0].c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    int status = 0;
    rusage usage{};
    pid_t pid = 0;
    const long long start = now_ns();
    const int err =
        posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
    if (err == 0) wait4(pid, &status, 0, &usage);
    const long long end = now_ns();
    posix_spawn_file_actions_destroy(&actions);

    const int code = err != 0             ? 127
                     : WIFEXITED(status)  ? WEXITSTATUS(status)
                                          : 128 + WTERMSIG(status);
    std::printf("%d %lld %lld %lld %lld %ld\n", code, start, end,
                micros(usage.ru_utime), micros(usage.ru_stime),
                usage.ru_maxrss);
    std::fflush(stdout);
  }
  return 0;
}
