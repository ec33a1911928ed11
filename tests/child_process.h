// A built binary of this tree, run as a child process: the stdout goldens
// of the benches and the bpvec_serve daemon with its request client are
// behaviour of the executables themselves, so their tests spawn them.
// posix_spawn, not fork, so a test process whose thread pools are running
// duplicates nothing. The child inherits the environment (sanitizer
// options included), reads /dev/null, and writes stdout and stderr to
// files the test reads back.
#pragma once

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

extern char** environ;

namespace bpvec::test {

class ChildProcess {
 public:
  /// Starts `argv` (argv[0] is the binary's path) in the directory `cwd`,
  /// stdout to the file `out` and stderr to `err`, or to `out` as well
  /// when `err` is empty.
  ChildProcess(const std::vector<std::string>& argv, const std::string& cwd,
               const std::string& out, const std::string& err = "") {
    std::vector<char*> args;
    for (const std::string& a : argv) {
      args.push_back(const_cast<char*>(a.c_str()));
    }
    args.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&actions, 1, out.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (err.empty()) {
      posix_spawn_file_actions_adddup2(&actions, 1, 2);
    } else {
      posix_spawn_file_actions_addopen(&actions, 2, err.c_str(),
                                       O_WRONLY | O_CREAT | O_TRUNC, 0644);
    }
    posix_spawn_file_actions_addchdir_np(&actions, cwd.c_str());
    if (posix_spawn(&pid_, args[0], &actions, nullptr, args.data(),
                    environ) != 0) {
      pid_ = -1;
    }
    posix_spawn_file_actions_destroy(&actions);
  }
  /// A child still running is killed and reaped, so a failing test
  /// leaves no process behind.
  ~ChildProcess() {
    if (pid_ > 0 && exit_code_ == kRunning) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  /// The exit code once the child has ended, waiting up to `timeout`:
  /// 128 + N when signal N ended it, 127 when the spawn failed, and
  /// kRunning while it still runs.
  int wait(std::chrono::milliseconds timeout = std::chrono::seconds(60)) {
    if (pid_ < 0) return 127;
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (exit_code_ == kRunning) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        exit_code_ = WIFEXITED(status) ? WEXITSTATUS(status)
                                       : 128 + WTERMSIG(status);
      } else if (std::chrono::steady_clock::now() >= deadline) {
        break;
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    return exit_code_;
  }

  static constexpr int kRunning = -1;

 private:
  pid_t pid_ = -1;
  int exit_code_ = kRunning;
};

}  // namespace bpvec::test
