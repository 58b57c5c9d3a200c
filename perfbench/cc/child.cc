#include "child.h"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

extern char** environ;

namespace perfbench {

ChildProcess::ChildProcess(const std::vector<std::string>& argv,
                           const std::vector<std::string>& extra_env,
                           bool pipe_stdout) {
  std::vector<std::string> env_strings;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "A3CS_", 5) != 0) env_strings.emplace_back(*e);
  }
  env_strings.insert(env_strings.end(), extra_env.begin(), extra_env.end());
  std::vector<char*> envp;
  for (std::string& s : env_strings) envp.push_back(s.data());
  envp.push_back(nullptr);
  std::vector<std::string> arg_strings = argv;
  std::vector<char*> args;
  for (std::string& s : arg_strings) args.push_back(s.data());
  args.push_back(nullptr);

  int fds[2] = {-1, -1};
  if (pipe_stdout && pipe2(fds, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe() failed");
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null",
                                   O_RDONLY, 0);
  if (pipe_stdout) {
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  } else {
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                     O_WRONLY, 0);
  }
  const int rc = posix_spawn(&pid_, args[0], &actions, nullptr, args.data(),
                             envp.data());
  posix_spawn_file_actions_destroy(&actions);
  if (pipe_stdout) {
    close(fds[1]);
    out_fd_ = fds[0];
  }
  if (rc != 0) {
    pid_ = -1;
    if (out_fd_ >= 0) close(out_fd_);
    throw std::runtime_error("cannot start " + argv[0]);
  }
}

ChildProcess::~ChildProcess() {
  if (pid_ > 0 && !exited()) {
    kill(pid_, SIGTERM);
    wait();
  }
  if (out_fd_ >= 0) close(out_fd_);
}

bool ChildProcess::exited() {
  if (pid_ <= 0) return true;
  if (reaped_) return true;
  if (waitpid(pid_, &status_, WNOHANG) != pid_) return false;
  reaped_ = true;
  return true;
}

std::string ChildProcess::read_line() {
  for (;;) {
    const std::size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      return line;
    }
    char chunk[4096];
    const ssize_t n = read(out_fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return "";
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

int ChildProcess::wait() {
  while (!reaped_) {
    if (waitpid(pid_, &status_, 0) == pid_) {
      reaped_ = true;
    } else if (errno != EINTR) {
      return -1;
    }
  }
  return WIFEXITED(status_) ? WEXITSTATUS(status_) : -1;
}

double median_setup_launch_s(const Options& opt) {
  const std::string self =
      std::filesystem::read_symlink("/proc/self/exe").string();
  std::vector<double> launches;
  for (int i = 0; i < kSetupLaunches; ++i) {
    const Clock::time_point t0 = Clock::now();
    ChildProcess probe({self, "--workload", opt.workload, "--seed",
                        std::to_string(opt.seed), "--seconds", "1", "--trace",
                        "0", "--work-dir", opt.work_dir, "--setup-probe", "1"},
                       {}, /*pipe_stdout=*/true);
    const std::string line = probe.read_line();
    launches.push_back(seconds_since(t0));
    if (line != "ready" || probe.wait() != 0) {
      throw std::runtime_error("set-up probe " + std::to_string(i) +
                               " failed");
    }
  }
  return median(launches);
}

void report_probe_ready() {
  std::printf("ready\n");
  std::fflush(stdout);
}

}  // namespace perfbench
