// Child processes of the benchmark: the predictor_server the `serve`
// workload drives, and the set-up probes that time a cold start of the
// benchmark binary itself (setup_s).
#pragma once

#include <string>
#include <sys/types.h>
#include <vector>

#include "bench.h"

namespace perfbench {

// A process started with posix_spawn. stdin reads /dev/null; stdout goes to
// /dev/null, or to a pipe read_line() reads. The environment is the
// parent's without its A3CS_* variables, plus `extra_env`. The destructor
// sends SIGTERM to a child still running and waits for it.
class ChildProcess {
 public:
  ChildProcess(const std::vector<std::string>& argv,
               const std::vector<std::string>& extra_env, bool pipe_stdout);
  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  pid_t pid() const { return pid_; }
  // True once the process has ended (polls, does not block).
  bool exited();
  // Next line of the child's stdout without its '\n'; "" at end of file.
  std::string read_line();
  // Waits for the child to end; returns its exit code (-1 if signalled).
  int wait();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  bool reaped_ = false;
  int status_ = 0;
  std::string buf_;
};

// setup_s of `cosearch` and `train_eval`: kSetupLaunches launches of this
// binary in set-up probe mode, each timed from its spawn to the "ready" line
// it prints where the timed run would begin; returns the median in seconds.
// The first timed step is left out on purpose: its cost depends on the
// architecture the seed samples first, and it is already timed as a step.
inline constexpr int kSetupLaunches = 7;
double median_setup_launch_s(const Options& opt);

// What a set-up probe prints once the workload is built.
void report_probe_ready();

}  // namespace perfbench
