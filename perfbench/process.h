// Child processes of the benchmark: the `kosr_cli generate` step and
// the `kosr_cli serve --listen` server it measures, plus the /proc readings
// the report takes from the server (peak RSS, CPU time).
#ifndef KOSR_PERFBENCH_PROCESS_H_
#define KOSR_PERFBENCH_PROCESS_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The value of ` key=value` in a response or ready line, up to the next
/// space; "" when the line has no such field.
std::string Field(const std::string& line, const std::string& key);

/// Runs `argv` to completion with stdout/stderr appended to `log_path`;
/// throws std::runtime_error unless it exits 0.
void RunToCompletion(const std::vector<std::string>& argv,
                     const std::string& log_path);

/// Fields of the `ready ...` line a listening server prints once it serves.
struct ReadyLine {
  std::string text;
  uint16_t port = 0;
  double recovery_ms = 0;
  uint64_t replayed = 0;
};

/// One running `kosr_cli serve --listen 127.0.0.1:0` process. The
/// destructor SIGKILLs and reaps a server that is still running, so no
/// exit path of the benchmark leaves one behind.
class ServerProcess {
 public:
  /// Spawns the server and blocks until its ready line (or throws with the
  /// server's output when it exits or `timeout_s` passes first).
  /// `setup_s` is spawn -> ready line.
  ServerProcess(const std::vector<std::string>& argv,
                const std::string& log_path, double timeout_s);
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }
  const ReadyLine& ready() const { return ready_; }
  double setup_s() const { return setup_s_; }

  /// VmHWM from /proc/<pid>/status, in MiB.
  double PeakRssMb() const;
  /// utime + stime from /proc/<pid>/stat, in milliseconds.
  double CpuMs() const;

  /// SIGKILL + reap: the crash the recovery measurement starts from.
  void Kill();
  /// SIGTERM, then waits up to `timeout_s` for the graceful drain; returns
  /// true when the server exited 0 and printed "clean shutdown".
  bool Terminate(double timeout_s);

 private:
  void WaitReady(std::chrono::steady_clock::time_point start, double timeout_s,
                 const std::string& log_path);
  std::string DrainOutput(double timeout_s);

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string output_;
  ReadyLine ready_;
  double setup_s_ = 0;
};

}  // namespace perfbench

#endif  // KOSR_PERFBENCH_PROCESS_H_
