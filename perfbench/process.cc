#include "perfbench/process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Forks and execs `argv` with stdout going to `stdout_fd` and stderr to
// `log_path`. The child dies with the benchmark (PR_SET_PDEATHSIG), so
// a killed benchmark cannot leave a server holding the CPUs.
pid_t Spawn(const std::vector<std::string>& argv, int stdout_fd,
            const std::string& log_path) {
  std::vector<char*> cargv;
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) throw std::runtime_error("cannot open " + log_path);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int null_fd = ::open("/dev/null", O_RDONLY);
    ::dup2(null_fd, STDIN_FILENO);
    ::dup2(stdout_fd >= 0 ? stdout_fd : log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(cargv[0], cargv.data());
    ::_exit(127);
  }
  ::close(log_fd);
  return pid;
}

// Waits up to `timeout_s` for `pid`; returns its wait status, or -1 when it
// is still running.
int WaitFor(pid_t pid, double timeout_s) {
  const auto start = Clock::now();
  while (true) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) return status;
    if (r < 0) return 0;
    if (SecondsSince(start) > timeout_s) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace

std::string Field(const std::string& line, const std::string& key) {
  const size_t at = line.find(" " + key + "=");
  if (at == std::string::npos) return "";
  const size_t begin = at + key.size() + 2;
  return line.substr(begin, line.find(' ', begin) - begin);
}

void RunToCompletion(const std::vector<std::string>& argv,
                     const std::string& log_path) {
  const pid_t pid = Spawn(argv, -1, log_path);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error(argv[0] + " " + argv[1] + " failed; see " +
                             log_path);
  }
}

ServerProcess::ServerProcess(const std::vector<std::string>& argv,
                             const std::string& log_path, double timeout_s) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  const auto start = Clock::now();
  try {
    pid_ = Spawn(argv, fds[1], log_path);
  } catch (...) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw;
  }
  ::close(fds[1]);
  out_fd_ = fds[0];
  try {
    WaitReady(start, timeout_s, log_path);
  } catch (...) {
    Kill();
    ::close(out_fd_);
    throw;
  }
}

void ServerProcess::WaitReady(std::chrono::steady_clock::time_point start,
                              double timeout_s, const std::string& log_path) {
  while (true) {
    const size_t eol = output_.find('\n');
    if (eol != std::string::npos) {
      std::string line = output_.substr(0, eol);
      output_.erase(0, eol + 1);
      if (line.rfind("ready ", 0) != 0) continue;
      setup_s_ = SecondsSince(start);
      ready_.text = line;
      const std::string listen = Field(line, "listen");
      ready_.port = static_cast<uint16_t>(
          std::stoul(listen.substr(listen.rfind(':') + 1)));
      ready_.recovery_ms = std::stod(Field(line, "recovery_ms"));
      ready_.replayed = std::stoull(Field(line, "replayed"));
      return;
    }
    const double left = timeout_s - SecondsSince(start);
    pollfd p{out_fd_, POLLIN, 0};
    if (left <= 0 || ::poll(&p, 1, static_cast<int>(left * 1e3) + 1) <= 0) {
      throw std::runtime_error("server not ready within timeout; see " +
                               log_path);
    }
    char buf[4096];
    const ssize_t n = ::read(out_fd_, buf, sizeof buf);
    if (n <= 0) {
      throw std::runtime_error("server exited before ready: " + output_ +
                               " (see " + log_path + ")");
    }
    output_.append(buf, static_cast<size_t>(n));
  }
}

ServerProcess::~ServerProcess() {
  Kill();
  if (out_fd_ >= 0) ::close(out_fd_);
}

double ServerProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  throw std::runtime_error("no VmHWM for server " + std::to_string(pid_));
}

double ServerProcess::CpuMs() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat;
  std::getline(in, stat);
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields overall (the 12th and 13th after the name).
  std::istringstream rest(stat.substr(stat.rfind(')') + 2));
  std::string field;
  double ticks = 0;
  for (int i = 1; i <= 13 && rest >> field; ++i) {
    if (i >= 12) ticks += std::stod(field);
  }
  return ticks * 1e3 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

void ServerProcess::Kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, nullptr, 0);
  pid_ = -1;
}

std::string ServerProcess::DrainOutput(double timeout_s) {
  const auto start = Clock::now();
  char buf[4096];
  while (SecondsSince(start) < timeout_s) {
    pollfd p{out_fd_, POLLIN, 0};
    if (::poll(&p, 1, 20) <= 0) continue;
    const ssize_t n = ::read(out_fd_, buf, sizeof buf);
    if (n <= 0) break;
    output_.append(buf, static_cast<size_t>(n));
  }
  return output_;
}

bool ServerProcess::Terminate(double timeout_s) {
  if (pid_ <= 0) return false;
  ::kill(pid_, SIGTERM);
  const std::string said = DrainOutput(timeout_s);
  const int status = WaitFor(pid_, 1.0);
  if (status == -1) {
    Kill();
    return false;
  }
  pid_ = -1;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
         said.find("clean shutdown") != std::string::npos;
}

}  // namespace perfbench
