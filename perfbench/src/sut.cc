// The system under test: one EventServer, or a ClusterRouter over
// in-process backend EventServers, built with program defaults plus the
// pinned attribute schema. Runs either in-process (ladder rungs) or as its
// own process started by fork + exec, controlled over a pair of pipes.
#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>

#include "perfbench/src/bench.h"
#include "src/cluster/router.h"

namespace perfbench {

using apcm::Status;
using apcm::StatusOr;

struct InProcessSut::Impl {
  bool cluster = false;
  std::unique_ptr<apcm::cluster::ClusterRouter> router;
};

InProcessSut::InProcessSut(const WorkloadConfig& config, int backends)
    : impl_(std::make_unique<Impl>()) {
  for (int i = 0; i < std::max(backends, 1); ++i) {
    apcm::net::EventServerOptions options;
    options.attributes = SchemaFor(config);
    servers_.push_back(
        std::make_unique<apcm::net::EventServer>(std::move(options)));
  }
  impl_->cluster = backends > 0;
}

InProcessSut::~InProcessSut() {
  if (impl_->router != nullptr) impl_->router->Stop();
  impl_->router.reset();
  for (auto& s : servers_) s->Stop();
}

Status InProcessSut::Start() {
  for (auto& s : servers_) APCM_RETURN_NOT_OK(s->Start());
  if (!impl_->cluster) return Status::OK();
  apcm::cluster::ClusterOptions options;
  for (auto& s : servers_) {
    apcm::cluster::BackendAddress addr;
    addr.port = s->port();
    options.backends.push_back(addr);
  }
  impl_->router = std::make_unique<apcm::cluster::ClusterRouter>(options);
  return impl_->router->Start();
}

int InProcessSut::port() const {
  return impl_->router != nullptr ? impl_->router->port() : servers_[0]->port();
}

bool InProcessSut::Quiet() const {
  for (const auto& s : servers_) {
    const auto& engine = s->engine();
    if (engine.rebuild_inflight() || engine.queue_depth() != 0) return false;
  }
  return true;
}

apcm::MetricsRegistry* InProcessSut::router_registry() {
  return impl_->router != nullptr ? &impl_->router->metrics_registry()
                                  : nullptr;
}

namespace {

bool WriteLine(int fd, const std::string& line) {
  const std::string text = line + "\n";
  return ::write(fd, text.data(), text.size()) ==
         static_cast<ssize_t>(text.size());
}

StatusOr<std::string> ReadLine(int fd) {
  std::string line;
  char ch = 0;
  for (;;) {
    const ssize_t n = ::read(fd, &ch, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::IOError("SUT control pipe closed");
    if (ch == '\n') return line;
    line.push_back(ch);
  }
}

double PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr);
  }
  return 0;
}

}  // namespace

int ServeMain(const WorkloadConfig& config, int cmd_fd, int resp_fd) {
  InProcessSut sut(config, /*backends=*/0);
  if (Status st = sut.Start(); !st.ok()) {
    std::fprintf(stderr, "perfbench serve: %s\n", st.ToString().c_str());
    return 1;
  }
  if (!WriteLine(resp_fd, std::to_string(sut.port()))) return 1;
  for (;;) {
    char cmd = 0;
    const ssize_t n = ::read(cmd_fd, &cmd, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0 || cmd == 'X') break;
    if (cmd == 'Q') {
      // Quiet twice, 2 ms apart: no snapshot build in flight, queue empty.
      int quiet = 0;
      while (quiet < 2) {
        quiet = sut.Quiet() ? quiet + 1 : 0;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      WriteLine(resp_fd, "ok");
    } else if (cmd == 'C') {
      rusage usage{};
      ::getrusage(RUSAGE_SELF, &usage);
      const double cpu_us =
          static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) * 1e6 +
          static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%.0f %.0f", cpu_us, PeakRssKb());
      WriteLine(resp_fd, buf);
    }
  }
  return 0;
}

SutProcess::~SutProcess() { Stop(); }

Status SutProcess::Start(const std::string& self_exe,
                         const WorkloadConfig& config) {
  int cmd[2];
  int resp[2];
  if (::pipe2(cmd, O_CLOEXEC) != 0 || ::pipe2(resp, O_CLOEXEC) != 0) {
    return Status::IOError("pipe failed");
  }
  start_ns_ = NowNs();
  pid_ = ::fork();
  if (pid_ < 0) return Status::IOError("fork failed");
  if (pid_ == 0) {
    PinCpus(/*sut=*/true);
    // Child: control pipes on fds 3 and 4, without close-on-exec. Moving
    // them above 10 first keeps dup2 from being a no-op on an fd that is
    // already 3 or 4 (which would leave the flag set).
    const int c = ::fcntl(cmd[0], F_DUPFD, 10);
    const int r = ::fcntl(resp[1], F_DUPFD, 10);
    ::dup2(c, 3);
    ::dup2(r, 4);
    ::dup2(2, 1);  // the parent's stdout carries only its own report
    std::vector<std::string> args = {"perfbench", "--serve", "--workload",
                                     config.name};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(self_exe.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(cmd[0]);
  ::close(resp[1]);
  cmd_fd_ = cmd[1];
  resp_fd_ = resp[0];
  APCM_ASSIGN_OR_RETURN(std::string line, ReadLine(resp_fd_));
  port_ = std::atoi(line.c_str());
  if (port_ <= 0) return Status::Internal("SUT reported no port");
  return Status::OK();
}

StatusOr<std::string> SutProcess::Command(char cmd) {
  if (::write(cmd_fd_, &cmd, 1) != 1) return Status::IOError("SUT gone");
  return ReadLine(resp_fd_);
}

Status SutProcess::Quiesce() { return Command('Q').status(); }

Status SutProcess::Usage(double* cpu_us, double* hwm_kb) {
  APCM_ASSIGN_OR_RETURN(std::string line, Command('C'));
  if (std::sscanf(line.c_str(), "%lf %lf", cpu_us, hwm_kb) != 2) {
    return Status::Internal("bad usage line from SUT");
  }
  return Status::OK();
}

void SutProcess::Stop() {
  if (pid_ <= 0) return;
  const char stop = 'X';
  (void)::write(cmd_fd_, &stop, 1);
  ::close(cmd_fd_);
  ::close(resp_fd_);
  // Graceful stop drains the server; give it a bounded time, then kill.
  for (int i = 0; i < 3000; ++i) {
    if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
      pid_ = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, nullptr, 0);
  pid_ = -1;
}

}  // namespace perfbench
