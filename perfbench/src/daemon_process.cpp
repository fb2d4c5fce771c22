#include "daemon_process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <vector>

#include "runtime/thread_pool.h"
#include "server/client.h"
#include "server/qgdpd.h"

namespace perfbench {

namespace {

constexpr int kStartTimeoutMs = 30'000;

/// Reads one '\n'-terminated line from `fd` within the deadline.
std::optional<std::string> read_line(int fd, int timeout_ms) {
  std::string line;
  char c = 0;
  for (;;) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, timeout_ms) <= 0) return std::nullopt;
    const ssize_t r = ::read(fd, &c, 1);
    if (r <= 0) return std::nullopt;
    if (c == '\n') return line;
    line += c;
  }
}

}  // namespace

DaemonProcess::DaemonProcess(const std::string& exe, const DaemonConfig& cfg) {
  std::vector<std::string> args = {exe, "--serve"};
  if (cfg.fork_isolation) args.emplace_back("--fork");
  if (!cfg.cache_dir.empty()) {
    args.emplace_back("--cache-dir");
    args.push_back(cfg.cache_dir);
  }
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) throw std::runtime_error("daemon: pipe failed");
  std::cout.flush();
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(out[0]);
    ::close(out[1]);
    throw std::runtime_error("daemon: fork failed");
  }
  if (pid_ == 0) {
    // The daemon must not outlive the benchmark, however that ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(out[1], STDOUT_FILENO);
    ::close(out[0]);
    ::close(out[1]);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(out[1]);
  const auto line = read_line(out[0], kStartTimeoutMs);
  ::close(out[0]);
  unsigned port = 0;
  if (!line || std::sscanf(line->c_str(), "port %u", &port) != 1 || port == 0 || port > 65535) {
    // The destructor does not run for a throwing constructor.
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
    throw std::runtime_error("daemon: did not report a port");
  }
  port_ = static_cast<std::uint16_t>(port);
}

DaemonProcess::~DaemonProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
}

qgdp::server::StatsReply DaemonProcess::shutdown(double* peak_rss_mb) {
  qgdp::server::QgdpdClient client;
  std::string error;
  if (!client.connect("127.0.0.1", port_, &error)) {
    throw std::runtime_error("daemon shutdown: connect: " + error);
  }
  const auto stats = client.shutdown_server(&error);
  if (!stats) throw std::runtime_error("daemon shutdown: " + error);
  client.close();
  int status = 0;
  rusage ru{};
  const pid_t pid = pid_;
  pid_ = -1;
  if (::wait4(pid, &status, 0, &ru) != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("daemon shutdown: abnormal daemon exit");
  }
  if (peak_rss_mb) *peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB → MiB
  return *stats;
}

int serve_main(const DaemonConfig& cfg) {
  // Every request runs its pipeline serially, as a fork worker does.
  // On a shared host a GP spread over every core waits on whichever
  // lane a neighbour delayed, so its latency measures the neighbours;
  // GP lane scaling is measured apart (placement.gp_jobs2_efficiency).
  qgdp::set_serial_execution(true);
  qgdp::server::QgdpdOptions opt;
  if (cfg.fork_isolation) opt.isolation = qgdp::server::Isolation::kFork;
  opt.cache_dir = cfg.cache_dir;
  qgdp::server::Qgdpd daemon(opt);
  std::string error;
  if (!daemon.start(&error)) {
    std::cerr << "perfbench --serve: " << error << "\n";
    return 1;
  }
  std::printf("port %u\n", static_cast<unsigned>(daemon.port()));
  std::fflush(stdout);
  daemon.wait();
  return 0;
}

}  // namespace perfbench
